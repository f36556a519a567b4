"""Per-parser calibration and conformal p-values.

Calibration scores every training record against the template it matches
and files the score under that template. A new record's p-value for a
template is the fraction of that template's calibration scores at least as
large as the record's own score: small p means the record is unusually
nonconforming for that event class.
"""

from __future__ import annotations

import contextlib
import json
import math
from bisect import bisect_left
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .errors import (BundleError, EmptyCorpus, InvalidSpec, MalformedFormat,
                     UnknownParser, UnknownTemplate)
from .ingest import HeaderSchema, compile_schema
from .nonconformity import nearest, weighted_score
from .parsers import params_from_dict
from .templates import EventTemplate, Frozen, TemplateSet, ids_by_tokens

BUNDLE_VERSION = 1


class CalibrationModel(Frozen):
    """Per-template reservoirs of training nonconformity scores, built whole:
    neither the templates nor a reservoir change once the model exists.
    ``calib`` maps each template id to its scores, ascending and
    non-negative."""

    _fields = ("template_set", "calib")

    def __init__(self, template_set: TemplateSet, calib: dict[str, list[float]]):
        vars(self).update(template_set=template_set, calib=calib)

    @property
    def parser_name(self) -> str:
        return self.template_set.parser_name

    @property
    def total_count(self) -> int:
        return sum(map(len, self.calib.values()))

    @cached_property
    def _reservoir_classes(self) -> tuple[dict[str, float], set[str], list[EventTemplate]]:
        """The templates by what their reservoir decides alone: every id
        mapped to 0.0 in template order, the ids whose reservoir is all zero,
        and the templates whose reservoir holds a positive score, in template
        order. Raises :class:`UnknownTemplate` for a template without a
        reservoir."""
        zeros, all_zero, scored = {}, set(), []
        for tmpl in self.template_set.templates:
            tid = tmpl.template_id
            scores = self.calib.get(tid)
            if scores is None:
                raise UnknownTemplate(tid)
            zeros[tid] = 0.0
            if scores and scores[-1] == 0.0:
                all_zero.add(tid)
            elif scores:
                scored.append(tmpl)
        return zeros, all_zero, scored


class PValueSet(NamedTuple):
    """One p-value per template of a parser's model, for one record."""

    parser_name: str
    pvalues: dict[str, float] = MappingProxyType({})  # read-only: every default shares it

    def max_p(self) -> float:
        return max(self.pvalues.values(), default=0.0)


def calibrate(ts: TemplateSet, training) -> CalibrationModel:
    """Score every training record against its matched template.

    Identical token sequences are scored once and their score replicated, so
    the calibration lists still hold one entry per record. Raises
    :class:`EmptyCorpus` for no training records and, through ``nearest`` on
    the first record, :class:`EmptyTemplateSet` for a set with no templates;
    both empty is an :class:`EmptyCorpus`.
    """
    training = list(training)
    if not training:
        raise EmptyCorpus("no calibration records")

    calib: dict[str, list[float]] = {t.template_id: [] for t in ts.templates}
    for tokens, ids in ids_by_tokens(training).items():
        template_id, score = nearest(ts, tokens)
        calib[template_id] += [score] * len(ids)
    for scores in calib.values():
        scores.sort()
    return CalibrationModel(template_set=ts, calib=calib)


def pvalue(model: CalibrationModel, template_id: str, alpha_star: float) -> float:
    """Fraction of the template's calibration scores >= ``alpha_star``.

    An empty calibration class cannot vouch for conformity, so its p-value
    is 0.
    """
    if template_id not in model.calib:
        raise UnknownTemplate(template_id)
    scores = model.calib[template_id]
    if not scores:
        return 0.0
    return (len(scores) - bisect_left(scores, alpha_star)) / len(scores)


def pvalues_for(model: CalibrationModel, record) -> PValueSet:
    """P-value of the record under every template of the model, keyed in
    template order.

    Where the reservoir decides the p-value alone the score is not computed:
    an empty reservoir gives 0, and an all-zero one (sorted and non-negative,
    so its last score is 0) gives 1 exactly when the score is 0, that is
    when the template matches the record positionally, which needs the
    record's length.
    """
    zeros, all_zero, scored = model._reservoir_classes
    pvalues = zeros.copy()
    tokens = record.tokens
    for tmpl in model.template_set.of_length(len(tokens)):
        if tmpl.template_id in all_zero and tmpl.matches(tokens):
            pvalues[tmpl.template_id] = 1.0
    for tmpl in scored:
        pvalues[tmpl.template_id] = pvalue(model, tmpl.template_id,
                                           weighted_score(tmpl.tokens, tokens))
    return PValueSet(parser_name=model.parser_name, pvalues=pvalues)


# ---------------------------------------------------------------------------
# Bundle persistence (byte-stable JSON)
# ---------------------------------------------------------------------------

def _model_to_doc(model: CalibrationModel) -> dict:
    ts = model.template_set
    return {
        "parser_name": model.parser_name,
        "parser_params": ts.parser_params,
        "templates": [[t.template_id, list(t.tokens), t.support]
                      for t in ts.templates],
        "calibration": model.calib,
        "total_count": model.total_count,
    }


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``1.0`` compare equal to 1 but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _model_from_doc(doc: dict) -> CalibrationModel:
    """Build a model from its bundle document; ``ValueError`` if malformed.

    The parser name and params must be ones ``train`` accepts, each
    template a list of string tokens with an integer support, and
    ``total_count`` an integer. The pruned p-values rely on each reservoir
    being a list of sorted, finite, non-negative numbers (not JSON
    booleans), and on a reservoir for every template. The model keeps the
    document's calibration object and lists.
    """
    name = doc["parser_name"]
    try:
        params_from_dict(name, doc["parser_params"])
    except (InvalidSpec, UnknownParser) as exc:
        raise ValueError(f"parser {name!r}: {exc}") from exc
    templates = []
    for template_id, tokens, support in doc["templates"]:
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens) \
                or not _is_int(support):
            raise ValueError(f"{name}: template {template_id!r} needs a list of "
                             f"string tokens and an integer support")
        templates.append(EventTemplate(template_id=template_id, tokens=tuple(tokens),
                                       support=support))
    calib = doc["calibration"]
    ids = [t.template_id for t in templates]
    if not ids:
        raise ValueError(f"{name}: no templates")
    if len(set(ids)) != len(ids) or set(ids) != set(calib):
        raise ValueError(f"{name}: calibration keys differ from the template ids")
    for tid, scores in calib.items():
        if not isinstance(scores, list) or bool in set(map(type, scores)) \
                or not all(map(math.isfinite, scores)) \
                or scores != sorted(scores) or (scores and scores[0] < 0):
            raise ValueError(f"{name}: reservoir {tid} must be a list of sorted, "
                             f"finite, non-negative numbers")
    total = doc["total_count"]
    if not _is_int(total):
        raise ValueError(f"{name}: total_count must be an integer, got {total!r}")
    ts = TemplateSet(parser_name=name, parser_params=doc["parser_params"],
                     templates=tuple(templates))
    model = CalibrationModel(template_set=ts, calib=calib)
    if model.total_count != total:
        raise ValueError(f"{name}: reservoir sizes do not sum to total_count")
    return model


# the encoder ``json.dumps`` builds on each call for these arguments
_BUNDLE_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _bundle_chunks(models: list[CalibrationModel], schema: HeaderSchema):
    """The bundle's bytes in pieces, one model's text at a time. Joined,
    they are the compact JSON of the whole document with sorted keys."""
    yield b'{"bundle_version":%d,"models":[' % BUNDLE_VERSION
    for i, model in enumerate(models):
        if i:
            yield b","
        yield _BUNDLE_JSON.encode(_model_to_doc(model)).encode()
    schema_doc = {"format_template": schema.format_template,
                  "mask_rules": [[p.pattern, repl] for p, repl in schema.mask_rules]}
    yield b'],"schema":' + _BUNDLE_JSON.encode(schema_doc).encode() + b"}\n"


def save_bundle(models: list[CalibrationModel], schema: HeaderSchema, path) -> None:
    """Atomic write: the bundle appears complete or not at all, and a failed
    write or rename leaves no temporary file behind. Models are written one
    at a time, so only one model's text is held at once."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in _bundle_chunks(models, schema):
                fh.write(chunk)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


class _FloatMemo(dict):
    """JSON number text -> float, parsed on first sight, so that equal
    scores in one document share one float object (``"-0.0"`` is its own
    text and keeps its sign)."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def load_bundle(path) -> tuple[list[CalibrationModel], HeaderSchema]:
    """Load a bundle and its compiled header schema; raises
    :class:`BundleError` when unusable.

    The stored schema is compiled here, so a bad format template or mask
    rule is reported as a bundle fault.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         parse_float=_FloatMemo().__getitem__)
    except (OSError, ValueError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    version = doc.get("bundle_version") if isinstance(doc, dict) else None
    if not _is_int(version) or version != BUNDLE_VERSION:
        raise BundleError(f"unsupported bundle version in {path}")
    try:
        models = [_model_from_doc(m) for m in doc["models"]]
        if not models:
            raise ValueError("no models")
        names = [m.parser_name for m in models]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated parser name in {names}")
        schema_doc = doc["schema"]
        schema = compile_schema(schema_doc["format_template"],
                                schema_doc.get("mask_rules", []))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            MalformedFormat) as exc:  # OverflowError: an int score no float holds
        raise BundleError(f"malformed bundle {path}: {exc}") from exc
    return models, schema
