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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (BundleError, EmptyCorpus, EmptyTemplateSet, InvalidSpec,
                     MalformedFormat, UnknownParser, UnknownTemplate)
from .ingest import compile_schema
from .nonconformity import nearest, weighted_score
from .parsers import params_from_dict
from .templates import EventTemplate, TemplateSet

BUNDLE_VERSION = 1


@dataclass
class CalibrationModel:
    """Per-template reservoirs of training nonconformity scores."""

    parser_name: str
    template_set: TemplateSet
    calib: dict[str, list[float]]  # ascending and non-negative per template
    total_count: int


@dataclass
class PValueSet:
    """One p-value per template of a parser's model, for one record."""

    parser_name: str
    pvalues: dict[str, float] = field(default_factory=dict)

    def max_p(self) -> float:
        return max(self.pvalues.values(), default=0.0)


def calibrate(ts: TemplateSet, training) -> CalibrationModel:
    """Score every training record against its matched template.

    Identical token sequences are scored once and their score replicated, so
    the calibration lists still hold one entry per record.
    """
    if not ts.templates:
        raise EmptyTemplateSet(f"{ts.parser_name} has no templates")
    training = list(training)
    if not training:
        raise EmptyCorpus("no calibration records")

    calib: dict[str, list[float]] = {t.template_id: [] for t in ts.templates}
    cache: dict[tuple[str, ...], tuple[str, float]] = {}
    for rec in training:
        hit = cache.get(rec.tokens)
        if hit is None:
            hit = cache[rec.tokens] = nearest(ts, rec.tokens)
        calib[hit[0]].append(hit[1])
    for scores in calib.values():
        scores.sort()
    return CalibrationModel(parser_name=ts.parser_name, template_set=ts,
                            calib=calib, total_count=len(training))


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
    """P-value of the record under every template of the model.

    Where the reservoir decides the p-value alone the score is not computed:
    an empty reservoir gives 0, and an all-zero one (sorted and non-negative,
    so its last score is 0) gives 1 exactly when the score is 0, that is
    when the template matches the record positionally.
    """
    out = PValueSet(parser_name=model.parser_name)
    tokens = record.tokens
    for tmpl in model.template_set.templates:
        tid = tmpl.template_id
        scores = model.calib.get(tid)
        if scores is None:
            raise UnknownTemplate(tid)
        if not scores:
            out.pvalues[tid] = 0.0
        elif scores[-1] == 0.0:
            out.pvalues[tid] = 1.0 if tmpl.matches(tokens) else 0.0
        else:
            out.pvalues[tid] = pvalue(model, tid, weighted_score(tmpl.tokens, tokens))
    return out


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


def _model_from_doc(doc: dict) -> CalibrationModel:
    """Build a model from its bundle document; ``ValueError`` if malformed.

    The parser name and params must be ones ``train`` accepts, and each
    template a list of string tokens with an integer support. The pruned
    p-values rely on each reservoir being sorted, finite and non-negative,
    and on a reservoir for every template.
    """
    name = doc["parser_name"]
    try:
        params_from_dict(name, doc["parser_params"])
    except (InvalidSpec, UnknownParser) as exc:
        raise ValueError(f"parser {name!r}: {exc}") from exc
    ts = TemplateSet(parser_name=name, parser_params=doc["parser_params"])
    for template_id, tokens, support in doc["templates"]:
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens) \
                or isinstance(support, bool) or not isinstance(support, int):
            raise ValueError(f"{name}: template {template_id!r} needs a list of "
                             f"string tokens and an integer support")
        ts.templates.append(EventTemplate(template_id=template_id,
                                          tokens=tuple(tokens),
                                          support=support))
    calib = {tid: list(scores) for tid, scores in doc["calibration"].items()}
    ids = [t.template_id for t in ts.templates]
    if not ids:
        raise ValueError(f"{name}: no templates")
    if len(set(ids)) != len(ids) or set(ids) != set(calib):
        raise ValueError(f"{name}: calibration keys differ from the template ids")
    for tid, scores in calib.items():
        if not all(map(math.isfinite, scores)) or scores != sorted(scores) \
                or (scores and scores[0] < 0):
            raise ValueError(f"{name}: reservoir {tid} is not sorted, finite "
                             f"and non-negative")
    if sum(map(len, calib.values())) != doc["total_count"]:
        raise ValueError(f"{name}: reservoir sizes do not sum to total_count")
    return CalibrationModel(parser_name=name, template_set=ts, calib=calib,
                            total_count=doc["total_count"])


def bundle_to_bytes(models: list[CalibrationModel], schema_doc: dict) -> bytes:
    doc = {
        "bundle_version": BUNDLE_VERSION,
        "schema": schema_doc,
        "models": [_model_to_doc(m) for m in models],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def save_bundle(models: list[CalibrationModel], schema_doc: dict, path) -> None:
    """Atomic write: the bundle appears complete or not at all, and a failed
    write or rename leaves no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    data = bundle_to_bytes(models, schema_doc)
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def load_bundle(path) -> tuple[list[CalibrationModel], dict]:
    """Load a bundle; raises :class:`BundleError` when unusable.

    The stored header schema is compiled here, so a bad format template or
    mask rule is reported as a bundle fault.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("bundle_version") != BUNDLE_VERSION:
        raise BundleError(f"unsupported bundle version in {path}")
    try:
        models = [_model_from_doc(m) for m in doc["models"]]
        if not models:
            raise ValueError("no models")
        names = [m.parser_name for m in models]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated parser name in {names}")
        schema_doc = doc["schema"]
        compile_schema(schema_doc["format_template"],
                       [tuple(r) for r in schema_doc.get("mask_rules", [])])
    except (AttributeError, KeyError, TypeError, ValueError,
            MalformedFormat) as exc:
        raise BundleError(f"malformed bundle {path}: {exc}") from exc
    return models, schema_doc
