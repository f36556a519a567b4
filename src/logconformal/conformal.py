"""Per-parser calibration and conformal p-values.

Calibration scores every training record against the template it matches
and files the score under that template. A new record's p-value for a
template is the fraction of that template's calibration scores at least as
large as the record's own score: small p means the record is unusually
nonconforming for that event class.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BundleError, EmptyCorpus, EmptyTemplateSet, UnknownTemplate
from .nonconformity import score_against_set, weighted_score
from .templates import EventTemplate, TemplateSet, list_templates

BUNDLE_VERSION = 1

# Reservoir classes. A template missing from ``calib`` has no class; any
# reservoir that is neither empty nor all-zero is general.
EMPTY = "empty"
ALL_ZERO = "all-zero"
GENERAL = "general"

# A non-empty edit script scores exactly 0 only if every edit's sigmoid
# weight is 0, which ``_weight`` returns once x - v > 700. An edit
# position x is at most n + 1 and the center v is (m + n) / 2 for a template
# of m tokens and a record of n, so x - v <= (n - m) / 2 + 1: up to this
# length gap, "score is 0" is exactly "positional match". Longer records are
# scored by the DP.
MAX_EXACT_GAP = 1398


def _reservoir_class(scores: list[float]) -> str:
    if not scores:
        return EMPTY
    return GENERAL if any(scores) else ALL_ZERO


@dataclass
class CalibrationModel:
    """Per-template reservoirs of training nonconformity scores.

    ``classes`` is derived from ``calib`` when the model is built and is not
    serialized; rebuild the model rather than editing ``calib`` in place.
    """

    parser_name: str
    template_set: TemplateSet
    calib: dict[str, list[float]]  # ascending per template
    total_count: int
    classes: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.classes = {tid: _reservoir_class(scores)
                        for tid, scores in self.calib.items()}


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
    the calibration lists still hold one entry per record. A record that
    matches some template positionally scores 0 there, the least possible
    score, so the edit-distance scan runs only for records that match none.
    """
    if not ts.templates:
        raise EmptyTemplateSet(f"{ts.parser_name} has no templates")
    training = list(training)
    if not training:
        raise EmptyCorpus("no calibration records")

    shortest = min(len(t.tokens) for t in ts.templates)
    calib: dict[str, list[float]] = {t.template_id: [] for t in ts.templates}
    cache: dict[tuple[str, ...], tuple[str, float]] = {}
    for rec in training:
        hit = cache.get(rec.tokens)
        if hit is None:
            matching = (len(rec.tokens) - shortest <= MAX_EXACT_GAP
                        and [t.template_id for t in ts.templates
                             if t.matches(rec.tokens)])
            if matching:
                # Same tie-break as score_against_set: smallest id as a string.
                hit = (min(matching), 0.0)
            else:
                scored = score_against_set(ts, rec)
                hit = (scored.argmin, scored.min_score)
            cache[rec.tokens] = hit
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
    an empty reservoir gives 0, and an all-zero one gives 1 exactly when the
    score is 0, that is when the template matches the record positionally.
    """
    out = PValueSet(parser_name=model.parser_name)
    tokens = record.tokens
    for tmpl in model.template_set.templates:
        tid = tmpl.template_id
        kind = model.classes.get(tid)
        if kind == EMPTY:
            out.pvalues[tid] = 0.0
        elif kind == ALL_ZERO and len(tokens) - len(tmpl.tokens) <= MAX_EXACT_GAP:
            out.pvalues[tid] = 1.0 if tmpl.matches(tokens) else 0.0
        else:
            out.pvalues[tid] = pvalue(model, tid, weighted_score(tmpl.tokens, record))
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
                      for t in list_templates(ts)],
        "calibration": {tid: scores for tid, scores in model.calib.items()},
        "total_count": model.total_count,
    }


def _model_from_doc(doc: dict) -> CalibrationModel:
    """Build a model from its bundle document; ``ValueError`` if malformed.

    The pruned p-values rely on each reservoir being sorted, finite and
    non-negative, and on a reservoir for every template.
    """
    name = doc["parser_name"]
    ts = TemplateSet(parser_name=name, parser_params=doc["parser_params"])
    for template_id, tokens, support in doc["templates"]:
        ts.templates.append(EventTemplate(template_id=template_id,
                                          tokens=tuple(tokens),
                                          support=support))
    calib = {tid: list(scores) for tid, scores in doc["calibration"].items()}
    ids = [t.template_id for t in ts.templates]
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
    """Atomic write: the bundle appears complete or not at all."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(bundle_to_bytes(models, schema_doc))
    tmp.replace(path)


def load_bundle(path) -> tuple[list[CalibrationModel], dict]:
    """Load a bundle; raises :class:`BundleError` when unusable."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("bundle_version") != BUNDLE_VERSION:
        raise BundleError(f"unsupported bundle version in {path}")
    try:
        models = [_model_from_doc(m) for m in doc["models"]]
        schema_doc = doc["schema"]
        if not isinstance(schema_doc["format_template"], str):
            raise ValueError("schema format_template is not a string")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle {path}: {exc}") from exc
    return models, schema_doc
