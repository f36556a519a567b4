"""Ensemble verdicts from per-parser p-value sets.

For each parser, template labels whose p-value reaches the significance
level survive as that parser's prediction set. The one rule: a record is
alarmed when :func:`combined` of its parsers' largest p-values (an empty set
counts as 0) is below the level, by :func:`label_of`; the sweep uses both.
"""

from __future__ import annotations

from typing import NamedTuple

from .conformal import COMPACT_JSON, CalibrationModel, PValueSet, pvalues_for
from .errors import NoParsers
from .templates import Checked

NORMAL = "normal"
ANOMALY = "anomaly"


class _DetectorFields(NamedTuple):
    epsilon: float = 0.27


class DetectorConfig(Checked, _DetectorFields):
    __slots__ = ()

    def _check(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


class Verdict(NamedTuple):
    label: str
    prediction_set: dict[str, list[tuple[str, float]]]
    max_p: float
    error: str | None = None


def label_of(max_p: float, epsilon: float) -> str:
    """The alarm rule: ANOMALY iff the largest p-value is below epsilon."""
    return ANOMALY if max_p < epsilon else NORMAL


def combined(parser_ps: list[float]) -> float:
    """The ensemble statistic of one record's per-parser p-values: their max."""
    if not parser_ps:
        raise NoParsers("need p-value sets from at least one parser")
    return max(parser_ps)


def decide(psets: list[PValueSet], cfg: DetectorConfig) -> Verdict:
    """Filter each parser's p-values at epsilon and label the record.

    The boundary survives: p == epsilon stays in the prediction set. A
    parser's p-values are filtered only when its largest one survives.
    """
    eps = cfg.epsilon
    prediction: dict[str, list[tuple[str, float]]] = {}
    tops = []
    for pset in psets:
        top = pset.max_p()
        tops.append(top)
        prediction[pset.parser_name] = [(tid, p) for tid, p in pset.pvalues.items()
                                        if p >= eps] if top >= eps else []
    max_p = combined(tops)
    return Verdict(label=label_of(max_p, eps), prediction_set=prediction, max_p=max_p)


def pvalue_sets_for(models: list[CalibrationModel], record) -> list[PValueSet]:
    return [pvalues_for(model, record) for model in models]


def detect_batch(models: list[CalibrationModel], records,
                 cfg: DetectorConfig) -> list[Verdict]:
    """One verdict per record, order preserved.

    A verdict depends only on the record's tokens, so p-values and a
    decision are made once per distinct sequence; records whose decisions
    are equal (label, ``max_p`` and every parser's prediction list) then
    share one read-only ``Verdict`` object, and callers take the line id
    from the record. Every p-value is a non-negative quotient, so equal
    decisions render the same bytes (-0.0 never meets 0.0). Per-record
    failures are captured on a fresh verdict's ``error`` field with a
    fail-closed anomaly label instead of aborting the batch; a failure is
    never cached or shared, so every record of a failing token sequence is
    scored again and carries its own error.
    """
    if not models:
        raise NoParsers("no trained models")
    decided: dict[tuple[str, ...], Verdict] = {}
    distinct: dict[tuple, Verdict] = {}
    verdicts = []
    for rec in records:
        verdict = decided.get(rec.tokens)
        if verdict is None:
            try:
                verdict = decide(pvalue_sets_for(models, rec), cfg)
            except Exception as exc:  # per-record error channel
                verdict = Verdict(label=ANOMALY, prediction_set={}, max_p=0.0,
                                  error=str(exc))
            else:
                key = (verdict.label, verdict.max_p,
                       tuple(map(tuple, verdict.prediction_set.values())))
                verdict = decided[rec.tokens] = distinct.setdefault(key, verdict)
        verdicts.append(verdict)
    return verdicts


def render_alarm_line(line_id: int, verdict: Verdict) -> str:
    """Stable line-delimited alarm record for downstream diffing."""
    doc = {
        "line_id": line_id,
        "label": verdict.label,
        "max_p": verdict.max_p,
        "prediction_set": verdict.prediction_set,
    }
    if verdict.error is not None:
        doc["error"] = verdict.error
    return COMPACT_JSON.encode(doc)


def write_alarms(fh, records, verdicts: list[Verdict]) -> int:
    """Write ``render_alarm_line`` of each anomaly record's line id and
    verdict, one per line, and return how many were written.

    Each verdict object is rendered once, for its first alarmed record, so
    after :func:`detect_batch` once per distinct alarmed decision; its
    other records' lines are that text with their own id spliced in where
    ``"line_id":<id>,`` stands. No escaped JSON string can hold an unescaped
    ``"line_id":``, so the first match is the key, and ``json.dumps`` writes
    the id as ``str(int)``: the bytes are those of rendering each line.
    Keying by ``id(v)`` is safe because ``verdicts`` keeps every verdict alive.
    """
    parts: dict[int, tuple[str, str]] = {}
    alarms = 0
    for rec, v in zip(records, verdicts, strict=True):
        if v.label != ANOMALY:
            continue
        alarms += 1
        split = parts.get(id(v))
        if split is None:
            line = render_alarm_line(rec.line_id, v)
            head, _, tail = line.partition('"line_id":%d,' % rec.line_id)
            split = parts[id(v)] = (head + '"line_id":', "," + tail + "\n")
        fh.write(split[0] + str(rec.line_id) + split[1])
    return alarms
