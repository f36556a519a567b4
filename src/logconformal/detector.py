"""Ensemble verdicts from per-parser p-value sets.

For each parser, template labels whose p-value reaches the significance
level survive as that parser's prediction set. A record is alarmed when its
largest p-value over all parsers is below the level (an empty set counts as
0), the sweep's rule: any surviving label anywhere vouches for normality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .conformal import CalibrationModel, PValueSet, pvalues_for
from .errors import NoParsers

NORMAL = "normal"
ANOMALY = "anomaly"


@dataclass(frozen=True)
class DetectorConfig:
    epsilon: float = 0.27

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass(slots=True)
class Verdict:
    line_id: int
    label: str
    prediction_set: dict[str, list[tuple[str, float]]]
    max_p: float
    error: str | None = None


def decide(psets: list[PValueSet], cfg: DetectorConfig, line_id: int = 0) -> Verdict:
    """Filter each parser's p-values at epsilon and label the record.

    The boundary survives: p == epsilon stays in the prediction set. A
    parser's p-values are filtered only when its largest one survives.
    """
    if not psets:
        raise NoParsers("need p-value sets from at least one parser")
    eps = cfg.epsilon
    prediction: dict[str, list[tuple[str, float]]] = {}
    tops = []
    for pset in psets:
        top = pset.max_p()
        tops.append(top)
        prediction[pset.parser_name] = [(tid, p) for tid, p in pset.pvalues.items()
                                        if p >= eps] if top >= eps else []
    max_p = max(tops)
    label = ANOMALY if max_p < eps else NORMAL
    return Verdict(line_id=line_id, label=label, prediction_set=prediction,
                   max_p=max_p)


def pvalue_sets_for(models: list[CalibrationModel], record) -> list[PValueSet]:
    return [pvalues_for(model, record) for model in models]


def detect_batch(models: list[CalibrationModel], records,
                 cfg: DetectorConfig) -> list[Verdict]:
    """One verdict per record, order preserved.

    Per-record failures are captured on the verdict's ``error`` field with a
    fail-closed anomaly label instead of aborting the batch; a failure is
    never cached, so every record of a failing token sequence carries it.
    Identical token sequences share one p-value computation and one decision:
    their verdicts differ only in ``line_id`` and share one ``prediction_set``,
    which callers must treat as read-only.
    """
    if not models:
        raise NoParsers("no trained models")
    decided: dict[tuple[str, ...], Verdict] = {}
    verdicts = []
    for rec in records:
        shared = decided.get(rec.tokens)
        if shared is None:
            try:
                verdict = decide(pvalue_sets_for(models, rec), cfg, rec.line_id)
            except Exception as exc:  # per-record error channel
                verdict = Verdict(line_id=rec.line_id, label=ANOMALY,
                                  prediction_set={}, max_p=0.0, error=str(exc))
            else:
                decided[rec.tokens] = verdict
            verdicts.append(verdict)
            continue
        verdicts.append(Verdict(line_id=rec.line_id, label=shared.label,
                                prediction_set=shared.prediction_set,
                                max_p=shared.max_p))
    return verdicts


# the encoder ``json.dumps`` builds on each call for these arguments
_ALARM_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def render_alarm_line(verdict: Verdict) -> str:
    """Stable line-delimited alarm record for downstream diffing."""
    doc = {
        "line_id": verdict.line_id,
        "label": verdict.label,
        "max_p": verdict.max_p,
        "prediction_set": {parser: [[tid, p] for tid, p in pairs]
                           for parser, pairs in verdict.prediction_set.items()},
    }
    if verdict.error is not None:
        doc["error"] = verdict.error
    return _ALARM_JSON.encode(doc)


_ALARM_HEAD = '{"label":"anomaly","line_id":'


def write_alarms(fh, records, verdicts: list[Verdict]) -> int:
    """Write ``render_alarm_line`` of each anomaly verdict, one per line, and
    return how many were written.

    ``verdicts`` must be ``detect_batch``'s output for ``records``, so that
    records with equal tokens share all of a verdict but its ``line_id``.
    Each such sequence is rendered once; its lines are that text with their
    own id spliced in. This keeps the bytes: with sorted keys a line without
    an error starts with ``_ALARM_HEAD`` and then the id, which ``json.dumps``
    writes as ``str(int)``. Error verdicts are never shared and are rendered
    one by one.
    """
    tails: dict[tuple[str, ...], str] = {}
    alarms = 0
    for rec, v in zip(records, verdicts, strict=True):
        if v.label != ANOMALY:
            continue
        alarms += 1
        if v.error is not None:
            fh.write(render_alarm_line(v) + "\n")
            continue
        tail = tails.get(rec.tokens)
        if tail is None:
            line = render_alarm_line(v)
            tail = line[len(_ALARM_HEAD) + len(str(v.line_id)):] + "\n"
            tails[rec.tokens] = tail
        fh.write(_ALARM_HEAD + str(v.line_id) + tail)
    return alarms
