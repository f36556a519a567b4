from __future__ import annotations

import pytest

from logconformal.conformal import CalibrationModel
from logconformal.errors import EmptyTemplateSet
from logconformal.ingest import LogRecord
from logconformal.nonconformity import weighted_score
from logconformal.templates import WILDCARD, EventTemplate, TemplateSet


def make_record(line_id: int, tokens) -> LogRecord:
    return LogRecord(line_id=line_id, headers={}, content=" ".join(tokens),
                     tokens=tuple(tokens))


def template_set(templates, parser_name: str = "drain") -> TemplateSet:
    """A set built whole from ``(template_id, tokens)`` pairs, in their order."""
    return TemplateSet(parser_name=parser_name, parser_params={},
                       templates=tuple(EventTemplate(template_id=tid, tokens=tuple(tokens))
                                       for tid, tokens in templates))


def dp_nearest(ts: TemplateSet, record) -> tuple[str, float]:
    """Reference nearest template: the full-DP argmin of ``weighted_score``
    over every template, ties to the smaller id compared as a string."""
    if not ts.templates:
        raise EmptyTemplateSet(f"{ts.parser_name} has no templates")
    score, template_id = min((weighted_score(t.tokens, record.tokens), t.template_id)
                             for t in ts.templates)
    return template_id, score


def graded_models() -> list[CalibrationModel]:
    """Two hand-built models with general, all-zero and empty reservoirs.
    Drain's give p-values strictly between 0 and 1 (0.25 and 0.5) as well as
    0 and 1. Spell's give only 0 and 1: against its ``T1`` template
    ``pump <*> <*>`` a matching line scores 0, and every other line tried
    scores 0.8176 or more, above the whole reservoir."""
    specs = {
        "drain": [("T1", ("pump", "ok", WILDCARD), [0.0, 0.0, 0.4, 0.9]),
                  ("T2", ("valve", "shut"), [0.0, 0.6]),
                  ("T3", ("alarm", WILDCARD), [])],
        "spell": [("T1", ("pump", WILDCARD, WILDCARD), [0.1, 0.2, 0.3]),
                  ("T2", ("valve", WILDCARD), [0.0, 0.0, 0.0])],
    }
    models = []
    for name, templates in specs.items():
        ts = template_set([(tid, tokens) for tid, tokens, _ in templates], name)
        models.append(CalibrationModel(template_set=ts, calib={
            tid: scores for tid, _, scores in templates}))
    return models


@pytest.fixture
def record_factory():
    return make_record
