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


def dp_nearest(ts: TemplateSet, record) -> tuple[str, float]:
    """Reference nearest template: the full-DP argmin of ``weighted_score``
    over every template, ties to the smaller id compared as a string."""
    if not ts.templates:
        raise EmptyTemplateSet(f"{ts.parser_name} has no templates")
    score, template_id = min((weighted_score(t.tokens, record.tokens), t.template_id)
                             for t in ts.templates)
    return template_id, score


def graded_models() -> list[CalibrationModel]:
    """Two hand-built models whose reservoirs give p-values strictly between
    0 and 1 as well as 0 and 1: general, all-zero and empty reservoirs."""
    specs = {
        "drain": [("T1", ("pump", "ok", WILDCARD), [0.0, 0.0, 0.4, 0.9]),
                  ("T2", ("valve", "shut"), [0.0, 0.6]),
                  ("T3", ("alarm", WILDCARD), [])],
        "spell": [("T1", ("pump", WILDCARD, WILDCARD), [0.1, 0.2, 0.3]),
                  ("T2", ("valve", WILDCARD), [0.0, 0.0, 0.0])],
    }
    models = []
    for name, templates in specs.items():
        ts = TemplateSet(parser_name=name, parser_params={})
        for tid, tokens, _ in templates:
            ts.templates.append(EventTemplate(template_id=tid, tokens=tokens))
        calib = {tid: scores for tid, _, scores in templates}
        models.append(CalibrationModel(parser_name=name, template_set=ts,
                                       calib=calib,
                                       total_count=sum(map(len, calib.values()))))
    return models


@pytest.fixture
def record_factory():
    return make_record
