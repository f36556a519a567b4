"""The benchmark's tracer still finds and counts the layers it wraps.

``perfbench/tracing.py`` replaces layer functions by module attribute. A
renamed function, or a scoring path that stops calling ``edit_script``
through ``nonconformity``, would make its edit-distance counters read 0
without notice; these tests turn that into a failure.
"""

import importlib
from pathlib import Path

import pytest

from logconformal import cli, conformal, detector, evalharness, nonconformity, parsers
from logconformal.detector import DetectorConfig
from logconformal.ingest import compile_schema

from conftest import graded_models, make_record

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED_MODULES = (cli, conformal, detector, evalharness, nonconformity, parsers)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _attributes():
    return [dict(vars(module)) for module in PATCHED_MODULES]


def test_every_patch_resolves_and_is_restored(tracing):
    before = _attributes()
    edit_script, calibrate = nonconformity.edit_script, conformal.calibrate
    # instrument() looks up every attribute it wraps on entry, so a missing
    # name raises AttributeError here
    with tracing.instrument(tracing.Tracer()):
        assert nonconformity.edit_script is not edit_script
        assert conformal.calibrate is not calibrate
    assert _attributes() == before


def test_dp_runs_are_counted(tracing):
    tr = tracing.Tracer()
    ts = graded_models()[0].template_set
    with tracing.instrument(tr):
        conformal.calibrate(ts, [make_record(1, ["no", "template", "fits"])])
        assert tr.dp[("", "calibrate")][0] > 0
        # drain T1 has a general reservoir, so its p-value needs the score
        detector.detect_batch(graded_models(), [make_record(2, ["pump", "ok"])],
                              DetectorConfig())
        assert tr.dp[("", "detect")][0] > 0


def test_detect_renders_through_the_traced_attribute(tracing, tmp_path):
    # detect renders one line per distinct alarmed decision and splices the
    # rest; that render must still reach the tracer's detector.render.
    # "totally unrelated" alarms at max_p 0.0 and "pump ok" at 0.25.
    bundle, log, out = tmp_path / "m.bundle", tmp_path / "in.log", tmp_path / "a.jsonl"
    conformal.save_bundle(graded_models(), compile_schema("<Content>"), bundle)
    log.write_text("totally unrelated\npump ok 1\ntotally unrelated\n"
                   "pump ok\ntotally unrelated\n", encoding="utf-8")
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        code, _, err = tracing._run_stage(
            tr, "detect", ["detect", "--model", str(bundle), "--input", str(log),
                           "--epsilon", "0.3", "--out", str(out)])
    assert code == 0, err
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4
    calls = sum(n for (_, name), (_, n) in tr.aggregates.items()
                if name == "detector.render")
    assert calls == 2
    assert tr.aggregate_time("detect", "detector.render") > 0
