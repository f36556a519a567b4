import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconformal import detector
from logconformal.conformal import PValueSet, calibrate
from logconformal.detector import (ANOMALY, NORMAL, DetectorConfig, Verdict,
                                   decide, detect_batch, pvalue_sets_for,
                                   render_alarm_line)
from logconformal.errors import NoParsers
from logconformal.parsers import fit
from logconformal.templates import WILDCARD

from conftest import graded_models, make_record


def _pset(name, pvalues):
    return PValueSet(parser_name=name, pvalues=dict(pvalues))


@st.composite
def _decisions(draw):
    """(parser name, p-value map) pairs and an epsilon; a p-value may equal
    epsilon, and a map may be empty."""
    eps = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                         st.floats(min_value=0.0, max_value=1.0)))
    pvalue = st.one_of(st.just(eps), st.sampled_from([0.0, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0))
    names = draw(st.lists(st.sampled_from(["drain", "spell", "iplom"]),
                          min_size=1, max_size=3, unique=True))
    return [(name, draw(st.dictionaries(st.sampled_from(["T1", "T2", "T10"]),
                                        pvalue, max_size=3)))
            for name in names], eps


def _filter_every_parser(psets, eps):
    """Reference decision: every parser's p-values filtered at epsilon."""
    prediction = {ps.parser_name: [(tid, p) for tid, p in ps.pvalues.items() if p >= eps]
                  for ps in psets}
    max_p = max(max(ps.pvalues.values(), default=0.0) for ps in psets)
    return prediction, max_p, ANOMALY if max_p < eps else NORMAL


class TestDecide:
    def test_all_low_pvalues_alarm(self):
        psets = [_pset(n, {"T1": 0.05, "T2": 0.19}) for n in
                 ("drain", "spell", "iplom", "logcluster")]
        v = decide(psets, DetectorConfig(epsilon=0.27))
        assert v.label == ANOMALY
        assert all(not pairs for pairs in v.prediction_set.values())
        assert v.max_p == 0.19

    def test_one_survivor_means_normal(self):
        psets = [_pset("drain", {"T1": 0.97, "T2": 0.01}),
                 _pset("spell", {"T1": 0.02})]
        v = decide(psets, DetectorConfig(epsilon=0.27))
        assert v.label == NORMAL
        assert v.prediction_set["drain"] == [("T1", 0.97)]
        assert v.prediction_set["spell"] == []
        assert v.max_p == 0.97

    def test_epsilon_zero_never_alarms(self):
        psets = [_pset("drain", {"T1": 0.0})]
        v = decide(psets, DetectorConfig(epsilon=0.0))
        assert v.label == NORMAL  # p == epsilon survives the filter

    def test_boundary_pvalue_survives(self):
        psets = [_pset("drain", {"T1": 0.27})]
        v = decide(psets, DetectorConfig(epsilon=0.27))
        assert v.label == NORMAL
        assert v.prediction_set["drain"] == [("T1", 0.27)]

    def test_surviving_pairs_all_reach_epsilon(self):
        psets = [_pset("drain", {"T1": 0.5, "T2": 0.3, "T3": 0.1})]
        v = decide(psets, DetectorConfig(epsilon=0.3))
        assert v.prediction_set["drain"] == [("T1", 0.5), ("T2", 0.3)]

    def test_pairs_follow_template_order(self):
        # pvalues_for fills each set in the model's template order, T10 first here
        psets = [_pset("drain", {"T10": 0.5, "T2": 0.9, "T1": 0.1, "T3": 0.3})]
        v = decide(psets, DetectorConfig(epsilon=0.3))
        assert v.prediction_set["drain"] == [("T10", 0.5), ("T2", 0.9), ("T3", 0.3)]

    def test_no_parsers_rejected(self):
        with pytest.raises(NoParsers):
            decide([], DetectorConfig(epsilon=0.5))

    def test_monotone_in_epsilon(self):
        psets = [_pset("drain", {"T1": 0.31, "T2": 0.55}),
                 _pset("spell", {"T1": 0.12})]
        labels = [decide(psets, DetectorConfig(epsilon=e)).label
                  for e in (0.0, 0.1, 0.31, 0.32, 0.55, 0.56, 1.0)]
        # once anomalous, stays anomalous as epsilon grows
        flips = [(a, b) for a, b in zip(labels, labels[1:])
                 if a == ANOMALY and b == NORMAL]
        assert not flips

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            DetectorConfig(epsilon=1.5)

    @given(st.lists(st.dictionaries(st.sampled_from(["T1", "T2", "T3"]),
                                    st.sampled_from([0.0, 0.1, 0.27, 0.5, 1.0]),
                                    max_size=3), min_size=1, max_size=4),
           st.sampled_from([0.0, 0.1, 0.27, 0.4, 1.0]))
    @example([{}], 0.0)
    @settings(max_examples=200, deadline=None)
    def test_alarm_iff_every_max_p_is_below_epsilon(self, pvalue_maps, eps):
        """The sweep's rule: empty sets count as max_p 0, so epsilon 0 never
        alarms, even a parser without templates."""
        psets = [_pset(f"p{i}", pv) for i, pv in enumerate(pvalue_maps)]
        v = decide(psets, DetectorConfig(epsilon=eps))
        assert (v.label == ANOMALY) == all(ps.max_p() < eps for ps in psets)

    @given(_decisions())
    @example(([("drain", {})], 0.0))
    @example(([("drain", {}), ("spell", {"T1": 0.0})], 1.0))
    @example(([("drain", {"T1": 1.0, "T2": 0.5})], 1.0))
    @example(([("drain", {"T1": 0.1, "T2": 0.27}), ("spell", {})], 0.27))
    @settings(max_examples=300, deadline=None)
    def test_equals_filtering_every_parser(self, case):
        """decide skips the filter of a parser whose largest p-value is below
        epsilon; the result equals filtering every parser."""
        maps, eps = case
        psets = [_pset(name, pvalues) for name, pvalues in maps]
        v = decide(psets, DetectorConfig(epsilon=eps))
        assert (v.prediction_set, v.max_p, v.label) == _filter_every_parser(psets, eps)
        assert v.error is None


def _trained_models():
    rows = [["pump", "ok", str(i % 4)] for i in range(40)] + \
           [["valve", "shut"] for _ in range(20)]
    records = [make_record(i + 1, r) for i, r in enumerate(rows)]
    models = []
    for name in ("drain", "spell"):
        ts = fit(name, None, records)
        models.append(calibrate(ts, records))
    return models


class TestDetectBatch:

    def test_empty_records(self):
        assert detect_batch(_trained_models(), [], DetectorConfig(epsilon=0.27)) == []

    def test_order_preserved_and_counts(self):
        models = _trained_models()
        rows = [["pump", "ok", "0"], ["totally", "unrelated", "noise", "here"],
                ["valve", "shut"], ["pump", "ok", "9"], ["alarm"]]
        batch = [make_record(100 + i, r) for i, r in enumerate(rows)]
        cfg = DetectorConfig(epsilon=0.27)
        verdicts = detect_batch(models, batch, cfg)
        assert verdicts == [detect_batch(models, [r], cfg)[0] for r in batch]
        assert [v.label for v in verdicts] == [NORMAL, ANOMALY, NORMAL,
                                               NORMAL, ANOMALY]

    def test_known_record_is_normal(self):
        models = _trained_models()
        verdicts = detect_batch(models, [make_record(777, ["valve", "shut"])],
                                DetectorConfig(epsilon=0.4))
        assert verdicts[0].label == NORMAL
        assert verdicts[0].max_p == 1.0

    def test_alien_record_alarms(self):
        models = _trained_models()
        verdicts = detect_batch(models,
                                [make_record(778, ["totally", "unrelated", "noise", "here"])],
                                DetectorConfig(epsilon=0.27))
        assert verdicts[0].label == ANOMALY

    def test_no_models_rejected(self):
        with pytest.raises(NoParsers):
            detect_batch([], [make_record(1, ["a"])], DetectorConfig(epsilon=0.1))

    def test_per_record_error_channel(self, monkeypatch):
        models = _trained_models()

        def boom(model, record):
            raise RuntimeError("scoring exploded")

        monkeypatch.setattr("logconformal.detector.pvalues_for", boom)
        verdicts = detect_batch(models, [make_record(9, ["pump", "ok", "1"])],
                                DetectorConfig(epsilon=0.27))
        assert verdicts[0].error == "scoring exploded"
        assert verdicts[0].label == ANOMALY  # fail closed

    def test_shared_verdict_rejects_assignment(self):
        """Records with equal tokens share one verdict, so no caller may
        change it."""
        batch = [make_record(i, ["pump", "ok", "1"]) for i in (1, 2)]
        first, second = detect_batch(_trained_models(), batch, DetectorConfig(epsilon=0.27))
        assert first is second
        for field in ("label", "prediction_set", "max_p", "error"):
            with pytest.raises(AttributeError):
                setattr(first, field, None)


_TOKENS = st.lists(st.sampled_from(["pump", "ok", "valve", "shut", "alarm",
                                    "x", WILDCARD]),
                   min_size=1, max_size=4).map(tuple)


def _reference(models, batch, cfg):
    """The per-line definition: score and decide every record on its own."""
    return [decide(pvalue_sets_for(models, r), cfg) for r in batch]


class TestDetectBatchPerSequence:
    """detect_batch decides once per distinct token sequence; its verdicts
    must equal deciding every line on its own."""

    @given(st.lists(_TOKENS, min_size=1, max_size=5),
           st.lists(st.integers(min_value=0, max_value=4), max_size=30),
           st.sampled_from([0.0, 0.1, 0.27, 0.5, 0.75, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_line_reference(self, pool, picks, eps):
        models = graded_models()
        batch = [make_record(100 + i, pool[k % len(pool)])
                 for i, k in enumerate(picks)]
        cfg = DetectorConfig(epsilon=eps)
        assert detect_batch(models, batch, cfg) == _reference(models, batch, cfg)

    def test_trained_models_equal_reference(self):
        models = _trained_models()
        rows = [["pump", "ok", "1"], ["valve", "shut"], ["pump", "ok", "1"],
                ["totally", "unrelated"], ["valve", "shut"], ["pump", "ok", "9"],
                ["totally", "unrelated"], ["pump", "ok", "1"]]
        batch = [make_record(50 + i, r) for i, r in enumerate(rows)]
        for eps in (0.0, 0.27, 1.0):
            cfg = DetectorConfig(epsilon=eps)
            assert detect_batch(models, batch, cfg) == \
                _reference(models, batch, cfg)

    def test_error_on_one_sequence_is_not_cached(self, monkeypatch):
        models = graded_models()
        bad = ("valve", "shut")
        calls = Counter()

        def flaky(models, record):
            calls[record.tokens] += 1
            if record.tokens == bad:
                raise RuntimeError("scoring exploded")
            return pvalue_sets_for(models, record)

        monkeypatch.setattr(detector, "pvalue_sets_for", flaky)
        rows = [bad, ("pump", "ok", "1"), bad, ("alarm", "x"),
                ("pump", "ok", "1"), bad]
        batch = [make_record(10 + i, r) for i, r in enumerate(rows)]
        cfg = DetectorConfig(epsilon=0.27)
        verdicts = detect_batch(models, batch, cfg)
        for rec, verdict in zip(batch, verdicts):
            if rec.tokens == bad:
                assert verdict == Verdict(label=ANOMALY, prediction_set={},
                                          max_p=0.0, error="scoring exploded")
            else:
                assert verdict == decide(pvalue_sets_for(models, rec), cfg)
        assert calls == {bad: 3, ("pump", "ok", "1"): 1, ("alarm", "x"): 1}

    def test_equal_tokens_share_one_verdict_object(self, monkeypatch):
        models = graded_models()
        bad = ("valve", "shut")

        def flaky(models, record):
            if record.tokens == bad:
                raise RuntimeError(f"scoring line {record.line_id} exploded")
            return pvalue_sets_for(models, record)

        monkeypatch.setattr(detector, "pvalue_sets_for", flaky)
        rows = [("pump", "ok", "1"), bad, ("alarm", "x"), ("pump", "ok", "1"),
                bad, ("alarm", "x"), ("pump", "ok", "1")]
        batch = [make_record(10 + i, r) for i, r in enumerate(rows)]
        verdicts = detect_batch(models, batch, DetectorConfig(epsilon=0.27))
        assert verdicts[0] is verdicts[3] is verdicts[6]
        assert verdicts[2] is verdicts[5]
        assert verdicts[0] is not verdicts[2]
        # an error verdict is built for its own record and never shared
        assert verdicts[1] is not verdicts[4]
        assert [verdicts[1].error, verdicts[4].error] == [
            "scoring line 11 exploded", "scoring line 14 exploded"]

    def test_patched_module_attributes_run_once_per_sequence(self, monkeypatch):
        # The benchmark's tracer counts calls by patching these attributes;
        # a batch that bypassed them would report zero calls without notice.
        calls = Counter()

        def counting(name):
            original = getattr(detector, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(detector, name, wrapper)

        counting("decide")
        counting("pvalue_sets_for")
        rows = [("pump", "ok", "1"), ("valve", "shut"), ("alarm", "x")] * 4
        batch = [make_record(i + 1, r) for i, r in enumerate(rows)]
        verdicts = detect_batch(graded_models(), batch, DetectorConfig(epsilon=0.3))
        assert len(verdicts) == 12
        assert calls == {"decide": 3, "pvalue_sets_for": 3}


class TestAlarmRendering:
    def test_stable_line_shape(self):
        v = Verdict(label=ANOMALY,
                    prediction_set={"drain": [], "spell": []}, max_p=0.05)
        doc = json.loads(render_alarm_line(12, v))
        assert doc == {"line_id": 12, "label": "anomaly", "max_p": 0.05,
                       "prediction_set": {"drain": [], "spell": []}}

    def test_deterministic_bytes(self):
        v = Verdict(label=NORMAL,
                    prediction_set={"b": [("T1", 1.0)], "a": [("T2", 0.5)]},
                    max_p=1.0)
        assert render_alarm_line(1, v) == render_alarm_line(1, v)
        assert render_alarm_line(1, v).index('"a"') < render_alarm_line(1, v).index('"b"')
