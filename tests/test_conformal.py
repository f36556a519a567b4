import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconformal import nonconformity
from logconformal.cli import main
from logconformal.conformal import (CalibrationModel, bundle_to_bytes,
                                    calibrate, load_bundle, pvalue,
                                    pvalues_for, save_bundle)
from logconformal.errors import (BundleError, EmptyCorpus, EmptyTemplateSet,
                                 UnknownTemplate)
from logconformal.ingest import compile_schema
from logconformal.nonconformity import weighted_score
from logconformal.parsers import fit, match_record
from logconformal.templates import WILDCARD, EventTemplate, TemplateSet

from conftest import dp_nearest, make_record


def _two_template_set():
    ts = TemplateSet(parser_name="drain", parser_params={})
    ts.templates.append(EventTemplate(template_id="T1", tokens=("a", "b", "c")))
    ts.templates.append(EventTemplate(template_id="T2", tokens=("a", "b")))
    return ts


def _model(calib, parser_name="drain"):
    ts = TemplateSet(parser_name=parser_name, parser_params={})
    for tid in calib:
        ts.templates.append(EventTemplate(template_id=tid, tokens=("x",)))
    return CalibrationModel(parser_name=parser_name, template_set=ts,
                            calib={tid: sorted(v) for tid, v in calib.items()},
                            total_count=sum(len(v) for v in calib.values()))


class TestCalibrate:
    def test_exact_matches_give_zero_scores(self):
        ts = _two_template_set()
        training = [make_record(1, ["a", "b", "c"]), make_record(2, ["a", "b"]),
                    make_record(3, ["a", "b", "c"])]
        model = calibrate(ts, training)
        assert model.calib["T1"] == [0.0, 0.0]
        assert model.calib["T2"] == [0.0]
        assert model.total_count == 3

    def test_hand_scored_lists(self):
        ts = _two_template_set()
        training = [make_record(1, ["a", "b", "c"]),   # T1, 0
                    make_record(2, ["a", "x", "c"]),   # T1, replace@2, v=3
                    make_record(3, ["a", "b"]),        # T2, 0
                    make_record(4, ["a", "b", "x"])]   # T2, insert@3, v=2.5
        model = calibrate(ts, training)
        assert model.calib["T1"] == pytest.approx([0.0, 0.7311], abs=1e-4)
        assert model.calib["T2"] == pytest.approx([0.0, 0.3775], abs=1e-4)

    def test_lists_sum_to_corpus_size(self):
        records = [make_record(i + 1, ["evt", str(i % 7), "done"])
                   for i in range(200)]
        ts = fit("drain", None, records)
        model = calibrate(ts, records)
        assert sum(len(v) for v in model.calib.values()) == 200
        assert all(s >= 0 for v in model.calib.values() for s in v)
        assert all(v == sorted(v) for v in model.calib.values())

    def test_empty_inputs(self):
        with pytest.raises(EmptyTemplateSet):
            calibrate(TemplateSet(parser_name="x", parser_params={}), [make_record(1, ["a"])])
        with pytest.raises(EmptyCorpus):
            calibrate(_two_template_set(), [])


class TestPValue:
    def test_alpha_below_min(self):
        model = _model({"T1": [0.1, 0.2, 0.3, 0.4]})
        assert pvalue(model, "T1", 0.05) == 1.0

    def test_alpha_mid(self):
        model = _model({"T1": [0.1, 0.2, 0.3, 0.4]})
        assert pvalue(model, "T1", 0.25) == 0.5

    def test_alpha_above_max(self):
        model = _model({"T1": [0.1, 0.2, 0.3, 0.4]})
        assert pvalue(model, "T1", 0.5) == 0.0

    def test_ties_count_as_qualifying(self):
        model = _model({"T1": [0.2, 0.2, 0.4, 0.6]})
        assert pvalue(model, "T1", 0.2) == 1.0
        assert pvalue(model, "T1", 0.4) == 0.5

    def test_empty_class_is_zero(self):
        model = _model({"T1": []})
        assert pvalue(model, "T1", 0.0) == 0.0

    def test_unknown_template(self):
        model = _model({"T1": [0.1]})
        with pytest.raises(UnknownTemplate):
            pvalue(model, "T9", 0.1)

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    min_size=1, max_size=40),
           st.floats(min_value=0, max_value=10, allow_nan=False),
           st.floats(min_value=0, max_value=10, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_quantized(self, scores, a1, a2):
        model = _model({"T1": scores})
        lo, hi = sorted((a1, a2))
        p_lo, p_hi = pvalue(model, "T1", lo), pvalue(model, "T1", hi)
        assert p_lo >= p_hi
        for p in (p_lo, p_hi):
            assert 0.0 <= p <= 1.0
            assert math.isclose(p * len(scores), round(p * len(scores)))

    def test_permutation_invariance(self):
        scores = [0.3, 0.0, 0.9, 0.3, 0.1]
        rng = random.Random(3)
        reference = None
        for _ in range(5):
            rng.shuffle(scores)
            model = _model({"T1": list(scores)})
            got = [pvalue(model, "T1", a) for a in (0.0, 0.1, 0.3, 0.5, 1.0)]
            reference = reference or got
            assert got == reference


class TestPValuesFor:
    def test_minimum_score_gets_full_pvalue(self):
        ts = TemplateSet(parser_name="drain", parser_params={})
        ts.templates.append(EventTemplate(template_id="T1", tokens=("a", "b")))
        model = CalibrationModel(parser_name="drain", template_set=ts,
                                 calib={"T1": [0.0, 0.0, 0.5]}, total_count=3)
        pset = pvalues_for(model, make_record(1, ["a", "b"]))
        assert pset.pvalues["T1"] == 1.0

    def test_template_missing_from_calibration(self):
        ts = _two_template_set()
        model = CalibrationModel(parser_name="drain", template_set=ts,
                                 calib={"T1": [0.0]}, total_count=1)
        with pytest.raises(UnknownTemplate):
            pvalues_for(model, make_record(1, ["a", "b"]))

    def test_covers_every_template(self):
        records = [make_record(i + 1, row) for i, row in enumerate(
            [["open", "x"], ["open", "y"], ["shut", "x"], ["shut", "y"]])]
        ts = fit("spell", None, records)
        model = calibrate(ts, records)
        pset = pvalues_for(model, make_record(9, ["open", "z"]))
        assert set(pset.pvalues) == {t.template_id for t in ts.templates}
        assert all(0.0 <= p <= 1.0 for p in pset.pvalues.values())


_RESERVOIRS = st.one_of(
    st.just([]),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0, max_value=3), min_size=1, max_size=6))
_TEMPLATES = st.lists(
    st.tuples(st.sampled_from(["T1", "T2", "T3", "T10", "T11"]),
              st.lists(st.sampled_from(["a", "b", WILDCARD]), max_size=4),
              _RESERVOIRS),
    min_size=1, max_size=5, unique_by=lambda t: t[0])
_RECORD = st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), max_size=6)
_TIED = [("T2", ["a", WILDCARD], [0.0]), ("T10", ["a", "b"], [0.0]),
         ("T3", ["a"], [0.0, 0.4])]


def _dp_model(templates):
    ts = TemplateSet(parser_name="drain", parser_params={})
    for tid, tokens, _ in templates:
        ts.templates.append(EventTemplate(template_id=tid, tokens=tuple(tokens)))
    calib = {tid: sorted(scores) for tid, _, scores in templates}
    return CalibrationModel(parser_name="drain", template_set=ts, calib=calib,
                            total_count=sum(map(len, calib.values())))


class TestPruningMatchesDP:
    """The p-values, calibration hits and nearest templates that skip the
    edit-distance DP equal the ones the DP gives, for every reservoir class."""

    @given(_TEMPLATES, _RECORD)
    @example(_TIED, ["a", "b"])
    @settings(max_examples=300, deadline=None)
    def test_pvalues_for(self, templates, tokens):
        model = _dp_model(templates)
        rec = make_record(1, tokens)
        expected = {t.template_id: pvalue(model, t.template_id,
                                          weighted_score(t.tokens, rec.tokens))
                    for t in model.template_set.templates}
        assert pvalues_for(model, rec).pvalues == expected

    @given(_TEMPLATES.flatmap(lambda ts: st.tuples(
        st.just(ts), st.integers(min_value=1, max_value=len(ts)))), _RECORD)
    @settings(max_examples=200, deadline=None)
    def test_appended_templates_are_seen(self, split, tokens):
        """The length index and the reservoir classes a first call builds
        take in the templates appended after it (none when ``first`` is the
        whole list), and the p-values stay keyed in fit order."""
        templates, first = split
        model = _dp_model(templates[:first])
        ts, rec = model.template_set, make_record(1, tokens)
        pvalues_for(model, rec)
        nonconformity.nearest(ts, rec.tokens)
        for tid, tmpl_tokens, scores in templates[first:]:
            ts.templates.append(EventTemplate(template_id=tid, tokens=tuple(tmpl_tokens)))
            model.calib[tid] = sorted(scores)
        got = pvalues_for(model, rec).pvalues
        expected = {t.template_id: pvalue(model, t.template_id,
                                          weighted_score(t.tokens, rec.tokens))
                    for t in ts.templates}
        assert got == expected
        assert list(got) == list(expected)
        assert nonconformity.nearest(ts, rec.tokens) == dp_nearest(ts, rec)

    @given(_TEMPLATES, _RECORD)
    @example(_TIED, ["a", "b"])
    @settings(max_examples=100, deadline=None)
    def test_matches_sees_only_templates_of_the_records_length(self, templates, tokens):
        calls = []
        matches = EventTemplate.matches

        def counted(self, tokens):
            calls.append((len(self.tokens), len(tokens)))
            return matches(self, tokens)
        model = _dp_model(templates)
        ts, rec = model.template_set, make_record(1, tokens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(EventTemplate, "matches", counted)
            pvalues_for(model, rec)
            calibrate(ts, [rec])
            match_record(ts, rec)
        assert all(m == n for m, n in calls)
        if any(len(t.tokens) == len(tokens) for t in ts.templates):
            assert calls

    @given(_TEMPLATES, _RECORD)
    @example(_TIED, ["a", "b"])
    @settings(max_examples=300, deadline=None)
    def test_calibrate(self, templates, tokens):
        ts = _dp_model(templates).template_set
        rec = make_record(1, tokens)
        argmin, min_score = dp_nearest(ts, rec)
        calib = calibrate(ts, [rec]).calib
        assert calib == {t.template_id: [min_score] if t.template_id == argmin
                         else [] for t in ts.templates}
        assert match_record(ts, rec) == argmin

    def test_tied_matches_go_to_smallest_id_as_string(self):
        ts = _dp_model(_TIED).template_set
        assert calibrate(ts, [make_record(1, ["a", "b"])]).calib["T10"] == [0.0]

    def test_long_record_needs_no_dp(self, monkeypatch):
        runs = []
        edit_script = nonconformity.edit_script

        def counted(a, b):
            runs.append(len(b))
            return edit_script(a, b)
        monkeypatch.setattr(nonconformity, "edit_script", counted)
        model = _dp_model([("T1", ["a"], [0.0]), ("T2", ["a", "b"], [])])
        rec = make_record(1, ["a"] + ["b"] * 1400)
        assert pvalues_for(model, rec).pvalues == {"T1": 0.0, "T2": 0.0}
        assert runs == []  # T1's all-zero reservoir: the match decides
        argmin, min_score = dp_nearest(model.template_set, rec)
        runs.clear()
        assert calibrate(model.template_set, [rec]).calib[argmin] == [min_score]
        assert runs == [1401, 1401]  # nothing matches, so every template is scored

    def test_long_match_needs_no_dp(self, monkeypatch):
        runs = []
        edit_script = nonconformity.edit_script

        def counted(a, b):
            runs.append(len(b))
            return edit_script(a, b)
        monkeypatch.setattr(nonconformity, "edit_script", counted)
        ts = _dp_model([("T1", ["start"], []),
                        ("T2", ["dump"] + [WILDCARD] * 1499, [])]).template_set
        rec = make_record(1, ["dump"] + [str(i) for i in range(1499)])
        assert calibrate(ts, [rec]).calib == {"T1": [], "T2": [0.0]}
        assert match_record(ts, rec) == "T2"
        assert runs == []


_FLOOR = 1 / (1 + math.e ** 0.5)  # least weight of an edit at x - v <= 0.5
_SHORT = st.lists(st.sampled_from(["a", "b", WILDCARD]), max_size=4)


@given(_SHORT, st.lists(st.sampled_from(["a", "b", "c"]), max_size=6),
       st.integers(min_value=0, max_value=3000), st.sampled_from(["a", "b", "c"]))
@example(["a"], ["a"], 1400, "b")
@example(["a", WILDCARD], ["a", "c"], 0, "b")
@example(["a", "b", "b", "b"], [], 0, "a")
@settings(max_examples=200, deadline=None)
def test_zero_score_is_exactly_a_positional_match(template, head, gap, filler):
    """At the default center a score is 0 iff the template matches, and any
    other score is at least 1 / (1 + e**0.5), at every length gap."""
    record = head + [filler] * gap
    score = weighted_score(template, record)
    assert (score == 0.0) == EventTemplate("T1", tuple(template)).matches(record)
    assert score == 0.0 or score >= _FLOOR


def _largest(model_doc):
    return max(model_doc["calibration"].values(), key=len)


def _corrupt(doc, how):
    """Make a bundle document inconsistent, in place."""
    model_doc = doc["models"][1]
    calib = model_doc["calibration"]
    if how == "missing key":
        del calib[model_doc["templates"][0][0]]
    elif how == "extra key":
        calib["T999"] = []
    elif how == "unsorted":
        _largest(model_doc)[0] = 0.5
    elif how == "negative":
        _largest(model_doc)[0] = -0.5
    elif how == "infinite":
        _largest(model_doc)[-1] = math.inf
    elif how == "nan":
        _largest(model_doc)[-1] = math.nan
    elif how == "miscounted":
        model_doc["total_count"] += 1
    elif how == "not a dict":
        model_doc["calibration"] = []
    elif how == "no format":
        del doc["schema"]["format_template"]
    elif how == "bad format":
        doc["schema"]["format_template"] = "<Sys-Id> <Content>"
    elif how == "bad mask rule":
        doc["schema"]["mask_rules"] = [["(unclosed", "<*>"]]
    elif how == "no models":
        doc["models"] = []
    elif how == "unknown parser":
        model_doc["parser_name"] = "nope"
    elif how == "bad param type":
        doc["models"][0]["parser_params"] = {"depth": "x"}
    elif how == "params not an object":
        model_doc["parser_params"] = "x"
    elif how == "repeated parser":
        doc["models"][1] = doc["models"][0]
    elif how == "string tokens":
        model_doc["templates"][0][1] = " ".join(model_doc["templates"][0][1])
    elif how == "string support":
        model_doc["templates"][0][2] = "x"
    elif how == "no templates":
        model_doc["templates"], model_doc["calibration"] = [], {}
        model_doc["total_count"] = 0
    elif how == "version true":
        doc["bundle_version"] = True
    elif how == "version float":
        doc["bundle_version"] = 1.0
    elif how == "float total_count":
        model_doc["total_count"] = float(model_doc["total_count"])
    elif how == "bool score":  # sorts, is finite and non-negative, but no number
        scores = _largest(model_doc)
        scores[:] = [False] * (len(scores) - 1) + [True]
    elif how == "string mask rule":
        doc["schema"]["mask_rules"] = ["ab"]
    elif how in ("string reservoir", "object reservoir"):  # sizes still sum
        tid = model_doc["templates"][0][0]
        model_doc["total_count"] -= len(calib[tid])
        calib[tid] = "" if how == "string reservoir" else {}


class TestBundle:
    def _models(self):
        records = [make_record(i + 1, ["evt", str(i % 3), "ok"]) for i in range(30)]
        models = []
        for name in ("drain", "spell"):
            ts = fit(name, None, records)
            models.append(calibrate(ts, records))
        return models

    def test_round_trip_bit_exact(self, tmp_path):
        models = self._models()
        fmt, rules = "<Content>", [("\\d+", "<*>")]
        path = tmp_path / "m.bundle"
        save_bundle(models, compile_schema(fmt, rules), path)
        loaded, loaded_schema = load_bundle(path)
        assert json.loads(path.read_bytes())["schema"] == {
            "format_template": fmt, "mask_rules": [list(r) for r in rules]}
        assert bundle_to_bytes(loaded, loaded_schema) == path.read_bytes()
        assert [m.calib for m in loaded] == [m.calib for m in models]

    def test_templates_keep_their_order(self, tmp_path):
        ts = TemplateSet(parser_name="drain", parser_params={})
        for tid in ("T10", "T2"):
            ts.templates.append(EventTemplate(template_id=tid, tokens=(tid,)))
        model = CalibrationModel(parser_name="drain", template_set=ts,
                                 calib={"T10": [0.0], "T2": [0.0, 1.0]}, total_count=3)
        data = bundle_to_bytes([model], compile_schema("<Content>"))
        stored = json.loads(data)["models"][0]["templates"]
        assert [tid for tid, _, _ in stored] == ["T10", "T2"]
        path = tmp_path / "m.bundle"
        path.write_bytes(data)
        loaded, loaded_schema = load_bundle(path)
        assert [t.template_id for t in loaded[0].template_set.templates] == ["T10", "T2"]
        assert bundle_to_bytes(loaded, loaded_schema) == data

    def test_save_is_deterministic(self, tmp_path):
        models = self._models()
        schema = compile_schema("<Content>")
        p1, p2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
        save_bundle(models, schema, p1)
        save_bundle(models, schema, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_bundle_rejected(self, tmp_path):
        path = tmp_path / "bad.bundle"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BundleError):
            load_bundle(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.bundle"
        path.write_text('{"bundle_version": 99, "models": [], "schema": {}}',
                        encoding="utf-8")
        with pytest.raises(BundleError):
            load_bundle(path)

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(BundleError):
            load_bundle(tmp_path / "absent.bundle")

    @pytest.mark.parametrize("how", ["missing key", "extra key", "unsorted",
                                     "negative", "infinite", "nan",
                                     "miscounted", "not a dict", "no format",
                                     "bad format", "bad mask rule",
                                     "no models", "unknown parser",
                                     "bad param type", "params not an object",
                                     "repeated parser", "string tokens",
                                     "string support", "no templates",
                                     "version true", "version float",
                                     "float total_count", "bool score",
                                     "string mask rule", "string reservoir",
                                     "object reservoir"])
    def test_inconsistent_bundle_rejected(self, tmp_path, how):
        models = self._models()
        doc = json.loads(bundle_to_bytes(models, compile_schema("<Content>")))
        _corrupt(doc, how)
        path = tmp_path / "bad.bundle"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(BundleError):
            load_bundle(path)
        log = tmp_path / "in.log"
        log.write_text("evt 1 ok\n", encoding="utf-8")
        assert main(["detect", "--model", str(path), "--input", str(log),
                     "--out", str(tmp_path / "alarms.jsonl")]) == 4

    def test_signed_zero_reservoir_loads(self, tmp_path, monkeypatch):
        models = self._models()
        doc = json.loads(bundle_to_bytes(models, compile_schema("<Content>")))
        _largest(doc["models"][0])[0] = -0.0
        path = tmp_path / "zero.bundle"
        path.write_text(json.dumps(doc), encoding="utf-8")
        model = load_bundle(path)[0][0]
        rec = make_record(1, ["evt", "1", "ok"])
        assert any(t.matches(rec.tokens) for t in model.template_set.templates)
        runs = []
        edit_script = nonconformity.edit_script

        def counted(a, b):
            runs.append(len(b))
            return edit_script(a, b)
        monkeypatch.setattr(nonconformity, "edit_script", counted)
        got = pvalues_for(model, rec).pvalues
        assert runs == []
        assert got == {t.template_id: pvalue(model, t.template_id,
                                             weighted_score(t.tokens, rec.tokens))
                       for t in model.template_set.templates}
