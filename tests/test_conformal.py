import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconformal import conformal, nonconformity
from logconformal.cli import main
from logconformal.conformal import (CalibrationModel, calibrate, load_bundle,
                                    pvalue, pvalues_for, save_bundle)
from logconformal.errors import (BundleError, EmptyCorpus, EmptyTemplateSet,
                                 UnknownTemplate)
from logconformal.ingest import compile_schema
from logconformal.nonconformity import weighted_score
from logconformal.parsers import PARSER_NAMES, fit, match_record
from logconformal.templates import WILDCARD, EventTemplate, TemplateSet

from conftest import dp_nearest, graded_models, make_record, template_set


def _two_template_set():
    return template_set([("T1", ("a", "b", "c")), ("T2", ("a", "b"))])


def _model(calib, parser_name="drain"):
    return CalibrationModel(template_set=template_set([(tid, ("x",)) for tid in calib],
                                                      parser_name),
                            calib={tid: sorted(v) for tid, v in calib.items()})


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


class TestBuiltWhole:
    """A set and a model are built by one constructor call and never change;
    what they derive comes from the facts they hold."""

    def _trained(self):
        records = [make_record(i + 1, ["evt", str(i % 3), "ok"]) for i in range(30)]
        ts = fit("drain", None, records)
        return ts, calibrate(ts, records)

    def test_derived_facts_equal_their_sources(self, tmp_path):
        ts, model = self._trained()
        path = tmp_path / "m.bundle"
        save_bundle([model], compile_schema("<Content>"), path)
        for m in [model, *load_bundle(path)[0], *graded_models()]:
            assert m.parser_name == m.template_set.parser_name
            assert m.total_count == sum(len(v) for v in m.calib.values())
        assert (model.parser_name, model.total_count) == ("drain", 30)

    def test_set_and_model_reject_mutation(self):
        ts, model = self._trained()
        assert isinstance(ts.templates, tuple)
        with pytest.raises(AttributeError):
            ts.templates = ()
        with pytest.raises(AttributeError):
            model.calib = {}
        assert list(CalibrationModel._fields) == ["template_set", "calib"]


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
        model = CalibrationModel(template_set=template_set([("T1", ("a", "b"))]),
                                 calib={"T1": [0.0, 0.0, 0.5]})
        pset = pvalues_for(model, make_record(1, ["a", "b"]))
        assert pset.pvalues["T1"] == 1.0

    def test_template_missing_from_calibration(self):
        ts = _two_template_set()
        model = CalibrationModel(template_set=ts, calib={"T1": [0.0]})
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
    return CalibrationModel(
        template_set=template_set([(tid, tokens) for tid, tokens, _ in templates]),
        calib={tid: sorted(scores) for tid, _, scores in templates})


class TestPruningMatchesDP:
    """The p-values, calibration hits and nearest templates that skip the
    edit-distance DP equal the ones the DP gives, for every reservoir class."""

    @given(_TEMPLATES, _RECORD)
    @example(_TIED, ["a", "b"])
    @settings(max_examples=300, deadline=None)
    def test_pvalues_for(self, templates, tokens):
        """The p-values are also keyed in fit order, and a second call, which
        reads the views the first one derived, gives the same."""
        model = _dp_model(templates)
        rec = make_record(1, tokens)
        expected = {t.template_id: pvalue(model, t.template_id,
                                          weighted_score(t.tokens, rec.tokens))
                    for t in model.template_set.templates}
        for _ in range(2):
            got = pvalues_for(model, rec).pvalues
            assert got == expected
            assert list(got) == list(expected)

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
    elif how in ("params not an object", "params empty list"):
        model_doc["parser_params"] = "x" if how == "params not an object" else []
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
    elif how == "huge int score":  # sorts and is non-negative, but no float holds it
        _largest(model_doc)[-1] = 10**400


def _saved_bytes(models, schema, path) -> bytes:
    save_bundle(models, schema, path)
    return path.read_bytes()


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
        assert _saved_bytes(loaded, loaded_schema, tmp_path / "again.bundle") \
            == path.read_bytes()
        assert [m.calib for m in loaded] == [m.calib for m in models]

    def test_templates_keep_their_order(self, tmp_path):
        ts = template_set([(tid, (tid,)) for tid in ("T10", "T2")])
        model = CalibrationModel(template_set=ts, calib={"T10": [0.0], "T2": [0.0, 1.0]})
        path = tmp_path / "m.bundle"
        data = _saved_bytes([model], compile_schema("<Content>"), path)
        stored = json.loads(data)["models"][0]["templates"]
        assert [tid for tid, _, _ in stored] == ["T10", "T2"]
        loaded, loaded_schema = load_bundle(path)
        assert [t.template_id for t in loaded[0].template_set.templates] == ["T10", "T2"]
        assert _saved_bytes(loaded, loaded_schema, tmp_path / "again.bundle") == data

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
                                     "object reservoir", "huge int score",
                                     "params empty list"])
    def test_inconsistent_bundle_rejected(self, tmp_path, how):
        doc = json.loads(_saved_bytes(self._models(), compile_schema("<Content>"),
                                      tmp_path / "good.bundle"))
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
        doc = json.loads(_saved_bytes(self._models(), compile_schema("<Content>"),
                                      tmp_path / "good.bundle"))
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


def _whole_doc_bytes(models, schema) -> bytes:
    """A bundle's bytes as one ``json.dumps`` of the whole document."""
    doc = {
        "bundle_version": 1,
        "schema": {"format_template": schema.format_template,
                   "mask_rules": [[p.pattern, repl] for p, repl in schema.mask_rules]},
        "models": [{"parser_name": m.parser_name,
                    "parser_params": m.template_set.parser_params,
                    "templates": [[t.template_id, list(t.tokens), t.support]
                                  for t in m.template_set.templates],
                    "calibration": m.calib,
                    "total_count": m.total_count} for m in models],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


_TOKENS = st.lists(st.sampled_from(["a", "<*>", 'q"uote', "back\\slash", "é", "日本",
                                    "\u2028", "x\ny"]), max_size=4)
_RESERVOIRS = st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1e-7, 3.25, 1e300]),
                                max_size=5).map(sorted), min_size=1, max_size=3)
_MASK_RULES = st.lists(st.tuples(st.sampled_from([r"\d+", '"', r"\\", "é+", "x"]),
                                 st.sampled_from(["<*>", "", '"', r"\\", "日"])),
                       max_size=2)


@st.composite
def _bundles(draw):
    models = []
    for name in draw(st.lists(st.sampled_from(PARSER_NAMES), min_size=1, max_size=4,
                              unique=True)):
        calib = {f"T{k}": scores for k, scores in enumerate(draw(_RESERVOIRS), start=1)}
        ts = TemplateSet(parser_name=name, parser_params={}, templates=tuple(
            EventTemplate(template_id=tid, tokens=tuple(draw(_TOKENS)), support=len(scores))
            for tid, scores in calib.items()))
        models.append(CalibrationModel(template_set=ts, calib=calib))
    fmt = draw(st.sampled_from(["<Content>", "<Date> <Level>: <Content>"]))
    return models, compile_schema(fmt, draw(_MASK_RULES))


class TestBundleBytes:
    @settings(max_examples=60, deadline=None)
    @given(_bundles())
    def test_one_serializer_same_bytes(self, tmp_path_factory, bundle):
        models, schema = bundle
        path = tmp_path_factory.mktemp("b") / "m.bundle"
        assert _saved_bytes(models, schema, path) == _whole_doc_bytes(models, schema)

    def test_load_shares_one_float_per_score_text(self, tmp_path):
        path = tmp_path / "m.bundle"
        save_bundle([_model({"T1": [0.0] * 1000, "T2": [-0.0, 0.0, 0.5]})],
                    compile_schema("<Content>"), path)
        calib = load_bundle(path)[0][0].calib
        assert len({id(s) for s in calib["T1"]}) == 1
        assert [math.copysign(1, s) for s in calib["T2"]] == [-1, 1, 1]

    def test_loaded_pvalues_equal_a_plain_parse(self, tmp_path):
        path = tmp_path / "m.bundle"
        save_bundle([_model({"T1": [0.0, 0.5, 0.5, 1.25], "T2": [0.0] * 5, "T3": []})],
                    compile_schema("<Content>"), path)
        loaded = load_bundle(path)[0][0]
        plain = conformal._model_from_doc(json.loads(path.read_text())["models"][0])
        for tokens in (["x"], ["y"], ["x", "y"], []):
            rec = make_record(1, tokens)
            assert pvalues_for(loaded, rec) == pvalues_for(plain, rec)

    def test_save_holds_one_model_text_at_a_time(self, tmp_path):
        # the bound lies between the whole document's text (about 3.8 MB) and
        # one model's (about 1.9 MB)
        models = [_model({"T1": [0.0] * 25_000}, parser_name=name)
                  for name in PARSER_NAMES]
        schema = compile_schema("<Content>")
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_bundle(models, schema, tmp_path / "m.bundle")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2_800_000
