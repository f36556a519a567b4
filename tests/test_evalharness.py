import re
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logconformal import detector
from logconformal.conformal import CalibrationModel, calibrate, pvalues_for
from logconformal.detector import (ANOMALY, NORMAL, DetectorConfig, Verdict,
                                   decide, detect_batch, label_of,
                                   pvalue_sets_for)
from logconformal.errors import InvalidSpec, LabelMismatch, NoParsers
from logconformal.evalharness import (DEFAULT_GRID, HDFS_PROFILE, IIOT_PROFILE,
                                      LabeledCorpus, Metrics, SweepRow,
                                      load_corpus, render_sweep_csv,
                                      render_sweep_table, significance_sweep,
                                      synth_corpus, write_corpus)
from logconformal.ingest import compile_schema, read_log_file
from logconformal.parsers import fit

from conftest import graded_models, make_record


def _verdict(line_id, label):
    return line_id, Verdict(label=label, prediction_set={}, max_p=0.0)


def score_metrics(scored: list[tuple[int, Verdict]],
                  labels: dict[int, str]) -> Metrics:
    """Confusion counts over (line id, verdict) pairs with the anomaly label
    as the positive class."""
    if {line_id for line_id, _ in scored} != set(labels):
        raise LabelMismatch("verdicts and labels cover different line ids")
    tp = fp = fn = tn = 0
    for line_id, v in scored:
        truth_anomaly = labels[line_id] == ANOMALY
        called_anomaly = v.label == ANOMALY
        if called_anomaly and truth_anomaly:
            tp += 1
        elif called_anomaly:
            fp += 1
        elif truth_anomaly:
            fn += 1
        else:
            tn += 1
    return Metrics(tp=tp, fp=fp, fn=fn, tn=tn)


class TestSynthCorpus:
    def test_shape(self):
        c = synth_corpus(seed=1, n_train=300, n_test=50, n_anomalies=10)
        assert len(c.raw_lines) == 350
        assert len(c.train_ids) == 300 and len(c.test_ids) == 50
        assert sum(1 for v in c.labels.values() if v == ANOMALY) == 10
        assert all(c.labels[i] == NORMAL for i in c.train_ids)
        assert set(c.labels) == set(c.train_ids) | set(c.test_ids)

    def test_deterministic(self):
        """One seed writes the same lines, and a renamed copy of a profile
        writes its original's: the profile's rules decide, not its name."""
        for profile in (IIOT_PROFILE, HDFS_PROFILE):
            a = synth_corpus(seed=42, n_train=200, n_test=40, n_anomalies=7, profile=profile)
            for twin in (profile, replace(profile, name="copy")):
                b = synth_corpus(seed=42, n_train=200, n_test=40, n_anomalies=7, profile=twin)
                assert a.raw_lines == b.raw_lines, (profile.name, twin.name)
                assert a.labels == b.labels, (profile.name, twin.name)

    def test_seed_changes_content(self):
        a = synth_corpus(seed=1, n_train=50, n_test=0, n_anomalies=0)
        b = synth_corpus(seed=2, n_train=50, n_test=0, n_anomalies=0)
        assert a.raw_lines != b.raw_lines

    def test_all_normal_slice(self):
        c = synth_corpus(seed=3, n_train=50, n_test=30, n_anomalies=0)
        assert all(v == NORMAL for v in c.labels.values())

    def test_anomaly_contents_present(self):
        """Every kind of anomaly each profile's rule plants shows up; a
        failure names the profile and the kind."""
        kinds = {
            IIOT_PROFILE: {
                "completeness": lambda s: s == "check data complete failed!",
                "file": lambda s: s.startswith("Load ") and s.endswith(".ini failed!"),
                "mutant": lambda s: s.startswith("fault trap ")},
            HDFS_PROFILE: {
                "serving": lambda s: re.fullmatch(r"10\.251\.\d+\.\d+:Throw error while "
                                                  r"serving blk \d+ from /10\.251\.\d+\.\d+", s),
                "mutant": lambda s: s.startswith("fault trap ")},
        }
        for profile, checks in kinds.items():
            c = synth_corpus(seed=5, n_train=100, n_test=300, n_anomalies=250,
                             profile=profile)
            anomalous = [c.records[i - 1].content for i in c.test_ids
                         if c.labels[i] == ANOMALY]
            for kind, check in checks.items():
                assert any(map(check, anomalous)), (profile.name, kind)

    def test_event_variety(self):
        c = synth_corpus(seed=1, n_train=2000, n_test=0, n_anomalies=0)
        first_tokens = {r.tokens[0] for r in c.records}
        assert len(first_tokens) >= 10

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSpec):
            synth_corpus(seed=1, n_train=10, n_test=5, n_anomalies=6)
        with pytest.raises(InvalidSpec):
            synth_corpus(seed=1, n_train=0, n_test=5, n_anomalies=0)

    def test_hdfs_profile_parses(self):
        c = synth_corpus(seed=1, n_train=100, n_test=0, n_anomalies=0,
                         profile=HDFS_PROFILE)
        assert all("Component" in r.headers for r in c.records)

    def test_write_and_load_round_trip(self, tmp_path):
        c = synth_corpus(seed=9, n_train=80, n_test=20, n_anomalies=5)
        paths = write_corpus(c, tmp_path)
        back = load_corpus(paths["log"], paths["labels"], paths["split"], c.schema)
        assert back.labels == c.labels
        assert back.train_ids == c.train_ids
        assert back.test_ids == c.test_ids
        assert [r.tokens for r in back.records] == [r.tokens for r in c.records]
        train_lines = paths["train_log"].read_text().splitlines()
        assert train_lines == c.raw_lines[:80]

    @pytest.mark.parametrize("profile", [IIOT_PROFILE, HDFS_PROFILE])
    def test_written_bytes_of_every_file(self, tmp_path, profile):
        c = synth_corpus(seed=5, n_train=30, n_test=12, n_anomalies=3, profile=profile)
        ids = sorted(c.labels)
        expected = {
            "log": c.raw_lines,
            "train_log": c.raw_lines[:30],
            "test_log": c.raw_lines[30:],
            "labels": ["line_id,label", *[f"{i},{c.labels[i]}" for i in ids]],
            "split": ["line_id,part", *[f"{i},{'train' if i <= 30 else 'test'}"
                                        for i in ids]],
        }
        paths = write_corpus(c, tmp_path)
        assert {key: path.name for key, path in paths.items()} == {
            "log": "corpus.log", "train_log": "train.log", "test_log": "test.log",
            "labels": "labels.csv", "split": "split.csv"}
        for key, lines in expected.items():
            assert paths[key].read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_empty_test_slice_writes_an_empty_test_log(self, tmp_path):
        c = synth_corpus(seed=5, n_train=10, n_test=0, n_anomalies=0)
        paths = write_corpus(c, tmp_path)
        assert paths["test_log"].read_bytes() == b""
        assert paths["train_log"].read_bytes() == paths["log"].read_bytes()

    def test_write_refuses_a_loaded_corpus(self, tmp_path):
        """A corpus read from files has no raw lines: writing it would leave
        blank logs beside full sidecars, so nothing is written."""
        c = synth_corpus(seed=9, n_train=20, n_test=5, n_anomalies=2)
        paths = write_corpus(c, tmp_path / "a")
        back = load_corpus(paths["log"], paths["labels"], paths["split"], c.schema)
        with pytest.raises(InvalidSpec, match="25 records from 0 raw lines"):
            write_corpus(back, tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_load_reads_lines_as_train_does(self, tmp_path):
        # \x0c, \x1c, \x85 and \u2028 end a line for str.splitlines() but
        # not for a file read with universal newlines; \xff is invalid UTF-8
        log = tmp_path / "corpus.log"
        log.write_bytes("S1 a one\r\nS2 b two\x0cthree\x1c \x85 \u2028 x\n"
                        .encode("utf-8") + b"S1 c \xff four\n")
        (tmp_path / "labels.csv").write_text("line_id,label\n1,normal\n2,normal\n"
                                             "3,anomaly\n", encoding="utf-8")
        (tmp_path / "split.csv").write_text("line_id,part\n1,train\n2,train\n"
                                            "3,test\n", encoding="utf-8")
        schema = compile_schema("<SysId> <Content>")
        corpus = load_corpus(log, tmp_path / "labels.csv", tmp_path / "split.csv",
                             schema)
        assert corpus.records == read_log_file(log, schema)[0]
        assert [r.line_id for r in corpus.records] == [1, 2, 3]
        assert corpus.records[1].content == "b two\x0cthree\x1c \x85 \u2028 x"
        assert corpus.records[2].content == "c \ufffd four"
        assert corpus.raw_lines == []
        assert [r.line_id for r in corpus.test_records] == [3]

    @pytest.mark.parametrize("labels, split, message", [
        ("1,normal\n2,normal\n3,anomaly\n", "1,train\n2,train\n",
         "line 3 of .*corpus.log is in no part of .*split.csv"),
        ("1,normal\n2,normal\n3,normal\n", "1,train\n2,train\n3,train\n",
         "split.csv lists no test line"),
        ("1,normal\n2,normal\n3,anomaly,x\n", "1,train\n2,train\n3,test\n",
         "labels.csv, line 4: '3,anomaly,x' is not"),
        ("1,normal\n2,normal\n3,anomaly\n", "1,train\ntwo,train\n3,test\n",
         "split.csv, line 3: 'two,train' is not"),
        ("1,normal\n2,normal\n3,anomaly\n99999,anomaly\n", "1,train\n2,train\n3,test\n",
         "label line 99999 is not in .*corpus.log"),
        ("1,normal\n2,anomaly\n3,anomaly\n", "1,train\n2,train\n3,test\n",
         "^training line 2 is not normal$"),
        ("1,normal\n2,normal\n", "1,train\n2,train\n3,test\n",
         "^test line 3 has no label$"),
        ("1,normal\n2,normal\n3,anomaly\n", "1,train\n2,train\n3,tset\n",
         "^split part 'tset' of line 3 is neither 'train' nor 'test'$"),
        ("1,normal\n2,normal\n3,anomaly\n3,normal\n", "1,train\n2,train\n3,test\n",
         "^label line 3 appears more than once$"),
        # int() would take each of these ids and file the row under line 2 or 3
        ("1,normal\n+2,normal\n3,anomaly\n", "1,train\n2,train\n3,test\n",
         "labels.csv, line 3: '\\+2,normal' is not '<line id>,<value>' with an "
         "ASCII decimal id$"),
        ("1,normal\n2,normal\n3,anomaly\n", "1,train\n 2 ,train\n3,test\n",
         "split.csv, line 3: ' 2 ,train' is not"),
        ("1,normal\n2,normal\n3,anomaly\n", "1,train\n0_2,train\n3,test\n",
         "split.csv, line 3: '0_2,train' is not"),
        ("1,normal\n2,normal\n\u0663,anomaly\n", "1,train\n2,train\n3,test\n",
         "labels.csv, line 4: '\u0663,anomaly' is not"),
        ("1,normal\n2,normal\n3\n", "1,train\n2,train\n3,test\n",
         "labels.csv, line 4: '3' is not"),
    ], ids=["split-leaves-line-out", "split-without-test-line",
            "row-with-three-fields", "non-integer-id", "label-names-no-line",
            "training-line-not-normal", "test-line-without-label",
            "unknown-split-part", "label-id-repeated", "id-with-sign",
            "id-with-spaces", "id-with-underscore", "id-of-non-ascii-digit",
            "row-with-one-field"])
    def test_bad_sidecar_names_the_cause(self, tmp_path, labels, split, message):
        log = tmp_path / "corpus.log"
        log.write_text("S1 a\nS1 a\nS1 b\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("line_id,label\n" + labels, encoding="utf-8")
        (tmp_path / "split.csv").write_text("line_id,part\n" + split, encoding="utf-8")
        with pytest.raises(LabelMismatch, match=message):
            load_corpus(log, tmp_path / "labels.csv", tmp_path / "split.csv",
                        compile_schema("<SysId> <Content>"))

    @pytest.mark.parametrize("sidecar, text, first", [
        ("labels.csv", "1,normal\n2,normal\n3,anomaly\n", "1,normal"),
        ("split.csv", "1,train\n2,train\n3,test\n", "1,train"),
        ("labels.csv", "label,line_id\n1,normal\n2,normal\n3,anomaly\n", "label,line_id"),
        ("split.csv", "line_id,label\n1,train\n2,train\n3,test\n", "line_id,label"),
        ("labels.csv", "", ""),
    ], ids=["labels-without-header", "split-without-header", "labels-header-swapped",
            "split-with-label-header", "empty-labels"])
    def test_sidecar_header_is_checked(self, tmp_path, sidecar, text, first):
        log = tmp_path / "corpus.log"
        log.write_text("S1 a\nS1 a\nS1 b\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("line_id,label\n1,normal\n2,normal\n"
                                             "3,anomaly\n", encoding="utf-8")
        (tmp_path / "split.csv").write_text("line_id,part\n1,train\n2,train\n"
                                            "3,test\n", encoding="utf-8")
        (tmp_path / sidecar).write_text(text, encoding="utf-8")
        header = "line_id,label" if sidecar == "labels.csv" else "line_id,part"
        with pytest.raises(LabelMismatch) as exc:
            load_corpus(log, tmp_path / "labels.csv", tmp_path / "split.csv",
                        compile_schema("<SysId> <Content>"))
        assert str(exc.value) == (f"{tmp_path / sidecar}, line 1: {first!r} "
                                  f"is not the header {header!r}")


class TestScoreMetrics:
    def test_all_correct(self):
        labels = {1: ANOMALY, 2: NORMAL, 3: ANOMALY}
        verdicts = [_verdict(1, ANOMALY), _verdict(2, NORMAL), _verdict(3, ANOMALY)]
        m = score_metrics(verdicts, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 0, 0, 1)
        assert m.precision == 1.0 and m.recall == 1.0

    def test_reconstructed_confusion_counts(self):
        # 788 true anomalies; one missed, 24 false alarms
        labels = {}
        verdicts = []
        line = 0
        for _ in range(787):
            line += 1
            labels[line] = ANOMALY
            verdicts.append(_verdict(line, ANOMALY))
        line += 1
        labels[line] = ANOMALY
        verdicts.append(_verdict(line, NORMAL))
        for _ in range(24):
            line += 1
            labels[line] = NORMAL
            verdicts.append(_verdict(line, ANOMALY))
        for _ in range(188):
            line += 1
            labels[line] = NORMAL
            verdicts.append(_verdict(line, NORMAL))
        m = score_metrics(verdicts, labels)
        assert (m.tp, m.fp, m.fn) == (787, 24, 1)
        assert m.precision == pytest.approx(0.9704, abs=1e-4)
        assert m.recall == pytest.approx(0.9987, abs=1e-4)

    def test_zero_predicted_positives(self):
        labels = {1: NORMAL, 2: ANOMALY}
        verdicts = [_verdict(1, NORMAL), _verdict(2, NORMAL)]
        m = score_metrics(verdicts, labels)
        assert m.precision is None
        assert m.recall == 0.0

    def test_no_anomalies_recall_absent(self):
        labels = {1: NORMAL}
        m = score_metrics([_verdict(1, NORMAL)], labels)
        assert m.recall is None

    def test_mismatched_ids(self):
        with pytest.raises(LabelMismatch):
            score_metrics([_verdict(1, NORMAL)], {2: NORMAL})


def _reference_sweep(models, corpus, grid):
    """The per-line definition: every (configuration, epsilon) cell counts
    each test line from that line's own p-values."""
    lines = [([pvalues_for(m, rec).max_p() for m in models],
              corpus.labels[rec.line_id] == ANOMALY)
             for rec in corpus.test_records]
    configurations = [(m.parser_name, [k]) for k, m in enumerate(models)]
    configurations.append(("ensemble", list(range(len(models)))))
    rows = []
    for name, members in configurations:
        for eps in grid:
            counts = Counter((all(max_p[k] < eps for k in members), is_anomaly)
                             for max_p, is_anomaly in lines)
            rows.append(SweepRow(configuration=name, epsilon=eps, metrics=Metrics(
                tp=counts[True, True], fp=counts[True, False],
                fn=counts[False, True], tn=counts[False, False])))
    return rows


def _graded_corpus() -> LabeledCorpus:
    """Test lines for :func:`graded_models`, each sequence once normal and
    once anomalous. Their (drain, spell) maxima are (1, 1), (0.25, 0),
    (0.25, 1), (0.5, 1), (0.5, 0) and (0, 0), so the max and the min over
    parsers differ on some lines."""
    sequences = [("pump", "ok", "1"), ("pump", "ok"), ("pump", "x", "y"),
                 ("valve", "x"), ("valve", "shut", "x"), ("alarm", "x")]
    lines = [(tokens, label) for label in (NORMAL, ANOMALY) for tokens in sequences]
    records = [make_record(i + 1, tokens) for i, (tokens, _) in enumerate(lines)]
    labels = {i + 1: label for i, (_, label) in enumerate(lines)}
    return LabeledCorpus(records=records, labels=labels, train_ids=[],
                         test_ids=sorted(labels), raw_lines=[], schema=None)


# the graded reservoirs' fractions: p == epsilon occurs at 0, 0.25, 0.5 and 1
# under graded_models(), and at 1/3 and 2/3 only under _regraded_models()
GRADED_GRID = (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0)


def _regraded_models() -> list[CalibrationModel]:
    """:func:`graded_models` with spell's ``T1`` reservoir ``[0.5, 0.85, 1.2]``,
    so its scores lie on both sides of what the graded lines score against
    ``pump <*> <*>`` unless they match it: ``pump ok`` and ``alarm x`` 0.8176,
    ``valve shut x`` 0.8808. Spell's maxima on them are 2/3, 2/3 and 1/3."""
    drain, spell = graded_models()
    return [drain, CalibrationModel(template_set=spell.template_set,
                                    calib={**spell.calib, "T1": [0.5, 0.85, 1.2]})]


@pytest.fixture(scope="module")
def small_run():
    corpus = synth_corpus(seed=11, n_train=1500, n_test=200, n_anomalies=60)
    models = []
    for name in ("drain", "spell", "iplom", "logcluster"):
        ts = fit(name, None, corpus.train_records)
        models.append(calibrate(ts, corpus.train_records))
    rows = significance_sweep(models, corpus)
    return corpus, models, rows


class TestSweep:
    def test_row_count(self, small_run):
        _, models, rows = small_run
        assert len(rows) == (len(models) + 1) * len(DEFAULT_GRID)
        configs = {r.configuration for r in rows}
        assert configs == {"drain", "spell", "iplom", "logcluster", "ensemble"}

    def test_counts_conserve(self, small_run):
        corpus, _, rows = small_run
        for r in rows:
            m = r.metrics
            assert m.tp + m.fp + m.fn + m.tn == len(corpus.test_ids)

    def test_ensemble_recall_nondecreasing_in_epsilon(self, small_run):
        _, _, rows = small_run
        recalls = [r.metrics.recall for r in rows if r.configuration == "ensemble"]
        alarms = [r.metrics.tp + r.metrics.fp for r in rows
                  if r.configuration == "ensemble"]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))
        assert all(a <= b for a, b in zip(alarms, alarms[1:]))

    def test_ensemble_dominates_singles(self, small_run):
        _, _, rows = small_run
        by_eps = {}
        for r in rows:
            by_eps.setdefault(r.epsilon, {})[r.configuration] = r.metrics.recall
        for eps, recalls in by_eps.items():
            ensemble = recalls.pop("ensemble")
            assert all(ensemble >= single for single in recalls.values()), eps

    def test_epsilon_zero_never_alarms(self, small_run):
        corpus, models, _ = small_run
        rows = significance_sweep(models, corpus, (0.0,))
        assert all(r.metrics.tp + r.metrics.fp == 0 for r in rows)
        assert all(r.metrics.recall == 0.0 for r in rows)

    def test_ensemble_precision_nonincreasing(self, small_run):
        _, _, rows = small_run
        precisions = [r.metrics.precision for r in rows
                      if r.configuration == "ensemble"
                      and r.metrics.precision is not None]
        assert all(a >= b for a, b in zip(precisions, precisions[1:]))

    def test_sweep_agrees_with_detector(self, small_run):
        """Every configuration's cell at every epsilon counts what
        ``detect_batch`` of its models labels, for the trained models and for
        the graded and regraded ones."""
        trained_corpus, trained_models, _ = small_run
        grid = GRADED_GRID + DEFAULT_GRID
        regraded = _regraded_models()
        spell_maxima = {pvalues_for(regraded[1], r).max_p()
                        for r in _graded_corpus().test_records}
        assert {1 / 3, 2 / 3} <= spell_maxima  # the grid's thirds are met
        for corpus, models in [(trained_corpus, trained_models),
                               (_graded_corpus(), graded_models()),
                               (_graded_corpus(), regraded)]:
            rows = significance_sweep(models, corpus, grid)
            test_labels = {i: corpus.labels[i] for i in corpus.test_ids}
            configurations = [(m.parser_name, [m]) for m in models]
            configurations.append(("ensemble", models))
            for (name, members), eps in product(configurations, grid):
                verdicts = detect_batch(members, corpus.test_records,
                                        DetectorConfig(epsilon=eps))
                direct = score_metrics([(r.line_id, v) for r, v in
                                        zip(corpus.test_records, verdicts, strict=True)],
                                       test_labels)
                swept = next(r.metrics for r in rows
                             if r.configuration == name and r.epsilon == eps)
                assert direct == swept, (name, eps)

    def test_decide_and_sweep_combine_through_detector_combined(self, monkeypatch):
        """With ``detector.combined`` swapped for ``min``, ``decide`` and the
        sweep's ensemble cells both follow the min over parsers."""
        models, corpus = graded_models(), _graded_corpus()
        maxima = {rec.line_id: [pvalues_for(m, rec).max_p() for m in models]
                  for rec in corpus.test_records}
        max_rows = significance_sweep(models, corpus, GRADED_GRID)
        monkeypatch.setattr(detector, "combined", min)
        for rec, eps in product(corpus.test_records, GRADED_GRID):
            v = decide(pvalue_sets_for(models, rec), DetectorConfig(epsilon=eps))
            low = min(maxima[rec.line_id])
            assert (v.max_p, v.label) == (low, label_of(low, eps))
        min_rows = significance_sweep(models, corpus, GRADED_GRID)
        for max_row, min_row in zip(max_rows, min_rows, strict=True):
            if min_row.configuration != "ensemble":
                assert min_row == max_row
                continue
            called = Counter((label_of(min(maxima[i]), min_row.epsilon), corpus.labels[i])
                             for i in corpus.test_ids)
            assert min_row.metrics == Metrics(
                tp=called[ANOMALY, ANOMALY], fp=called[ANOMALY, NORMAL],
                fn=called[NORMAL, ANOMALY], tn=called[NORMAL, NORMAL])
        assert min_rows != max_rows  # the data tells the two rules apart

    @pytest.mark.parametrize("n_test", [20, 0])
    def test_no_models_rejected(self, n_test):
        corpus = synth_corpus(seed=1, n_train=50, n_test=n_test,
                              n_anomalies=min(3, n_test))
        with pytest.raises(NoParsers):
            significance_sweep([], corpus, (0.27,))

    def test_equals_per_line_reference(self, small_run):
        corpus, models, _ = small_run
        grid = (0.0, 0.27, 0.5, 1.0)
        assert significance_sweep(models, corpus, grid) == \
            _reference_sweep(models, corpus, grid)

    @given(st.lists(st.tuples(st.sampled_from([
        ("pump", "ok", "1"), ("pump", "ok"), ("valve", "shut"), ("valve", "x"),
        ("alarm", "x"), ("pump", "x", "y", "z")]), st.booleans()), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_graded_pvalues_equal_per_line_reference(self, lines):
        records = [make_record(i + 1, tokens) for i, (tokens, _) in enumerate(lines)]
        labels = {i + 1: ANOMALY if anomalous else NORMAL
                  for i, (_, anomalous) in enumerate(lines)}
        corpus = LabeledCorpus(records=records, labels=labels, train_ids=[],
                               test_ids=sorted(labels), raw_lines=[], schema=None)
        grid = (0.0, 0.25, 0.26, 0.5, 1.0)
        models = graded_models()
        assert significance_sweep(models, corpus, grid) == \
            _reference_sweep(models, corpus, grid)

    def test_renderings(self, small_run):
        _, _, rows = small_run
        csv = render_sweep_csv(rows)
        assert csv.splitlines()[0] == \
            "configuration,epsilon,tp,fp,fn,tn,precision,recall"
        assert len(csv.splitlines()) == len(rows) + 1
        table = render_sweep_table(rows)
        assert "ensemble" in table
        assert render_sweep_csv(rows) == csv  # stable

    def test_empty_ratio_is_blank_in_csv_and_dash_in_table(self):
        rows = [SweepRow(configuration="drain", epsilon=0.27,
                         metrics=Metrics(tp=0, fp=0, fn=0, tn=5)),
                SweepRow(configuration="ensemble", epsilon=0.3,
                         metrics=Metrics(tp=3, fp=1, fn=0, tn=2))]
        assert render_sweep_csv(rows) == (
            "configuration,epsilon,tp,fp,fn,tn,precision,recall\n"
            "drain,0.27,0,0,0,5,,\n"
            "ensemble,0.3,3,1,0,2,0.750000,1.000000\n")
        assert render_sweep_table(rows) == (
            "configuration  epsilon  tp  fp  fn  tn  precision  recall\n"
            "drain          0.27     0   0   0   5   -          -\n"
            "ensemble       0.3      3   1   0   2   0.750000   1.000000\n")

    def test_profiles_exposed(self):
        assert IIOT_PROFILE.name == "iiot"
        assert HDFS_PROFILE.name == "hdfs"
        assert len(IIOT_PROFILE.events) >= 10
