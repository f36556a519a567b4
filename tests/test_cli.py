import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logconformal
from logconformal import cli, conformal, detector, evalharness, parsers
from logconformal.cli import main
from logconformal.detector import ANOMALY, DetectorConfig, render_alarm_line
from logconformal.errors import BundleError, InvalidSpec, LabelMismatch
from logconformal.evalharness import IIOT_PROFILE
from logconformal.ingest import NO_HEADERS, ChainStore, compile_schema, read_records
from logconformal.templates import WILDCARD

import reference_chain
from conftest import graded_models, make_record


def _config(tmp_path, **extra):
    doc = {
        "format_template": IIOT_PROFILE.format_template,
        "mask_rules": [list(r) for r in IIOT_PROFILE.mask_rules],
        "synth": {"profile": "iiot", "n_train": 400, "n_test": 80,
                  "n_anomalies": 20},
        "seed": 5,
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _run_cli(*argv):
    """Run the CLI in a child process, importing the package this test uses,
    in a fresh working directory so that a default output path lands there."""
    pkg_dir = str(Path(logconformal.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_dir, os.environ.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run([sys.executable, "-m", "logconformal.cli", *argv],
                              capture_output=True, text=True, cwd=cwd,
                              env=dict(os.environ, PYTHONPATH=pythonpath))


@pytest.fixture
def workdir(tmp_path):
    cfg = _config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    return tmp_path, cfg


@pytest.mark.parametrize("exc, code", [
    (InvalidSpec("bad spec"), 2),
    (BundleError("bad bundle"), 4),
    (LabelMismatch("bad label row"), 3),
    (OSError("disk gone"), 3),
    (ValueError("bad value"), 3),
])
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, exc, code):
    def failing(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_verify_chain", failing)
    assert main(["verify-chain", "--store", "unused.chain"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {exc}\n")


class TestSynth:
    def test_writes_corpus_files(self, workdir):
        tmp_path, _ = workdir
        out = tmp_path / "corpus"
        for name in ("corpus.log", "labels.csv", "split.csv", "train.log", "test.log"):
            assert (out / name).exists()
        assert len((out / "corpus.log").read_text().splitlines()) == 480

    def test_size_flags_override_config(self, workdir):
        tmp_path, cfg = workdir
        out = tmp_path / "small"
        assert main(["synth", "--config", str(cfg), "--train", "50", "--test", "10",
                     "--anomalies", "2", "--out", str(out)]) == 0
        assert len((out / "train.log").read_text().splitlines()) == 50
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        assert sum(line.endswith(",anomaly") for line in labels) == 2

    def test_synth_requires_out(self, tmp_path):
        assert main(["synth", "--seed", "1"]) == 2

    def test_synth_deterministic(self, workdir):
        tmp_path, cfg = workdir
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "corpus.log").read_bytes() == \
            (tmp_path / "corpus" / "corpus.log").read_bytes()


class TestTrain:
    def test_train_writes_bundle(self, workdir):
        tmp_path, cfg = workdir
        bundle = tmp_path / "model.bundle"
        rc = main(["train", "--config", str(cfg),
                   "--input", str(tmp_path / "corpus" / "train.log"),
                   "--model", str(bundle)])
        assert rc == 0
        assert bundle.exists()
        doc = json.loads(bundle.read_text())
        assert {m["parser_name"] for m in doc["models"]} == \
            {"drain", "spell", "iplom", "logcluster"}

    def test_missing_input_is_config_error(self, workdir):
        tmp_path, cfg = workdir
        assert main(["train", "--config", str(cfg),
                     "--input", str(tmp_path / "nope.log")]) == 2

    @pytest.mark.parametrize("override", [
        {"format_template": "<Sys-Id> <Content>"},
        {"format_template": "<Content>", "mask_rules": [["(unclosed", "<*>"]]},
        {"format_template": "<Content>", "mask_rules": ["ab", {"x": 1, "y": 2}]},
        {"format_template": "<Content>", "mask_rules": [["a{99999999999}", "<*>"]]},
    ])
    def test_bad_schema_is_config_error(self, tmp_path, override):
        train = tmp_path / "train.log"
        train.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
        cfg = _config(tmp_path, **override)
        proc = _run_cli("train", "--config", str(cfg), "--input", str(train),
                        "--model", str(tmp_path / "m.bundle"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("parsers", [
        {"drain": {"bogus": 1}},
        {"drain": {"depth": "x"}},
        {"drain": {"depth": 2}},
        {"drain": 5},
        ["drain"],
        {"iplom": {"lower_bound": 10 ** 400}},
        {"drian": {}},
    ])
    def test_bad_parser_params_is_config_error(self, tmp_path, parsers):
        train = tmp_path / "train.log"
        train.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
        cfg = _config(tmp_path, parsers=parsers)
        proc = _run_cli("train", "--config", str(cfg), "--input", str(train),
                        "--model", str(tmp_path / "m.bundle"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        named = next(iter(parsers)) if isinstance(parsers, dict) else "parsers"
        assert named in proc.stderr
        if named == "drian":
            assert proc.stderr == ("error: unknown parser 'drian' "
                                   "(known: drain, spell, iplom, logcluster)\n")

    def test_integer_parameter_writes_the_float_bundle(self, workdir):
        """A float parameter spelled as an integer is stored as the float, so
        ``0`` and ``0.0`` train the same bundle bytes."""
        tmp_path, _ = workdir
        bundles = []
        for spelled in (0, 0.0):
            cfg = _config(tmp_path, parsers={"iplom": {"partition_support_threshold": spelled,
                                                       "lower_bound": 1}})
            bundle = tmp_path / f"{spelled!r}.bundle"
            assert main(["train", "--config", str(cfg), "--model", str(bundle),
                         "--input", str(tmp_path / "corpus" / "train.log")]) == 0
            bundles.append(bundle.read_bytes())
        assert bundles[0] == bundles[1]
        params = json.loads(bundles[0])["models"][0]["parser_params"]
        assert params == {"partition_support_threshold": 0.0, "lower_bound": 1.0,
                          "upper_bound": 0.9}
        assert all(type(v) is float for v in params.values())

    def test_empty_training_file_is_data_error(self, workdir):
        tmp_path, cfg = workdir
        empty = tmp_path / "empty.log"
        empty.write_text("", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--input", str(empty),
                     "--model", str(tmp_path / "m.bundle")]) == 3

    def test_header_only_lines_skipped(self, workdir, capsys):
        tmp_path, cfg = workdir
        mixed = tmp_path / "mixed.log"
        good = (tmp_path / "corpus" / "train.log").read_text().splitlines()[:50]
        mixed.write_text("\n".join(good + ["2019-06-01 00:00:00 SYS1 ETH0 "]) + "\n",
                         encoding="utf-8")
        rc = main(["train", "--config", str(cfg), "--input", str(mixed),
                   "--model", str(tmp_path / "mixed.bundle")])
        assert rc == 0
        assert "skipped 1" in capsys.readouterr().err

    def test_train_with_chain_store(self, tmp_path):
        chain = tmp_path / "audit.chain"
        cfg = _config(tmp_path, paths={"chain": str(chain)})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert main(["train", "--config", str(cfg),
                     "--input", str(tmp_path / "c" / "train.log"),
                     "--model", str(tmp_path / "m.bundle")]) == 0
        assert main(["verify-chain", "--store", str(chain)]) == 0
        data = bytearray(chain.read_bytes())
        data[len(data) // 2] ^= 0x10
        chain.write_bytes(bytes(data))
        assert main(["verify-chain", "--store", str(chain)]) == 3

    def test_verify_chain_missing_store(self, tmp_path):
        assert main(["verify-chain", "--store", str(tmp_path / "no.chain")]) == 2


class TestDetect:
    @pytest.fixture
    def trained(self, workdir):
        tmp_path, cfg = workdir
        bundle = tmp_path / "model.bundle"
        assert main(["train", "--config", str(cfg),
                     "--input", str(tmp_path / "corpus" / "train.log"),
                     "--model", str(bundle)]) == 0
        return tmp_path, cfg, bundle

    def test_detect_finds_planted_anomalies(self, trained, capsys):
        tmp_path, cfg, bundle = trained
        alarms = tmp_path / "alarms.jsonl"
        rc = main(["detect", "--config", str(cfg), "--model", str(bundle),
                   "--input", str(tmp_path / "corpus" / "test.log"),
                   "--epsilon", "0.4", "--out", str(alarms)])
        assert rc == 0
        lines = alarms.read_text().splitlines()
        assert len(lines) >= 20  # every planted anomaly alarms
        docs = [json.loads(line) for line in lines]
        assert all(d["label"] == "anomaly" for d in docs)
        out = capsys.readouterr().out
        assert "processed=80" in out

    def test_detect_epsilon_zero_never_alarms(self, trained):
        tmp_path, cfg, bundle = trained
        alarms = tmp_path / "none.jsonl"
        assert main(["detect", "--config", str(cfg), "--model", str(bundle),
                     "--input", str(tmp_path / "corpus" / "test.log"),
                     "--epsilon", "0", "--out", str(alarms)]) == 0
        assert alarms.read_text() == ""

    def test_detect_default_epsilon(self, trained, capsys):
        """With neither ``--epsilon`` nor a config ``epsilon``, detect runs at
        the detector's default level."""
        tmp_path, cfg, bundle = trained
        assert "epsilon" not in json.loads(cfg.read_text(encoding="utf-8"))
        assert main(["detect", "--config", str(cfg), "--model", str(bundle),
                     "--input", str(tmp_path / "corpus" / "test.log"),
                     "--out", str(tmp_path / "alarms.jsonl")]) == 0
        assert "epsilon=0.27 " in capsys.readouterr().out

    def test_all_normal_false_alarm_rate(self, tmp_path):
        cfg = _config(tmp_path, synth={"profile": "iiot", "n_train": 400,
                                       "n_test": 100, "n_anomalies": 0})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        bundle = tmp_path / "m.bundle"
        assert main(["train", "--config", str(cfg),
                     "--input", str(tmp_path / "c" / "train.log"),
                     "--model", str(bundle)]) == 0
        alarms = tmp_path / "fa.jsonl"
        assert main(["detect", "--config", str(cfg), "--model", str(bundle),
                     "--input", str(tmp_path / "c" / "test.log"),
                     "--epsilon", "0.27", "--out", str(alarms)]) == 0
        false_alarms = len(alarms.read_text().splitlines())
        assert false_alarms / 100 <= 0.05

    def test_corrupt_bundle_exit_code(self, trained):
        tmp_path, cfg, _ = trained
        bad = tmp_path / "bad.bundle"
        bad.write_text("garbage", encoding="utf-8")
        assert main(["detect", "--config", str(cfg), "--model", str(bad),
                     "--input", str(tmp_path / "corpus" / "test.log")]) == 4

    def test_bad_bundle_schema_is_bundle_error(self, trained):
        tmp_path, _, bundle = trained
        doc = json.loads(bundle.read_text(encoding="utf-8"))
        doc["schema"]["format_template"] = "<Sys-Id> <Content>"
        bad = tmp_path / "bad-schema.bundle"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli("detect", "--model", str(bad),
                        "--input", str(tmp_path / "corpus" / "test.log"),
                        "--out", str(tmp_path / "alarms.jsonl"))
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.fixture(scope="class")
    def small_bundle(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        cfg = _config(tmp_path, synth={"profile": "iiot", "n_train": 200,
                                       "n_test": 20, "n_anomalies": 5})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        bundle = tmp_path / "m.bundle"
        assert main(["train", "--config", str(cfg),
                     "--input", str(tmp_path / "c" / "train.log"),
                     "--model", str(bundle)]) == 0
        return tmp_path, bundle.read_bytes()

    @given(truncate=st.booleans(), offset=st.floats(0, 1, exclude_max=True),
           flip=st.integers(1, 255))
    @settings(max_examples=100, deadline=None)
    def test_damaged_bundle_is_bundle_error_or_loads(self, small_bundle,
                                                     truncate, offset, flip):
        """A truncated bundle, or one with a byte flipped, either loads or
        exits 4; it never ends in a traceback or another exit code."""
        tmp_path, good = small_bundle
        pos = int(offset * len(good))
        damaged = bytearray(good)
        if truncate:
            del damaged[pos:]
        else:
            damaged[pos] ^= flip
        bad = tmp_path / "damaged.bundle"
        bad.write_bytes(damaged)
        assert main(["detect", "--model", str(bad),
                     "--input", str(tmp_path / "c" / "test.log"),
                     "--out", str(tmp_path / "alarms.jsonl")]) in (0, 4)

    def test_missing_model_flag(self, workdir):
        tmp_path, cfg = workdir
        assert main(["detect", "--config", str(cfg),
                     "--input", str(tmp_path / "corpus" / "test.log")]) == 2

    def test_unparsable_line_is_skipped_and_ids_kept(self, tmp_path, capsys):
        bundle, log, out = tmp_path / "m.bundle", tmp_path / "in.log", tmp_path / "a.jsonl"
        conformal.save_bundle(graded_models(), compile_schema("<SysId> <Content>"), bundle)
        # the second line has no header field, so the schema cannot split it
        log.write_text("dev1 totally unrelated\nunrelated\ndev2 totally unrelated\n",
                       encoding="utf-8")
        assert main(["detect", "--model", str(bundle), "--input", str(log),
                     "--epsilon", "0.3", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "warning: skipped 1 unparsable lines" in captured.err
        assert "processed=2 " in captured.out
        assert [json.loads(line)["line_id"]
                for line in out.read_text(encoding="utf-8").splitlines()] == [1, 3]

    def test_header_schema_is_compiled_once(self, trained, monkeypatch):
        tmp_path, cfg, bundle = trained
        calls = []

        def counting(*args):
            calls.append(args[0])
            return compile_schema(*args)
        for module in (cli, conformal, evalharness):  # each module that imports it
            monkeypatch.setattr(module, "compile_schema", counting)
        assert main(["detect", "--config", str(cfg), "--model", str(bundle),
                     "--input", str(tmp_path / "corpus" / "test.log"),
                     "--out", str(tmp_path / "alarms.jsonl")]) == 0
        assert calls == [IIOT_PROFILE.format_template]


class TestAlarmSplice:
    """detect renders each alarmed verdict once and splices every other
    line's id into that text; the file must still hold exactly
    ``render_alarm_line`` of each alarm's line id and verdict."""

    BAD = ("valve", "shut")
    # ("pump", "ok") alarms at ids of one, two and three digits; it and
    # ("valve",) alarm with max_p 0.25 and 0.5, at ids sharing those digits
    ROWS = [(("pump", "ok"), 9), (("pump", "ok"), 10), (BAD, 7),
            (("totally", "unrelated"), 25), (("pump", "ok"), 100),
            (("pump", "ok", "1"), 11), (BAD, 33), (("pump", "ok"), 2),
            (("totally", "unrelated"), 3333), (("valve",), 5), (("valve",), 50),
            (("pump", "ok"), 250)]

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("splice")
        conformal.save_bundle(graded_models(), compile_schema("<Content>"),
                              tmp_path / "m.bundle")
        (tmp_path / "in.log").touch()  # detect checks that its input exists
        return tmp_path

    @staticmethod
    def _failing_on(bad, mp):
        """Make every record whose tokens are ``bad`` fail to score."""
        pvalue_sets_for = detector.pvalue_sets_for

        def flaky(models, record):
            if record.tokens == bad:
                raise RuntimeError("scoring exploded")
            return pvalue_sets_for(models, record)
        mp.setattr(detector, "pvalue_sets_for", flaky)

    @staticmethod
    def _detect(tmp_path, records, eps, mp):
        """Run ``detect`` on ``records`` as if read from the input file;
        return the alarm file's text and the verdicts it should hold."""
        mp.setattr(cli, "read_log_file", lambda path, schema: (records, 0))
        out = tmp_path / "alarms.jsonl"
        assert main(["detect", "--model", str(tmp_path / "m.bundle"),
                     "--input", str(tmp_path / "in.log"),
                     "--epsilon", repr(eps), "--out", str(out)]) == 0
        models, _ = conformal.load_bundle(tmp_path / "m.bundle")
        verdicts = detector.detect_batch(models, records, DetectorConfig(epsilon=eps))
        return out.read_text(encoding="utf-8"), verdicts

    @given(pool=st.lists(st.lists(st.sampled_from(["pump", "ok", "valve", "shut",
                                                   "alarm", "x", WILDCARD]),
                                  min_size=1, max_size=4).map(tuple),
                         min_size=1, max_size=5),
           rows=st.lists(st.tuples(st.integers(0, 4),
                                   st.sampled_from([1, 2, 3, 5, 9, 10, 25, 33,
                                                    99, 100, 333, 1000, 3333])
                                   | st.integers(1, 10**7)),
                         max_size=30),
           eps=st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0])
           | st.floats(0.0, 1.0),
           bad=st.none() | st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_file_equals_rendering_each_alarm(self, bundle, pool, rows, eps, bad):
        records = [make_record(line_id, pool[0]) for line_id in (9, 10, 100)]
        records += [make_record(line_id, pool[k % len(pool)]) for k, line_id in rows]
        with pytest.MonkeyPatch.context() as mp:
            if bad is not None:
                self._failing_on(pool[bad % len(pool)], mp)
            written, verdicts = self._detect(bundle, records, eps, mp)
        assert written == "".join(render_alarm_line(rec.line_id, v) + "\n"
                                  for rec, v in zip(records, verdicts)
                                  if v.label == ANOMALY)

    def test_one_render_per_alarmed_sequence_and_error_line(self, bundle,
                                                            monkeypatch, capsys):
        calls = []

        def counting(line_id, verdict):
            calls.append(line_id)
            return render_alarm_line(line_id, verdict)
        monkeypatch.setattr(detector, "render_alarm_line", counting)
        self._failing_on(self.BAD, monkeypatch)
        records = [make_record(line_id, tokens) for tokens, line_id in self.ROWS]
        written, verdicts = self._detect(bundle, records, 0.9, monkeypatch)

        alarmed = [(rec, v) for rec, v in zip(records, verdicts)
                   if v.label == ANOMALY]
        errors = [rec.line_id for rec, v in alarmed if v.error is not None]
        assert errors == [7, 33]
        assert {rec.tokens for rec, v in alarmed if v.error is None} == {
            ("pump", "ok"), ("totally", "unrelated"), ("valve",)}
        # the first line of each alarmed decision (the three sequences'
        # decisions differ), and every error line
        assert calls == [9, 7, 25, 33, 5]
        assert written == "".join(render_alarm_line(rec.line_id, v) + "\n"
                                  for rec, v in alarmed)
        assert len(written.splitlines()) == 11
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"processed=12 alarms=11 epsilon=0.9 out={bundle / 'alarms.jsonl'}")


class TestEval:
    def test_eval_writes_report(self, workdir, capsys):
        tmp_path, cfg = workdir
        report = tmp_path / "sweep.csv"
        rc = main(["eval", "--config", str(cfg), "--out", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "configuration,epsilon,tp,fp,fn,tn,precision,recall"
        assert len(lines) == 1 + 5 * 5  # (4 parsers + ensemble) x default grid
        out = capsys.readouterr().out
        assert "ensemble" in out

    def test_eval_grid_zero(self, workdir):
        tmp_path, cfg = workdir
        report = tmp_path / "zero.csv"
        assert main(["eval", "--config", str(cfg), "--grid", "0",
                     "--out", str(report)]) == 0
        rows = report.read_text().splitlines()[1:]
        assert all(row.split(",")[7] == "0.000000" for row in rows)

    def test_integer_grid_writes_the_flags_bytes(self, workdir):
        """A config grid spelled in integers writes the same report as the
        same grid given as a flag: every epsilon is a float."""
        tmp_path, _ = workdir
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        assert main(["eval", "--config", str(_config(tmp_path)), "--grid", "0,1",
                     "--out", str(by_flag)]) == 0
        assert main(["eval", "--config", str(_config(tmp_path, grid=[0, 1])),
                     "--out", str(by_config)]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        assert {row.split(",")[1] for row in by_flag.read_text().splitlines()[1:]} == \
            {"0.0", "1.0"}

    def test_eval_deterministic(self, workdir):
        tmp_path, cfg = workdir
        r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(r1)]) == 0
        assert main(["eval", "--config", str(cfg), "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_eval_from_corpus_files(self, workdir):
        tmp_path, cfg_path = workdir
        cfg = json.loads(cfg_path.read_text())
        cfg["paths"] = {"corpus": str(tmp_path / "corpus" / "corpus.log"),
                        "labels": str(tmp_path / "corpus" / "labels.csv"),
                        "split": str(tmp_path / "corpus" / "split.csv")}
        cfg2 = tmp_path / "config2.json"
        cfg2.write_text(json.dumps(cfg), encoding="utf-8")
        report = tmp_path / "files.csv"
        assert main(["eval", "--config", str(cfg2), "--out", str(report)]) == 0
        baseline = tmp_path / "mem.csv"
        assert main(["eval", "--config", str(cfg_path), "--out", str(baseline)]) == 0
        assert report.read_bytes() == baseline.read_bytes()

    def test_bad_grid_is_config_error(self, workdir):
        tmp_path, cfg = workdir
        assert main(["eval", "--config", str(cfg), "--grid", "zero,one"]) == 2

    def test_unknown_profile_is_config_error(self, tmp_path):
        cfg = _config(tmp_path, synth={"profile": "nope"})
        assert main(["eval", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, override", [
    ("detect", {"epsilon": "abc"}),
    ("detect", {"epsilon": [1]}),
    ("detect", {"epsilon": True}),
    ("eval", {"grid": "ab"}),
    ("eval", {"grid": [2.0]}),
    ("eval", {"grid": [-0.1]}),
    ("eval", {"synth": {"n_train": "x"}}),
    ("eval", {"synth": "x"}),
    ("eval", {"seed": "x"}),
    ("eval", {"paths": "x"}),
    ("train", {"paths": {"model": 5}}),
    ("train", {"mask_rules": 5}),
    ("train", {"format_template": 5}),
    ("eval", {"grid": []}),
    ("train", {"parsers": []}),
    ("train", {"parsers": 0}),
    ("train", {"parsers": ""}),
    ("train", {"parsers": False}),
    ("train", {"parsers": None}),
    ("train", {"paths": {"model": ""}}),
    ("train", {"paths": {"chain": ""}}),
    ("train", {"parsers": {"drain": False}}),
])
def test_bad_config_value_is_config_error(tmp_path, command, override):
    log = tmp_path / "in.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
    bundle = tmp_path / "m.bundle"
    assert main(["train", "--config", str(_config(tmp_path)), "--input", str(log),
                 "--model", str(bundle)]) == 0
    out = ["--out", str(tmp_path / "out")]
    argv = {"train": ["--input", str(log)],  # the bundle path comes from the config
            "detect": ["--input", str(log), "--model", str(bundle), *out],
            "eval": out}[command]
    proc = _run_cli(command, "--config", str(_config(tmp_path, **override)), *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    schema_keys = {"format_template", "mask_rules"}  # a bad one's message names it alone
    assert {key for key in schema_keys if key in proc.stderr} == \
        schema_keys & set(override), proc.stderr


@pytest.mark.parametrize("bad", [{"parsers": {"drain": {"depth": 1}}},
                                 {"paths": {"model": 5}}],
                         ids=["parser-parameter", "model-path"])
def test_config_error_leaves_the_chain_untouched(tmp_path, capsys, bad):
    """A ``train`` that exits 2 appends nothing to the chain, so the rerun
    that follows records each training line once."""
    out = tmp_path / "corpus"
    assert main(["synth", "--seed", "1", "--train", "50", "--test", "10",
                 "--anomalies", "2", "--out", str(out)]) == 0
    chain = tmp_path / "audit.chain"
    paths = {"chain": str(chain), "model": str(tmp_path / "m.bundle")}
    train = ["train", "--input", str(out / "train.log"), "--config"]
    bad_cfg = _config(tmp_path, **{**bad, "paths": {**paths, **bad.get("paths", {})}})
    assert main([*train, str(bad_cfg)]) == 2
    assert not chain.exists()
    assert main([*train, str(_config(tmp_path, paths=paths))]) == 0
    capsys.readouterr()
    assert main(["verify-chain", "--store", str(chain)]) == 0
    assert capsys.readouterr().out == "chain valid: 50 entries\n"


@pytest.mark.parametrize("command, flag, default_output", [
    ("train", "--model", "model.bundle"),
    ("train", "--format", "model.bundle"),
    ("detect", "--out", "alarms.jsonl"),
], ids=["train-model", "train-format", "detect-out"])
def test_empty_flag_is_config_error(tmp_path, monkeypatch, capsys, command, flag,
                                    default_output):
    """A flag given as ``""`` wins over its default and is rejected; it is
    not dropped in favour of the default output path."""
    log = tmp_path / "in.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
    bundle = tmp_path / "m.bundle"
    assert main(["train", "--input", str(log), "--model", str(bundle)]) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = {"train": [], "detect": ["--model", str(bundle)]}[command]
    assert main([command, "--input", str(log), *argv, flag, ""]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / default_output).exists()


@pytest.mark.parametrize("command, override", [
    ("train", {"parsers": {"drain": {"depth": 1}}}),
    ("detect", {"paths": {"alarms": 5}}),
    ("eval", {"paths": {"report": 5}}),
    ("eval", {"parsers": {"spell": {"lcs_threshold": 2}}}),
], ids=["train-parser", "detect-alarms", "eval-report", "eval-parser"])
def test_settings_are_checked_before_any_work(tmp_path, monkeypatch, command, override):
    """A bad setting is reported before the command reads or synthesizes
    its input."""
    log = tmp_path / "in.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
    bundle = tmp_path / "m.bundle"
    assert main(["train", "--input", str(log), "--model", str(bundle)]) == 0

    def forbidden(*args, **kwargs):
        pytest.fail("input read before the settings were checked")
    monkeypatch.setattr(cli, "read_log_file", forbidden)
    monkeypatch.setattr(evalharness, "load_corpus", forbidden)
    monkeypatch.setattr(evalharness, "synth_corpus", forbidden)
    argv = {"train": ["--input", str(log)],
            "detect": ["--input", str(log), "--model", str(bundle)],
            "eval": []}[command]
    assert main([command, "--config", str(_config(tmp_path, **override)), *argv]) == 2


@pytest.mark.parametrize("command, key", [
    ("train", "model"), ("train", "chain"), ("detect", "alarms"), ("eval", "report"),
], ids=["train-model", "train-chain", "detect-alarms", "eval-report"])
def test_output_directory_is_checked_before_any_work(tmp_path, monkeypatch, capsys,
                                                     command, key):
    """An output path whose directory does not exist is a configuration
    error, reported before the command reads or synthesizes its input."""
    log = tmp_path / "in.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
    bundle = tmp_path / "m.bundle"
    assert main(["train", "--input", str(log), "--model", str(bundle)]) == 0

    def forbidden(*args, **kwargs):
        pytest.fail("input read before the settings were checked")
    monkeypatch.setattr(cli, "read_log_file", forbidden)
    monkeypatch.setattr(evalharness, "load_corpus", forbidden)
    monkeypatch.setattr(evalharness, "synth_corpus", forbidden)
    argv = {"train": ["--input", str(log)],
            "detect": ["--input", str(log), "--model", str(bundle)],
            "eval": []}[command]
    capsys.readouterr()
    cfg = _config(tmp_path, paths={key: str(tmp_path / "nodir" / "out")})
    assert main([command, "--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: paths.{key} ")
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("key", ["model", "chain"])
def test_missing_output_directory_leaves_the_chain_untouched(tmp_path, capsys, key):
    """``train`` with an output in a missing directory exits 2 before it
    appends to the chain, so the corrected rerun records each line once."""
    out = tmp_path / "corpus"
    assert main(["synth", "--seed", "1", "--train", "50", "--test", "10",
                 "--anomalies", "2", "--out", str(out)]) == 0
    chain = tmp_path / "audit.chain"
    paths = {"chain": str(chain), "model": str(tmp_path / "m.bundle")}
    train = ["train", "--input", str(out / "train.log"), "--config"]
    bad = {**paths, key: str(tmp_path / "nodir" / Path(paths[key]).name)}
    assert main([*train, str(_config(tmp_path, paths=bad))]) == 2
    assert not chain.exists() and not (tmp_path / "nodir").exists()
    assert main([*train, str(_config(tmp_path, paths=paths))]) == 0
    capsys.readouterr()
    assert main(["verify-chain", "--store", str(chain)]) == 0
    assert capsys.readouterr().out == "chain valid: 50 entries\n"


def test_failed_bundle_write_leaves_the_chain_untouched(tmp_path, capsys):
    """``train`` appends to the chain only once the bundle is written, so a
    bundle write that fails adds no entry and the corrected rerun records
    each line once."""
    out = tmp_path / "corpus"
    assert main(["synth", "--seed", "1", "--train", "50", "--test", "10",
                 "--anomalies", "2", "--out", str(out)]) == 0
    chain = tmp_path / "audit.chain"
    model = tmp_path / "m.bundle"
    model.mkdir()  # the rename onto a directory fails
    train = ["train", "--input", str(out / "train.log"), "--model", str(model),
             "--config", str(_config(tmp_path, paths={"chain": str(chain)}))]
    assert main(train) == 3
    capsys.readouterr()
    assert main(["verify-chain", "--store", str(chain)]) == 0
    assert capsys.readouterr().out == "chain valid: 0 entries\n"
    model.rmdir()
    assert main(train) == 0
    capsys.readouterr()
    assert main(["verify-chain", "--store", str(chain)]) == 0
    assert capsys.readouterr().out == "chain valid: 50 entries\n"


@pytest.mark.parametrize("source, flag", [
    ("files", ["--seed", "3"]),
    ("files", ["--profile", "hdfs"]),
    ("synthetic", ["--format", "<Nope> <Content>"]),
], ids=["files-seed", "files-profile", "synthetic-format"])
def test_eval_flag_its_corpus_source_does_not_read_is_config_error(
        tmp_path, monkeypatch, capsys, source, flag):
    """``--seed`` and ``--profile`` shape only a synthetic corpus and
    ``--format`` only one read from files; given for the other source, the
    flag is rejected before any read instead of being ignored."""
    paths = {key: str(tmp_path / key) for key in ("corpus", "labels", "split")}
    for path in paths.values():
        Path(path).write_text("", encoding="utf-8")

    def forbidden(*args, **kwargs):
        pytest.fail("corpus read before the settings were checked")
    monkeypatch.setattr(evalharness, "load_corpus", forbidden)
    monkeypatch.setattr(evalharness, "synth_corpus", forbidden)
    cfg = _config(tmp_path, **({"paths": paths} if source == "files" else {}))
    report = tmp_path / "sweep.csv"
    assert main(["eval", "--config", str(cfg), "--out", str(report), *flag]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag[0]} ")
    assert not report.exists()


def _three_line_eval(tmp_path, labels, split):
    """Run ``eval`` on a 3-line corpus with the given sidecar rows."""
    log = tmp_path / "corpus.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n"
                   "2019-06-01 00:00:01 SYS1 ETH0 Boot ok\n"
                   "2019-06-01 00:00:02 SYS1 ETH0 Boot failed!\n", encoding="utf-8")
    (tmp_path / "labels.csv").write_text("line_id,label\n" + labels,
                                         encoding="utf-8")
    (tmp_path / "split.csv").write_text("line_id,part\n" + split, encoding="utf-8")
    paths = {"corpus": str(log), "labels": str(tmp_path / "labels.csv"),
             "split": str(tmp_path / "split.csv")}
    return _run_cli("eval", "--config", str(_config(tmp_path, paths=paths)),
                    "--out", str(tmp_path / "sweep.csv"))


def test_three_line_corpus_evaluates(tmp_path):
    proc = _three_line_eval(tmp_path, "1,normal\n2,normal\n3,anomaly\n",
                            "1,train\n2,train\n3,test\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("labels, split", [
    ("1,normal\n2,normal\n", "1,train\n2,train\n3,test\n"),
    ("1,normal\n2,normal\n3,anomaly\n", "1,train\n2,train\n3,tset\n"),
    ("1,normal\n2,normal\n3,anomaly\n", "1,train\n2,train\n3,test\n4,test\n"),
    ("1,normal\n2,normal\n3,anomaly\n", "1,train\n2,train\n2,test\n3,test\n"),
    ("1,normal\n2,normal\n3,Anomaly\n", "1,train\n2,train\n3,test\n"),
    ("1,normal\n2,normal\n3,anomaly\n3,normal\n", "1,train\n2,train\n3,test\n"),
    ("1,normal\n2,normal\n3,anomaly\n", "1,train\n2,train\n"),
    ("1,normal\n2,normal\n3,normal\n", "1,train\n2,train\n3,train\n"),
    ("1,normal\n2,normal\n3,anomaly,x\n", "1,train\n2,train\n3,test\n"),
    ("1,normal\n2,normal\n3,anomaly\n", "1,train\ntwo,train\n3,test\n"),
    ("1,normal\n2,anomaly\n3,anomaly\n", "1,train\n2,train\n3,test\n"),
    ("1,normal\n2,normal\n\u0663,anomaly\n", "1,train\n2,train\n3,test\n"),
], ids=["test-line-without-label", "unknown-split-part", "split-id-past-log",
        "split-id-repeated", "unknown-label", "label-id-repeated",
        "split-leaves-line-out", "split-without-test-line", "row-with-three-fields",
        "non-integer-id", "training-line-not-normal", "id-of-non-ascii-digit"])
def test_bad_sidecar_is_data_error(tmp_path, labels, split):
    proc = _three_line_eval(tmp_path, labels, split)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("keys", [("corpus",), ("labels",), ("split",),
                                  ("corpus", "labels"), ("corpus", "split"),
                                  ("labels", "split")], ids="+".join)
def test_eval_with_some_corpus_paths_is_config_error(tmp_path, keys):
    """``eval`` reads a corpus from files only with all three paths; one or
    two of them is a config error that names the missing ones, not a quiet
    fall-back to a synthetic corpus."""
    for name in ("corpus", "labels", "split"):
        (tmp_path / name).write_text("", encoding="utf-8")
    paths = {key: str(tmp_path / key) for key in keys}
    proc = _run_cli("eval", "--config", str(_config(tmp_path, paths=paths)),
                    "--out", str(tmp_path / "sweep.csv"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    missing = [f"paths.{k}" for k in ("corpus", "labels", "split") if k not in keys]
    assert proc.stderr.splitlines()[0].endswith("missing " + ", ".join(missing))
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("where", ["directory", "not-a-chain"])
def test_unusable_chain_path_is_data_error(tmp_path, where):
    log = tmp_path / "in.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
    chain = tmp_path / "chain.d"
    if where == "directory":
        chain.mkdir()
        (chain / "entry").write_bytes(b"x" * 100)  # a directory of non-zero size
    else:
        chain.write_bytes(b"x" * 100)  # a file that fails verification
    cfg = _config(tmp_path, paths={"chain": str(chain)})
    proc = _run_cli("train", "--config", str(cfg), "--input", str(log),
                    "--model", str(tmp_path / "m.bundle"))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not (tmp_path / "m.bundle").exists()


def test_failed_bundle_write_leaves_no_temporary_file(tmp_path):
    log = tmp_path / "in.log"
    log.write_text("2019-06-01 00:00:00 SYS1 ETH0 Boot ok\n", encoding="utf-8")
    model = tmp_path / "m.b"
    model.mkdir()  # the rename onto a directory fails
    proc = _run_cli("train", "--config", str(_config(tmp_path)), "--input", str(log),
                    "--model", str(model))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not list(tmp_path.glob("*.tmp"))


CLI_FLAGS = {
    "synth": {"--config", "--seed", "--out", "--profile", "--train", "--test",
              "--anomalies"},
    "train": {"--config", "--format", "--input", "--model"},
    "detect": {"--config", "--out", "--input", "--model", "--epsilon"},
    "eval": {"--config", "--seed", "--out", "--format", "--grid", "--profile"},
    "verify-chain": {"--config", "--store"},
}


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_subcommand_has_only_the_flags_it_reads(command):
    proc = _run_cli(command, "--help")
    assert proc.returncode == 0, proc.stderr
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", proc.stdout)) - {"--help"}
    assert flags == CLI_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["detect", "--format", "<X> <Content>"],
    ["detect", "--seed", "1"],
    ["verify-chain", "--out", "x"],
    ["train", "--seed", "1"],
    ["train", "--out", "m.bundle"],
    ["synth", "--format", "X"],
], ids=lambda argv: " ".join(argv[:2]))
def test_flag_the_subcommand_does_not_read_is_usage_error(argv):
    proc = _run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["detect", "--seed", "1"], 2),
    ([], 2),
    (["--help"], 0),
    (["verify-chain", "--help"], 0),
], ids=["unknown-flag", "no-command", "help", "command-help"])
def test_main_returns_usage_codes(argv, code, capsys):
    """``main`` returns argparse's exit code instead of raising SystemExit,
    after argparse has printed its usage or help text."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (err if code else out).startswith("usage: logconformal")


def test_eval_trains_on_the_lines_train_trains_on(tmp_path, monkeypatch, capsys):
    """A training line with no content is dropped, with the same warning, by
    ``train`` and by ``eval`` reading the same corpus from files."""
    out = tmp_path / "corpus"
    assert main(["synth", "--seed", "1", "--train", "50", "--test", "10",
                 "--anomalies", "2", "--out", str(out)]) == 0
    for name in ("corpus.log", "train.log"):
        lines = (out / name).read_text(encoding="utf-8").split("\n")
        lines[2] = " ".join(lines[2].split(" ")[:4]) + " "  # header, no content
        (out / name).write_text("\n".join(lines), encoding="utf-8")
    trained_on = []
    train_models = cli._train_models

    def recording(cfg, records):
        trained_on.append(records)
        return train_models(cfg, records)
    monkeypatch.setattr(cli, "_train_models", recording)
    cfg = _config(tmp_path, paths={"corpus": str(out / "corpus.log"),
                                   "labels": str(out / "labels.csv"),
                                   "split": str(out / "split.csv")})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--input", str(out / "train.log"),
                 "--model", str(tmp_path / "m.bundle")]) == 0
    train_err = capsys.readouterr().err
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert capsys.readouterr().err == train_err == \
        "warning: skipped 1 unparsable or empty lines\n"
    assert trained_on[0] == trained_on[1]
    assert [r.line_id for r in trained_on[0]] == [1, 2, *range(4, 51)]


def _records_by_layer(monkeypatch) -> dict[str, list]:
    """Record, by layer, every record a layer function is handed."""
    seen = {}

    def capture(owner, attr, pick):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            seen.setdefault(attr, []).extend(pick(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)
    capture(parsers, "fit", lambda name, params, records: records)
    capture(conformal, "calibrate", lambda ts, records: records)
    capture(detector, "detect_batch", lambda models, records, cfg: records)
    capture(detector, "write_alarms", lambda fh, records, verdicts: records)
    capture(evalharness, "significance_sweep", lambda models, corpus, grid: corpus.records)
    capture(ChainStore, "append", lambda store, record: [record])
    return seen


@pytest.mark.parametrize("command, layers", [
    ("train", {"fit", "calibrate"}),
    ("train with a chain", {"fit", "calibrate", "append"}),
    ("detect", {"detect_batch", "write_alarms"}),
    ("eval from files", {"fit", "calibrate", "significance_sweep"}),
])
def test_only_a_chain_payload_reads_header_fields(workdir, monkeypatch, command, layers):
    """Every layer gets records without header fields, except under ``train``
    with a chain store, whose payloads hold them."""
    tmp_path, cfg = workdir
    corpus = tmp_path / "corpus"
    bundle = tmp_path / "m.bundle"
    assert main(["train", "--config", str(cfg), "--input", str(corpus / "train.log"),
                 "--model", str(bundle)]) == 0
    paths = {"train with a chain": {"chain": str(tmp_path / "audit.chain")},
             "eval from files": {"corpus": str(corpus / "corpus.log"),
                                 "labels": str(corpus / "labels.csv"),
                                 "split": str(corpus / "split.csv")}}
    cfg = _config(tmp_path, paths=paths.get(command, {}))
    argv = {"train": ["--input", str(corpus / "train.log"), "--model", str(bundle)],
            "detect": ["--input", str(corpus / "test.log"), "--model", str(bundle),
                       "--out", str(tmp_path / "alarms.jsonl")],
            "eval": ["--out", str(tmp_path / "sweep.csv")]}[command.split()[0]]
    seen = _records_by_layer(monkeypatch)
    assert main([command.split()[0], "--config", str(cfg), *argv]) == 0
    assert set(seen) == layers
    for layer, records in seen.items():
        assert records
        if layer == "append":
            assert all(type(r.headers) is dict and "SysId" in r.headers for r in records)
        else:
            assert all(r.headers is NO_HEADERS for r in records)


def test_chain_holds_the_header_fields_of_the_lines_train_fits(tmp_path, capsys):
    """``train`` fits on records read without header fields and chains the
    same records with them, read again: the chain holds exactly the frames of
    the trainable records read whole, whatever line endings, unparsable or
    empty lines and invalid bytes the input has."""
    raw = [b"2019-06-01 00:00:01 SYS1 ETH0 pump 7 ok\r\n",
           b"garbage\n",  # unparsable
           b"2019-06-01 00:00:02 SYS2 ETH1 \r\n",  # content masks to nothing
           b"2019-06-01 00:00:03 SYS3 ETH0 valve \xff open 10.0.0.1:80\r\n",
           b"2019-06-01 00:00:04 SYS1 ETH2 pump 8 ok"]
    log = tmp_path / "in.log"
    log.write_bytes(b"".join(raw))
    schema = compile_schema(IIOT_PROFILE.format_template, IIOT_PROFILE.mask_rules)
    lines = [line.decode("utf-8", errors="replace") for line in raw]
    records = [r for r in read_records(lines, schema, headers=True)[0] if r.tokens]
    assert [r.line_id for r in records] == [1, 4, 5]
    assert records[1].headers["SysId"] == "SYS3" and "\ufffd" in records[1].content
    chain = tmp_path / "audit.chain"
    assert main(["train", "--config", str(_config(tmp_path, paths={"chain": str(chain)})),
                 "--input", str(log), "--model", str(tmp_path / "m.bundle")]) == 0
    assert chain.read_bytes() == reference_chain.frames(records)
    capsys.readouterr()
    assert main(["verify-chain", "--store", str(chain)]) == 0
    assert capsys.readouterr().out == f"chain valid: {len(records)} entries\n"


def _train_rewriting_input(tmp_path, monkeypatch, rewrite):
    """Run ``train`` with a chain on a 50-line log that ``rewrite(lines)``
    replaces once the bundle is written, before the chain pass reads it.
    Returns the exit code and the chain path."""
    out = tmp_path / "corpus"
    assert main(["synth", "--seed", "1", "--train", "50", "--test", "10",
                 "--anomalies", "2", "--out", str(out)]) == 0
    log = out / "train.log"
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 50
    save_bundle = conformal.save_bundle

    def save_then_rewrite(*args, **kwargs):
        save_bundle(*args, **kwargs)
        log.write_text("".join(f"{line}\n" for line in rewrite(list(lines))),
                       encoding="utf-8")
    monkeypatch.setattr(conformal, "save_bundle", save_then_rewrite)
    chain = tmp_path / "audit.chain"
    cfg = _config(tmp_path, paths={"chain": str(chain), "model": str(tmp_path / "m.bundle")})
    code = main(["train", "--config", str(cfg), "--input", str(log)])
    return code, chain


def _with_line(line_no, text):
    def rewrite(lines):
        lines[line_no - 1] = text(lines[line_no - 1])
        return lines
    return rewrite


@pytest.mark.parametrize("rewrite, message, entries", [
    (_with_line(7, lambda line: line + " tampered"), "line 7 changed", 6),
    (_with_line(7, lambda line: "garbage"), "line 7 changed", 6),
    (lambda lines: lines[:40], "ends before line 41", 40),
], ids=["content", "unparsable", "cut-short"])
def test_input_changed_before_the_chain_pass_is_data_error(tmp_path, monkeypatch, capsys,
                                                           rewrite, message, entries):
    """A training line that no longer reads as it did when ``train`` fitted
    on it stops the chain pass with exit 3, naming the input and the line;
    the entries appended before it stay and verify."""
    code, chain = _train_rewriting_input(tmp_path, monkeypatch, rewrite)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.log" in err and message in err, err
    assert main(["verify-chain", "--store", str(chain)]) == 0
    assert capsys.readouterr().out == f"chain valid: {entries} entries\n"


def test_lines_appended_before_the_chain_pass_are_not_chained(tmp_path, monkeypatch):
    """A log that grows while ``train`` runs chains the lines it fitted on, and
    no others: the chain is the one an untouched input gives."""
    untouched = tmp_path / "untouched"
    grown = tmp_path / "grown"
    untouched.mkdir()
    grown.mkdir()
    assert _train_rewriting_input(untouched, monkeypatch, lambda lines: lines)[0] == 0
    extra = "2019-06-01 23:59:59 SYS9 ETH9 late line 5"
    code, chain = _train_rewriting_input(grown, monkeypatch,
                                         lambda lines: [*lines, extra, extra])
    assert code == 0
    assert chain.read_bytes() == (untouched / "audit.chain").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_chain_needs_a_regular_training_file(tmp_path, monkeypatch, capsys):
    """``train`` with a chain reads its input twice, so an input that is not a
    regular file is a configuration error, reported before any read."""
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def forbidden(*args, **kwargs):
        pytest.fail("input read before the input was checked")
    monkeypatch.setattr(cli, "read_log_file", forbidden)
    chain, bundle = tmp_path / "audit.chain", tmp_path / "m.bundle"
    cfg = _config(tmp_path, paths={"chain": str(chain), "model": str(bundle)})
    assert main(["train", "--config", str(cfg), "--input", str(fifo)]) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert not chain.exists() and not bundle.exists()
