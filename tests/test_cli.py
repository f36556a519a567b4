import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logconformal
from logconformal.cli import main
from logconformal.evalharness import IIOT_PROFILE


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
    """Run the CLI in a child process, importing the package this test uses."""
    pkg_dir = str(Path(logconformal.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_dir, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "logconformal.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))


@pytest.fixture
def workdir(tmp_path):
    cfg = _config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    return tmp_path, cfg


class TestSynth:
    def test_writes_corpus_files(self, workdir):
        tmp_path, _ = workdir
        out = tmp_path / "corpus"
        for name in ("corpus.log", "labels.csv", "split.csv", "train.log", "test.log"):
            assert (out / name).exists()
        assert len((out / "corpus.log").read_text().splitlines()) == 480

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

    def test_missing_model_flag(self, workdir):
        tmp_path, cfg = workdir
        assert main(["detect", "--config", str(cfg),
                     "--input", str(tmp_path / "corpus" / "test.log")]) == 2


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
