"""Each subcommand loads only the package modules it runs, and ``hashlib``
only when it opens a chain; the package root still exports every public name.

A command runs in a child process, which reports the modules it has loaded
when ``main`` returns.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logconformal
from logconformal import cli, evalharness
from logconformal.cli import main
from logconformal.ingest import ChainStore, LogRecord

# every name ``logconformal/__init__.py`` imported eagerly, by defining module
ROOT_EXPORTS = {
    "conformal": "CalibrationModel PValueSet calibrate pvalue pvalues_for",
    "detector": "ANOMALY NORMAL DetectorConfig Verdict decide detect_batch",
    "ingest": "ChainStore HeaderSchema LogRecord compile_schema preprocess verify_chain",
    "nonconformity": "ScoreParams edit_script weighted_score",
    "parsers": "DrainParams IPLoMParams LogClusterParams SpellParams fit match_record",
    "templates": "WILDCARD EventTemplate TemplateSet",
}
MINERS = {f"logconformal.parsers.{name}" for name in ("drain", "spell", "iplom",
                                                      "logcluster")}
HASHLIB = {"hashlib", "_hashlib"}  # _hashlib loads OpenSSL's libcrypto

_PROBE = """
import json, sys
from logconformal.cli import main
from logconformal.ingest import ChainStore, LogRecord
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _modules_after(*argv) -> set[str]:
    """Run ``main(argv)`` in a fresh interpreter; the modules it loaded. The
    command must succeed."""
    pkg_dir = str(Path(logconformal.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (pkg_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small synthetic corpus and a bundle trained on it."""
    tmp = tmp_path_factory.mktemp("trained")
    assert main(["synth", "--seed", "3", "--train", "300", "--test", "30",
                 "--anomalies", "5", "--out", str(tmp / "corpus")]) == 0
    assert main(["train", "--input", str(tmp / "corpus" / "train.log"),
                 "--model", str(tmp / "m.bundle")]) == 0
    return tmp


def test_verify_chain_loads_only_cli_errors_and_ingest(tmp_path):
    store = tmp_path / "chain.bin"
    store.write_bytes(b"")
    modules = _modules_after("verify-chain", "--store", str(store))
    assert {m for m in modules if m.split(".")[0] == "logconformal"} == {
        "logconformal", "logconformal.cli", "logconformal.errors", "logconformal.ingest"}


def test_verify_chain_loads_hashlib_only_for_a_non_empty_store(tmp_path):
    store = tmp_path / "chain.bin"
    store.write_bytes(b"")
    assert not _modules_after("verify-chain", "--store", str(store)) & HASHLIB
    with ChainStore(store) as chain:
        chain.append(LogRecord(1, {"SysId": "S1"}, "pump ok", ("pump", "ok")))
    assert HASHLIB <= _modules_after("verify-chain", "--store", str(store))


def test_detect_loads_no_generator_and_no_miner(trained):
    modules = _modules_after("detect", "--model", str(trained / "m.bundle"),
                             "--input", str(trained / "corpus" / "test.log"),
                             "--out", str(trained / "alarms.jsonl"))
    assert "logconformal.detector" in modules
    assert "logconformal.evalharness" not in modules
    assert not modules & MINERS
    assert not modules & HASHLIB


def test_train_loads_no_generator_and_no_detector(trained, tmp_path):
    modules = _modules_after("train", "--input", str(trained / "corpus" / "train.log"),
                             "--model", str(tmp_path / "m.bundle"))
    assert MINERS <= modules
    assert "logconformal.evalharness" not in modules
    assert "logconformal.detector" not in modules
    assert not modules & HASHLIB


def test_train_with_a_chain_loads_hashlib(trained, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"paths": {"chain": str(tmp_path / "audit.chain")}}),
                      encoding="utf-8")
    modules = _modules_after("train", "--config", str(config),
                             "--input", str(trained / "corpus" / "train.log"),
                             "--model", str(tmp_path / "m.bundle"))
    assert HASHLIB <= modules


def test_eval_loads_no_hashlib(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 3, "synth": {"n_train": 300, "n_test": 30,
                                                       "n_anomalies": 5}}),
                      encoding="utf-8")
    modules = _modules_after("eval", "--config", str(config), "--grid", "0.27",
                             "--out", str(tmp_path / "sweep.csv"))
    assert "logconformal.evalharness" in modules
    assert not modules & HASHLIB


@pytest.mark.parametrize("module", sorted(ROOT_EXPORTS))
def test_root_names_resolve_to_their_module(module):
    owner = importlib.import_module(f"logconformal.{module}")
    for name in ROOT_EXPORTS[module].split():
        assert getattr(logconformal, name) is getattr(owner, name)
        assert name in dir(logconformal)


def test_unknown_root_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        logconformal.no_such_name  # noqa: B018


def test_profile_choices_are_the_generator_profiles():
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command in ("synth", "eval"):
        profile = next(action for action in commands[command]._actions
                       if action.dest == "profile")
        assert list(profile.choices) == sorted(evalharness.PROFILES)
