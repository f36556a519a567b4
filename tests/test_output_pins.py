"""Output bytes pinned at seed 1.

Each profile runs ``synth``, ``train`` (with a chain store), ``detect`` at
the default epsilon and ``eval`` in-process through ``cli.main``, and the
sha256 of every file they write is compared with a recorded digest. A change
that alters a corpus, bundle, alarm, sweep or chain byte fails here; if the
change is meant, record the new digests and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from logconformal import evalharness
from logconformal.cli import main

SIZES = ["--seed", "1", "--train", "2000", "--test", "200", "--anomalies", "50"]

# sha256 per output file, keyed by its ``paths`` config key
PINS = {
    "iiot": {
        "corpus":
            "8a921cb20f2ce6e1ea68f1a958165d42cda42668f591dc3e73bed07b82e4bd22",
        "model":
            "a339adf49bbe236badeb4d483ea8750f1bf4b4ced7d65c952fda88ee52526318",
        "alarms":
            "51c04d8c16a4a09005e26520c14dc4d6bc23ed9c5ab095469239b5d812c7b381",
        "report":
            "95e914044916db1d059690fc18d567d5d0695877b2781b8c23f53fb9eac177ac",
        "chain":
            "6817450930e5a1a34e77191d8e53d4ac3f2b9a7e46a9044962e7d2848e97b390",
    },
    "hdfs": {
        "corpus":
            "be0b7977669eca589473270bcfb10fe8fc446d61ca2f2544f069bda39a759b48",
        "model":
            "0883842556df16a6ffe1c80ddc0224c6d29034643147e28a47d5cb6f89ba90eb",
        "alarms":
            "6f9aa3ba2d2e7e5ca5bdfc7c7bb9506d941f2bb422126e55a4dabf8a98e942dd",
        "report":
            "95e914044916db1d059690fc18d567d5d0695877b2781b8c23f53fb9eac177ac",
        "chain":
            "f749c4def337fcc556f9bf882ebacfdb14e40cefffcd5c4fa301d73ea38f3197",
    },
}


def run_pipeline(profile_name, tmp_path, parser_params=None) -> dict[str, str]:
    data = tmp_path / "data"
    assert main(["synth", "--profile", profile_name, *SIZES, "--out", str(data)]) == 0
    profile = evalharness.PROFILES[profile_name]
    outputs = {"corpus": data / "corpus.log", "model": tmp_path / "model.bundle",
               "alarms": tmp_path / "alarms.jsonl", "report": tmp_path / "sweep.csv",
               "chain": tmp_path / "audit.chain"}
    paths = {"train": data / "train.log", "test": data / "test.log",
             "labels": data / "labels.csv", "split": data / "split.csv", **outputs}
    cfg = tmp_path / "config.json"
    config = {
        "format_template": profile.format_template,
        "mask_rules": [list(rule) for rule in profile.mask_rules],
        "paths": {key: str(path) for key, path in paths.items()}}
    if parser_params is not None:
        config["parsers"] = parser_params
    cfg.write_text(json.dumps(config), encoding="utf-8")
    for command in ("train", "detect", "eval"):
        assert main([command, "--config", str(cfg)]) == 0
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in outputs.items()}


@pytest.mark.parametrize("profile_name", sorted(PINS))
def test_output_bytes_pinned(profile_name, tmp_path):
    assert run_pipeline(profile_name, tmp_path) == PINS[profile_name]


# Non-default miner parameters: a small drain fan-out, a pooling iplom
# threshold and the smallest logcluster support exercise branches the
# defaults never reach. Same seed and sizes as PINS; the digests were
# recorded with the per-line miners of tests/perline_miners.py.
TUNED_PARSERS = {
    "drain": {"depth": 5, "sim_threshold": 0.7, "max_children": 2},
    "spell": {"lcs_threshold": 0.7},
    "iplom": {"partition_support_threshold": 0.05, "lower_bound": 0.5,
              "upper_bound": 0.6},
    "logcluster": {"min_support": 2},
}
TUNED_PINS = {
    "iiot": {**PINS["iiot"],
             "model":
                 "257bd160a97776cc54bb7277a02cc8c1a2f09868598837c5d5b249a459432cfa",
             "report":
                 "d51b3e6d1a80b983b243bab176a944d42b24c64d38474e1384e5428becb28586"},
    "hdfs": {**PINS["hdfs"],
             "model":
                 "ad84885e01ec4228dffce08581a3fd4cc24720aba312d939bd72653ddaf737cd",
             "report":
                 "8f0692d8096f9e374e24336f07b37c90e95e55d59f786a81da0f293fb0a51bf9"},
}


@pytest.mark.parametrize("profile_name", sorted(TUNED_PINS))
def test_output_bytes_pinned_tuned_parsers(profile_name, tmp_path):
    assert run_pipeline(profile_name, tmp_path, TUNED_PARSERS) == TUNED_PINS[profile_name]
