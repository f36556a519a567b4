"""Workload definitions and input generation for the benchmark.

Every input file is derived from the seed: the corpus comes from
``evalharness.synth_corpus`` and, on the unique-line workloads, a
benchmark-side transform appends one letters-only token to each test line so
that no two test lines share a masked token sequence. The program under test
only ever sees the written files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from logconformal import evalharness

#: Planted anomalies per thousand test lines, as in the paper's setup.
ANOMALIES_PER_MILLE = 788

EPSILON = "0.4"

#: Keys of ``write_inputs``'s result, one per generated file.
INPUT_FILES = ("log", "labels", "split", "train_log", "test_log", "one_log")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    n_train: int
    n_test: int
    unique_test_lines: bool
    chain: bool

    @property
    def n_anomalies(self) -> int:
        return self.n_test * ANOMALIES_PER_MILLE // 1000


# iiot-repeat: token sequences repeat, so the caches absorb scoring and time
#   goes to ingest, parser fit, chain append/verify and per-line decide/render.
# hdfs-unique: every test line misses the detect/sweep caches, calibrate is
#   the largest train layer, and each line meets 36 templates.
# Sizes are set so that one pass of the pipeline takes about 9 s: the host's
# speed changes from second to second, and a run has to repeat the whole
# pipeline about six times within its time budget for the per-run medians
# to be steady.
WORKLOADS = {
    w.name: w for w in (
        Workload("iiot-repeat", "iiot", 25_000, 10_000, False, True),
        Workload("hdfs-unique", "hdfs", 15_000, 1_000, True, False),
    )
}


def unique_token(index: int) -> str:
    """Letters-only token, distinct for every index, that no mask rule hits."""
    letters = ""
    while True:
        letters = chr(ord("a") + index % 26) + letters
        index //= 26
        if index == 0:
            return "uq" + letters


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write corpus.log, labels.csv, split.csv, train.log, test.log, one.log."""
    profile = evalharness.PROFILES[workload.profile]
    corpus = evalharness.synth_corpus(seed=seed, n_train=workload.n_train,
                                      n_test=workload.n_test,
                                      n_anomalies=workload.n_anomalies,
                                      profile=profile)
    if workload.unique_test_lines:
        raw = list(corpus.raw_lines)
        for j in range(workload.n_test):
            raw[workload.n_train + j] += " " + unique_token(j)
        corpus = dataclasses.replace(corpus, raw_lines=raw)
    paths = evalharness.write_corpus(corpus, out_dir)
    paths["one_log"] = out_dir / "one.log"
    paths["one_log"].write_text(corpus.raw_lines[workload.n_train] + "\n",
                                encoding="utf-8")
    return paths


def write_config(workload: Workload, inputs: dict[str, Path], run_dir: Path) -> Path:
    """CLI config for one pipeline pass, with every output inside ``run_dir``.

    The header format and mask rules are written out explicitly so results
    do not depend on the CLI's defaults.
    """
    profile = evalharness.PROFILES[workload.profile]
    paths = {
        "train": str(inputs["train_log"]), "test": str(inputs["test_log"]),
        "corpus": str(inputs["log"]), "labels": str(inputs["labels"]),
        "split": str(inputs["split"]),
        "model": str(run_dir / "model.bundle"),
        "alarms": str(run_dir / "alarms.jsonl"),
        "report": str(run_dir / "sweep.csv"),
    }
    if workload.chain:
        paths["chain"] = str(run_dir / "audit.chain")
    cfg = {"format_template": profile.format_template,
           "mask_rules": [list(rule) for rule in profile.mask_rules],
           "paths": paths}
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path
