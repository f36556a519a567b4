"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 perfbench/selftest.py

Trains and detects on a small corpus through the CLI, confirms the checks
accept the real outputs, then corrupts copies of the alarm file, bundle and
sweep report and confirms that each check fires. Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets up the import path to the checkout's package
from checks import (CheckFailed, anomaly_ids, check_bundle, check_digest,
                    check_sweep, read_alarms, sha256_file)
from workloads import EPSILON, Workload, write_config, write_inputs

N_TEST = 200
WORKLOAD = Workload("selftest", "iiot", 2000, N_TEST, True, False)


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    problems = []

    def expect_failure(label, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            print(f"ok    {label}: check fired ({exc})")
        else:
            problems.append(label)
            print(f"FAIL  {label}: check did not fire")

    try:
        inputs = write_inputs(WORKLOAD, 1, work / "inputs")
        cfg = ["--config", str(write_config(WORKLOAD, inputs, work))]
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        for argv in (["train", *cfg], ["detect", *cfg, "--epsilon", EPSILON],
                     ["eval", *cfg]):
            proc = run.run_cli(argv, env, work)
            if proc.code != 0:
                print(f"FAIL  {argv[0]} exited {proc.code}: {proc.stderr}")
                return 1

        alarms = work / "alarms.jsonl"
        lines = alarms.read_text(encoding="utf-8").splitlines()
        read_alarms(alarms, N_TEST)
        check_bundle(work / "model.bundle")
        check_sweep(work / "sweep.csv")
        pinned = {"alarms.jsonl": sha256_file(alarms)}
        check_digest(pinned, "alarms.jsonl", alarms)
        print(f"ok    real outputs pass ({len(lines)} alarm lines)")

        def corrupted(name, text):
            path = work / name
            path.write_text(text, encoding="utf-8")
            return path

        first = json.loads(lines[0])
        out_of_range = dict(first, line_id=N_TEST + 1)
        with_error = dict(first, error="boom")
        variants = {
            "truncated alarm line": [lines[0][:-5], *lines[1:]],
            "line_id out of range": [json.dumps(out_of_range), *lines[1:]],
            "verdict with error": [json.dumps(with_error), *lines[1:]],
            "repeated alarm line": [*lines, lines[0]],
        }
        for label, bad in variants.items():
            path = corrupted("bad.jsonl", "\n".join(bad) + "\n")
            expect_failure(label, read_alarms, path, N_TEST)

        flipped = lines[0].replace('"max_p":0.0', '"max_p":0.5', 1)
        if flipped == lines[0]:
            flipped = lines[0] + " "
        path = corrupted("flip.jsonl", "\n".join([flipped, *lines[1:]]) + "\n")
        read_alarms(path, N_TEST)  # still well-formed, so only the digest can tell
        expect_failure("changed alarm bytes vs pinned digest",
                       check_digest, pinned, "alarms.jsonl", path)

        bundle = (work / "model.bundle").read_text(encoding="utf-8")
        expect_failure("truncated bundle", check_bundle,
                       corrupted("bad.bundle", bundle[: len(bundle) // 2]))
        sweep = (work / "sweep.csv").read_text(encoding="utf-8").splitlines()
        expect_failure("sweep missing a row", check_sweep,
                       corrupted("bad.csv", "\n".join(sweep[:-1]) + "\n"))

        # A whole pass against wrong pins: each mismatch is a failed operation.
        wrong = {"outputs": {k: "0" * 64 for k in
                             ("model.bundle", "alarms.jsonl", "sweep.csv")}}
        ctx = run.Context(workload=WORKLOAD, env=env, inputs=inputs,
                          expected=wrong,
                          anomalies=anomaly_ids(inputs["labels"], WORKLOAD.n_train))
        pass_dir = work / "pass"
        pass_dir.mkdir()
        run.Pass(ctx, pass_dir).run()
        if len(ctx.failures) == 2 + run.DETECT_REPEATS:  # train, detects, eval
            print(f"ok    pass against wrong pins: {len(ctx.failures)} of "
                  f"{ctx.attempted} operations failed")
        else:
            problems.append("pass against wrong pins")
            print(f"FAIL  pass against wrong pins: failures {ctx.failures}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if problems:
        print(f"{len(problems)} check(s) did not fire: {', '.join(problems)}")
        return 1
    print("all checks fired")
    return 0


if __name__ == "__main__":
    sys.exit(main())
