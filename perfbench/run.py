"""Benchmark of the logconformal CLI pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload iiot-repeat --seed 1 --seconds 56 --trace 0

One run generates the workload's inputs from the seed, then repeats the CLI
pipeline (``train``, two one-line ``detect`` runs, two ``detect``, ``eval``,
two ``verify-chain``) as subprocesses, one at a time, until ``--seconds`` is
spent. A run of ``reference.py`` precedes every stage, and reported times
are scaled by it to a fixed host speed (see ``REFERENCE_S``). Every pass
starts in a fresh directory with a fresh chain file, and every output is
checked. The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, and with ``--trace 1`` the
per-layer metrics of one extra in-process pass whose layer calls are wrapped
in spans (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_OUTPUT = "6000 4 6000 846ce9de160b"
# The host's speed drifts by up to ±25% from one minute to the next (a pure
# Python loop shows it as much as the program does), so every reported time
# is scaled to a fixed host speed: one ``reference.py`` run precedes each
# stage of a pass, and each time is multiplied by REFERENCE_S / (median
# reference wall time of the run). REFERENCE_S is a fixed constant within the
# range of the reference's wall time (0.22-0.35 s) on the 2-vCPU machine the
# benchmark was built on, so scaled times read as seconds there. The
# unscaled medians are printed beside them.
REFERENCE_S = 0.25
# Runs per pass of the short commands, whose single timings spread most.
SETUP_REPEATS = 2
DETECT_REPEATS = 2
VERIFY_REPEATS = 2
CLI_TIMEOUT_S = 60  # a run must end within 180 s


def import_program() -> Path:
    """Import the package from this checkout's ``src``; return that directory.

    The directory is taken from ``logconformal.__file__``, so subprocesses get
    an absolute ``PYTHONPATH`` whatever their working directory.
    """
    src = ROOT / "src"
    if not (src / "logconformal" / "__init__.py").is_file():
        sys.exit(f"error: no logconformal package under {src}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(src))
    import logconformal
    pkg_src = Path(logconformal.__file__).resolve().parent.parent
    if pkg_src != src.resolve():
        sys.exit(f"error: imported logconformal from {pkg_src}, not {src}")
    return pkg_src


SRC = import_program()  # the imports below load the package

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import (EPSILON, INPUT_FILES, WORKLOADS, Workload,  # noqa: E402
                       write_config, write_inputs)


@dataclass
class Proc:
    wall_s: float
    maxrss_mb: float
    code: int
    stdout: str
    stderr: str


def launch(command: list[str], env: dict, work_dir: Path) -> Proc:
    """Run ``command`` alone through ``launch.py`` and wait for it.

    Wall time spans process start to exit; peak RSS comes from ``wait4``.
    """
    out_path, err_path = work_dir / "cli.out", work_dir / "cli.err"
    launched = subprocess.run(
        [sys.executable, str(LAUNCHER), str(CLI_TIMEOUT_S), str(out_path),
         str(err_path), *command],
        env=env, cwd=work_dir, check=True, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S + 30)
    report = json.loads(launched.stdout)
    return Proc(wall_s=report["wall_s"], maxrss_mb=report["maxrss_kb"] / 1024.0,
                code=report["code"],
                stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                stderr=err_path.read_text(encoding="utf-8", errors="replace"))


def run_cli(argv: list[str], env: dict, work_dir: Path) -> Proc:
    """Run ``python -m logconformal.cli argv`` alone and wait for it."""
    return launch([sys.executable, "-m", "logconformal.cli", *argv], env, work_dir)


@dataclass
class Context:
    workload: Workload
    env: dict
    inputs: dict
    expected: dict | None  # pinned digests, only at the pinned seed
    anomalies: set[int]
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    output_digests: dict[str, str] | None = None
    quality: dict[str, float] = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


class Pass:
    """One pipeline pass: each stage is one checked operation."""

    def __init__(self, ctx: Context, pass_dir: Path):
        self.ctx = ctx
        self.dir = pass_dir
        self.config = str(write_config(ctx.workload, ctx.inputs, pass_dir))
        self.digests: dict[str, str] = {}

    def op(self, stage: str, argv: list[str], check) -> Proc:
        ctx = self.ctx
        proc = run_cli(argv, ctx.env, self.dir)
        ctx.attempted += 1
        try:
            if proc.code != 0:
                raise CheckFailed(f"exit {proc.code}: {proc.stderr.strip()[-300:]}")
            if "skipped" in proc.stderr:
                raise CheckFailed(proc.stderr.strip())
            check(proc)
        except (CheckFailed, OSError, ValueError) as exc:
            ctx.failures.append(f"{stage}: {exc}")
        return proc

    def reference(self) -> None:
        """Time one run of ``reference.py``, the host-speed probe."""
        proc = launch([sys.executable, str(REFERENCE)], self.ctx.env, self.dir)
        if proc.code != 0 or proc.stdout.strip() != REFERENCE_OUTPUT:
            raise CheckFailed(f"reference run: exit {proc.code}, "
                              f"output {proc.stdout.strip()!r}")
        self.ctx.sample("reference_s", proc.wall_s)

    def output(self, key: str, path: Path) -> None:
        """Digest an output; pin it at the pinned seed, else match pass 1."""
        digest = checks.sha256_file(path)
        self.digests[key] = digest
        if self.ctx.expected is not None:
            checks.check_digest(self.ctx.expected["outputs"], key, path)
        elif (self.ctx.output_digests is not None
              and self.ctx.output_digests.get(key) != digest):
            raise CheckFailed(f"{key} differs from the first pass")

    def run(self) -> None:
        ctx, w = self.ctx, self.ctx.workload
        cfg = ["--config", self.config]

        def check_train(proc):
            if f"trained on {w.n_train} records" not in proc.stdout:
                raise CheckFailed(f"unexpected output {proc.stdout.strip()!r}")
            checks.check_bundle(self.dir / "model.bundle")
            self.output("model.bundle", self.dir / "model.bundle")

        self.reference()
        proc = self.op("train", ["train", *cfg], check_train)
        ctx.sample("train_s", proc.wall_s)
        ctx.sample("train_rss_mb", proc.maxrss_mb)

        def check_one(proc):
            if not proc.stdout.startswith("processed=1 "):
                raise CheckFailed(f"unexpected output {proc.stdout.strip()!r}")

        self.reference()
        for _ in range(SETUP_REPEATS):
            proc = self.op("setup", ["detect", *cfg, "--epsilon", EPSILON,
                                     "--input", str(ctx.inputs["one_log"]),
                                     "--out", str(self.dir / "one.jsonl")],
                           check_one)
            ctx.sample("setup_s", proc.wall_s)

        def check_detect(proc):
            alarms_path = self.dir / "alarms.jsonl"
            ids = checks.read_alarms(alarms_path, w.n_test)
            want = f"processed={w.n_test} alarms={len(ids)} "
            if not proc.stdout.startswith(want):
                raise CheckFailed(f"output {proc.stdout.strip()!r}, want {want!r}...")
            self.output("alarms.jsonl", alarms_path)
            hits = len(ctx.anomalies.intersection(ids))
            ctx.quality = {"alarms": len(ids),
                           "alarm_recall": hits / len(ctx.anomalies)
                           if ctx.anomalies else 0.0,
                           "alarm_precision": hits / len(ids) if ids else 0.0}

        self.reference()
        for _ in range(DETECT_REPEATS):
            proc = self.op("detect", ["detect", *cfg, "--epsilon", EPSILON],
                           check_detect)
            ctx.sample("detect_s", proc.wall_s)
            ctx.sample("detect_rss_mb", proc.maxrss_mb)

        def check_eval(proc):
            checks.check_sweep(self.dir / "sweep.csv")
            self.output("sweep.csv", self.dir / "sweep.csv")

        self.reference()
        proc = self.op("eval", ["eval", *cfg], check_eval)
        ctx.sample("eval_s", proc.wall_s)

        # Workloads without a chain verify an empty store, so verify_chain_s
        # is then the command's fixed cost.
        if w.chain:
            store, entries = [], w.n_train
        else:
            empty = self.dir / "empty.chain"
            empty.touch()
            store, entries = ["--store", str(empty)], 0

        def check_verify(proc):
            if proc.stdout.strip() != f"chain valid: {entries} entries":
                raise CheckFailed(f"unexpected output {proc.stdout.strip()!r}")

        self.reference()
        for _ in range(VERIFY_REPEATS):
            proc = self.op("verify-chain", ["verify-chain", *cfg, *store], check_verify)
            ctx.sample("verify_chain_s", proc.wall_s)
        if ctx.output_digests is None:
            ctx.output_digests = dict(self.digests)


def end_to_end(ctx: Context, host_scale: float) -> dict[str, float]:
    """The end-to-end metrics; times are scaled by ``host_scale`` first."""
    med = {name: statistics.median(values) for name, values in ctx.samples.items()}
    w = ctx.workload
    return {
        "train_lines_per_s": w.n_train / (med["train_s"] * host_scale),
        "detect_lines_per_s": w.n_test / (med["detect_s"] * host_scale),
        "eval_s": med["eval_s"] * host_scale,
        "verify_chain_s": med["verify_chain_s"] * host_scale,
        "setup_s": med["setup_s"] * host_scale,
        "train_peak_rss_mb": med["train_rss_mb"],
        "detect_peak_rss_mb": med["detect_rss_mb"],
        "alarm_recall": ctx.quality.get("alarm_recall", 0.0),
        "alarm_precision": ctx.quality.get("alarm_precision", 0.0),
    }


def check_inputs(ctx: Context) -> None:
    ctx.attempted += 1
    if ctx.expected is None:
        return
    try:
        for key in INPUT_FILES:
            checks.check_digest(ctx.expected["inputs"], key, ctx.inputs[key])
    except CheckFailed as exc:
        ctx.failures.append(f"inputs: {exc}")


def emit(ctx: Context, declared: list[dict], values: dict[str, float]) -> None:
    failed = len(ctx.failures)
    for msg in ctx.failures[:20]:
        print(f"FAILED {msg}")
    print(f"failed_fraction {failed / ctx.attempted:.6f} "
          f"({failed} of {ctx.attempted} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": ctx.attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="write this run's digests to expected.json "
                         "(only at the pinned seed; for deliberate output changes)")
    args = ap.parse_args(argv)
    if args.pin and args.seed != checks.PINNED_SEED:
        ap.error(f"--pin needs --seed {checks.PINNED_SEED}")
    workload = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        inputs = write_inputs(workload, args.seed, run_dir / "inputs")
        expected = None
        if args.seed == checks.PINNED_SEED and not args.pin:
            expected = checks.load_expected()[workload.name]
        ctx = Context(workload=workload, env=env, inputs=inputs,
                      expected=expected,
                      anomalies=checks.anomaly_ids(inputs["labels"], workload.n_train))
        check_inputs(ctx)
        # Untimed warm-up: compiles bytecode and fills the page cache.
        subprocess.run([sys.executable, "-c", "import logconformal.cli"],
                       env=env, check=True)

        start = time.perf_counter()
        pass_times: list[float] = []
        while True:
            pass_start = time.perf_counter()
            pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=run_dir))
            Pass(ctx, pass_dir).run()
            shutil.rmtree(pass_dir)
            pass_times.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.mean(pass_times) > args.seconds:
                break

        host_scale = REFERENCE_S / statistics.median(ctx.samples["reference_s"])
        values = end_to_end(ctx, host_scale)
        raw = end_to_end(ctx, 1.0)
        print(f"workload={workload.name} seed={args.seed} passes={len(pass_times)} "
              f"measured_s={elapsed:.1f} host_scale={host_scale:.4f}")
        for m in declared["end_to_end"]:
            print(f"  {m['name']:<22} {values[m['name']]:>12.4f} {m['unit']:<8} "
                  f"[{m['better']} is better]  unscaled {raw[m['name']]:.4f}")
        for name, samples in sorted(ctx.samples.items()):
            print(f"  samples {name}: " + " ".join(f"{v:.4f}" for v in samples))

        if args.pin:
            pins = checks.load_expected() if checks.EXPECTED_PATH.exists() else {}
            pins[workload.name] = {
                "inputs": {k: checks.sha256_file(inputs[k]) for k in INPUT_FILES},
                "outputs": ctx.output_digests}
            checks.EXPECTED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                                            + "\n", encoding="utf-8")

        if args.trace:
            layer = tracing.traced_pass(
                ctx, run_dir, SCRATCH / "traces" / f"{workload.name}-seed{args.seed}.jsonl")
            layer["host.reference_s"] = statistics.median(ctx.samples["reference_s"])
            for m in declared["per_layer"]:
                print(f"  {m['name']:<38} {layer[m['name']]:>14.6g} {m['unit']}")
            emit(ctx, declared["per_layer"], layer)
        else:
            emit(ctx, declared["end_to_end"], values)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
