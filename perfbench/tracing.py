"""Traced in-process pass: spans and counts around each layer's calls.

The pass runs the same CLI commands as an untraced pass, in the same order,
by calling ``logconformal.cli.main`` in this process. While it runs, the
layer functions the CLI reaches are replaced, as module attributes, by
wrappers that open a span or add to a counter; the originals are restored
afterwards. No span lives in the program's own source.

A span is (id, name, start, end, parent id, run id); the run id names the
CLI command that caused it. Calls made thousands of times per command
(``edit_script``, ``decide``, alarm rendering, chain append) are not spans:
their time and call count are summed under the innermost open span.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from logconformal import cli, conformal, detector, evalharness, nonconformity, parsers

import checks
from workloads import EPSILON, write_config

PARSERS = parsers.PARSER_NAMES
PROBE_REPEATS = 5


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, run_id]
        self.stack: list[int] = []
        self.aggregates = defaultdict(lambda: [0.0, 0])  # (span id, name) -> [s, calls]
        self.run_id = ""
        self.stage = ""
        self.phase = ""
        self.facts = defaultdict(lambda: defaultdict(int))  # stage -> name -> value
        self.dp = defaultdict(lambda: [0, 0, 0.0])  # (stage, phase) -> runs, cells, s

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, perf_counter(), None,
                  self.stack[-1] if self.stack else None, self.run_id]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            yield
        finally:
            record[3] = perf_counter()
            self.stack.pop()

    def add(self, name: str, seconds: float) -> None:
        agg = self.aggregates[(self.stack[-1], name)]
        agg[0] += seconds
        agg[1] += 1

    def span_time(self, stage: str, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans
                   if s[1] == name and self._stage_of(s) == stage)

    def aggregate_time(self, stage: str, name: str) -> float:
        return sum(sec for (sid, agg_name), (sec, _) in self.aggregates.items()
                   if agg_name == name and self._stage_of(self.spans[sid]) == stage)

    @staticmethod
    def _stage_of(span) -> str:
        return span[5].split("#")[0]


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Wrap the layer functions the CLI calls; restore them on exit."""
    originals = []

    def patch(owner, attr, new):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def spanned(owner, attr, name, after=None, phase=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            outer = tr.phase
            tr.phase = phase or outer
            try:
                with tr.span(name(*args) if callable(name) else name):
                    out = fn(*args, **kwargs)
            finally:
                tr.phase = outer
            if after is not None:
                after(out, *args)
            return out
        patch(owner, attr, wrapper)

    def timed(owner, attr, name):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            tr.add(name, perf_counter() - start)
            return out
        patch(owner, attr, wrapper)

    def counted(owner, attr, fact):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            tr.facts[tr.stage][fact] += 1
            return fn(*args, **kwargs)
        patch(owner, attr, wrapper)

    def facts():
        return tr.facts[tr.stage]

    def after_read(out, *_):
        records, skipped = out
        facts()["records"] += len(records)
        facts()["distinct"] += len({r.tokens for r in records})
        facts()["skipped"] += skipped

    def after_fit(ts, name, *_):
        facts()[f"templates.{name}"] = len(ts.templates)

    def after_calibrate(model, *_):
        for scores in model.calib.values():
            facts()["reservoirs"] += 1
            facts()["zero_reservoirs"] += all(s == 0.0 for s in scores)

    def after_save(_, models, schema_doc, path):
        facts()["bundle_bytes"] = Path(path).stat().st_size

    def after_detect(verdicts, *_):
        facts()["verdicts"] += len(verdicts)
        facts()["verdict_errors"] += sum(v.error is not None for v in verdicts)

    def after_verify(report, *_):
        facts()["chain_verified"] = report.entries

    spanned(cli, "read_log_file", "ingest.read_log_file", after_read)
    spanned(cli, "compile_schema", "ingest.compile_schema")
    spanned(cli, "verify_chain", "ingest.verify_chain", after_verify)
    spanned(parsers, "fit", lambda name, *_: f"parsers.fit.{name}", after_fit)
    spanned(conformal, "calibrate",
            lambda ts, *_: f"conformal.calibrate.{ts.parser_name}",
            after_calibrate, phase="calibrate")
    spanned(conformal, "save_bundle", "conformal.save_bundle", after_save)
    spanned(conformal, "load_bundle", "conformal.load_bundle")
    spanned(detector, "detect_batch", "detector.detect_batch", after_detect,
            phase="detect")
    timed(detector, "decide", "detector.decide")
    timed(detector, "render_alarm_line", "detector.render")
    counted(detector, "pvalue_sets_for", "pvalue_sets")
    spanned(evalharness, "load_corpus", "evalharness.load_corpus")
    spanned(evalharness, "significance_sweep", "evalharness.significance_sweep",
            phase="sweep")
    counted(evalharness, "pvalues_for", "sweep_pvalue_calls")

    edit_script = nonconformity.edit_script

    def traced_edit_script(a, b):
        start = perf_counter()
        out = edit_script(a, b)
        seconds = perf_counter() - start
        tr.add("nonconformity.edit_script", seconds)
        dp = tr.dp[(tr.stage, tr.phase)]
        dp[0] += 1
        dp[1] += len(a) * len(b)
        dp[2] += seconds
        return out
    patch(nonconformity, "edit_script", traced_edit_script)

    class TracedChainStore(cli.ChainStore):
        def __init__(self, path):
            with tr.span("ingest.chain_open"):
                super().__init__(path)

        def append(self, record):
            start = perf_counter()
            out = super().append(record)
            tr.add("ingest.chain_append", perf_counter() - start)
            tr.facts[tr.stage]["chain_entries"] += 1
            return out
    patch(cli, "ChainStore", TracedChainStore)

    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _run_stage(tr: Tracer, stage: str, argv: list[str]) -> tuple[int, str, str]:
    tr.stage = stage
    tr.run_id = f"{stage}#{sum(s[4] is None for s in tr.spans)}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            tr.span(f"cli.{stage}"):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _python(env: dict, code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _import_s(env: dict) -> float:
    """Median time for a fresh interpreter to import ``logconformal.cli``."""
    code = ("import time; t = time.perf_counter(); import logconformal.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(_python(env, code)) for _ in range(PROBE_REPEATS))


def _process_start_s(env: dict) -> float:
    """Median wall time of a process that only imports ``logconformal.cli``."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _python(env, "import logconformal.cli")
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def self_time_rows(tr: Tracer) -> list[tuple[str, str, int, float, float]]:
    """(run id, layer, calls, total s, self s); self excludes child spans and
    the summed calls made directly under the span."""
    self_s = {s[0]: s[3] - s[2] for s in tr.spans}
    for s in tr.spans:
        if s[4] is not None:
            self_s[s[4]] -= s[3] - s[2]
    for (sid, _), (sec, _) in tr.aggregates.items():
        self_s[sid] -= sec
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in tr.spans:
        row = rows[(s[5], s[1])]
        row[0] += 1
        row[1] += s[3] - s[2]
        row[2] += self_s[s[0]]
    for (sid, name), (sec, calls) in tr.aggregates.items():
        row = rows[(tr.spans[sid][5], name)]
        row[0] += calls
        row[1] += sec
        row[2] += sec
    return [(run_id, name, *row) for (run_id, name), row in rows.items()]


def _dump(tr: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, run_id in tr.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "run_id": run_id}) + "\n")
        for (sid, name), (sec, calls) in sorted(tr.aggregates.items()):
            fh.write(json.dumps({"aggregate": name, "parent": sid, "seconds": sec,
                                 "calls": calls, "run_id": tr.spans[sid][5]}) + "\n")


def traced_pass(ctx, run_dir: Path, dump_path: Path) -> dict[str, float]:
    """Run one traced pass, check its outputs, print the report, return metrics."""
    w = ctx.workload
    pass_dir = run_dir / "traced"
    pass_dir.mkdir()
    cfg = ["--config", str(write_config(w, ctx.inputs, pass_dir))]
    store = [] if w.chain else ["--store", str(pass_dir / "empty.chain")]
    (pass_dir / "empty.chain").touch()
    commands = [
        ("train", ["train", *cfg]),
        ("setup", ["detect", *cfg, "--epsilon", EPSILON, "--input",
                   str(ctx.inputs["one_log"]), "--out", str(pass_dir / "one.jsonl")]),
        ("detect", ["detect", *cfg, "--epsilon", EPSILON]),
        ("eval", ["eval", *cfg]),
        ("verify_chain", ["verify-chain", *cfg, *store]),
    ]
    tr = Tracer()
    with instrument(tr):
        for stage, argv in commands:
            code, _, err = _run_stage(tr, stage, argv)
            ctx.attempted += 1
            if code != 0 or "skipped" in err:
                ctx.failures.append(f"traced {stage}: exit {code} {err.strip()[-300:]}")
    for key in ("model.bundle", "alarms.jsonl", "sweep.csv"):
        ctx.attempted += 1
        digest = checks.sha256_file(pass_dir / key)
        if digest != (ctx.output_digests or {}).get(key):
            ctx.failures.append(f"traced {key} differs from the untraced passes")
    if tr.facts["verify_chain"]["chain_verified"] != (w.n_train if w.chain else 0):
        ctx.failures.append("traced verify-chain: wrong entry count")

    rows = self_time_rows(tr)
    print("self time per layer (traced pass):")
    print(f"  {'command':<16} {'layer':<32} {'calls':>8} {'total_s':>9} {'self_s':>9}")
    for run_id, name, calls, total, self_s in sorted(
            rows, key=lambda r: (_order(tr, r[0]), -r[4])):
        print(f"  {run_id:<16} {name:<32} {calls:>8} {total:>9.4f} {self_s:>9.4f}")
    _dump(tr, dump_path)
    print(f"spans: {dump_path}")

    # Each untraced command also pays interpreter start and imports, which the
    # in-process pass pays once; subtract that before comparing.
    start_s = _process_start_s(ctx.env)
    untraced = {stage: statistics.median(ctx.samples[f"{stage}_s"]) - start_s
                for stage in ("train", "setup", "detect", "eval", "verify_chain")}
    traced = {stage: tr.span_time(stage, f"cli.{stage}") for stage in untraced}
    print(f"tracing overhead: traced in-process command vs untraced median "
          f"less {start_s:.4f} s process start")
    for stage in untraced:
        print(f"  {stage:<14} traced {traced[stage]:8.4f} s  "
              f"untraced {untraced[stage]:8.4f} s  ratio "
              f"{traced[stage] / untraced[stage]:.3f}")

    train, detect, evaluate = tr.facts["train"], tr.facts["detect"], tr.facts["eval"]
    metrics = {
        "ingest.read_train_s": tr.span_time("train", "ingest.read_log_file"),
        "ingest.read_test_s": tr.span_time("detect", "ingest.read_log_file"),
        "ingest.skipped": train["skipped"] + detect["skipped"],
        "ingest.distinct_seq_share_train": train["distinct"] / train["records"],
        "ingest.distinct_seq_share_test": detect["distinct"] / detect["records"],
        "ingest.chain_open_s": tr.span_time("train", "ingest.chain_open"),
        "ingest.chain_append_s": tr.aggregate_time("train", "ingest.chain_append"),
        "ingest.chain_entries": train["chain_entries"],
        "ingest.chain_bytes": (pass_dir / "audit.chain").stat().st_size if w.chain else 0,
        "ingest.chain_verify_s": tr.span_time("verify_chain", "ingest.verify_chain"),
        "conformal.zero_reservoir_share": train["zero_reservoirs"] / train["reservoirs"],
        "conformal.bundle_save_s": tr.span_time("train", "conformal.save_bundle"),
        "conformal.bundle_load_s": tr.span_time("detect", "conformal.load_bundle"),
        "conformal.bundle_bytes": train["bundle_bytes"],
        "detector.detect_batch_s": tr.span_time("detect", "detector.detect_batch"),
        "detector.pvalue_sets": detect["pvalue_sets"],
        "detector.cache_hit_share": 1.0 - detect["pvalue_sets"] / detect["verdicts"],
        "detector.decide_s": tr.aggregate_time("detect", "detector.decide"),
        "detector.render_s": tr.aggregate_time("detect", "detector.render"),
        "detector.alarms": ctx.quality.get("alarms", 0),
        "detector.verdict_errors": detect["verdict_errors"],
        "evalharness.load_corpus_s": tr.span_time("eval", "evalharness.load_corpus"),
        "evalharness.sweep_s": tr.span_time("eval", "evalharness.significance_sweep"),
        "evalharness.sweep_pvalue_sets": evaluate["sweep_pvalue_calls"] // len(PARSERS),
        "cli.import_s": _import_s(ctx.env),
        "trace.overhead_share": sum(traced.values()) / sum(untraced.values()) - 1.0,
    }
    for p in PARSERS:
        metrics[f"parsers.fit_s.{p}"] = tr.span_time("train", f"parsers.fit.{p}")
        metrics[f"parsers.templates.{p}"] = train[f"templates.{p}"]
        metrics[f"conformal.calibrate_s.{p}"] = tr.span_time(
            "train", f"conformal.calibrate.{p}")
    for phase, stage in (("calibrate", "train"), ("detect", "detect"), ("sweep", "eval")):
        runs, cells, seconds = tr.dp[(stage, phase)]
        metrics[f"nonconformity.dp_runs.{phase}"] = runs
        metrics[f"nonconformity.dp_cells.{phase}"] = cells
        metrics[f"nonconformity.edit_script_s.{phase}"] = seconds
    return metrics


def _order(tr: Tracer, run_id: str) -> int:
    return next(s[0] for s in tr.spans if s[5] == run_id)
