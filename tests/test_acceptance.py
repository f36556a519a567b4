"""End-to-end acceptance gates for the detection pipeline.

Run with ``pytest tests/test_acceptance.py -v -s``; each criterion prints
one pass/fail line with its headline measurement.
"""

import itertools
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

import logconformal
from logconformal.conformal import calibrate, pvalue, pvalues_for
from logconformal.evalharness import (DEFAULT_GRID, HDFS_PROFILE,
                                      significance_sweep, synth_corpus)
from logconformal.ingest import ChainStore, LogRecord, preprocess, verify_chain
from logconformal.nonconformity import ScoreParams, edit_script, weighted_score
from logconformal.parsers import PARSER_NAMES, fit, match_record
from logconformal.templates import WILDCARD

from conftest import dp_nearest


def _report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _train_models(records):
    models = []
    for name in PARSER_NAMES:
        ts = fit(name, None, records)
        models.append(calibrate(ts, records))
    return models


# -- 1. HDFS-style case study ------------------------------------------------

def test_criterion_1_hdfs_case_study():
    t0 = time.monotonic()
    corpus = synth_corpus(seed=101, n_train=2000, n_test=0, n_anomalies=0,
                          profile=HDFS_PROFILE)
    models = _train_models(corpus.train_records)

    abnormal_line = ("081109 203521 143 WARN dfs.Node3: 10.251.43.21:Throw "
                     "error while serving blk 3544583377 from /10.251.73.220")
    abnormal = preprocess(abnormal_line, corpus.schema, line_id=990001)
    abnormal_ok = True
    worst = 0.0
    for model in models:
        pset = pvalues_for(model, abnormal)
        worst = max(worst, max(pset.pvalues.values()))
        if any(p >= 0.2 for p in pset.pvalues.values()):
            abnormal_ok = False

    normal = corpus.records[0]
    normal_ok = True
    lowest = 1.0
    for model in models:
        pset = pvalues_for(model, normal)
        matched = match_record(model.template_set, normal)
        p_matched = pset.pvalues[matched]
        lowest = min(lowest, p_matched)
        if p_matched != max(pset.pvalues.values()) or p_matched < 0.8:
            normal_ok = False

    elapsed = time.monotonic() - t0
    ok = abnormal_ok and normal_ok and elapsed < 120.0
    _report("C1 hdfs case study", ok,
            f"abnormal max p={worst:.3f} < 0.2; normal matched p>={lowest:.3f}; "
            f"{elapsed:.1f}s < 120s")
    assert abnormal_ok, f"abnormal line reached p={worst}"
    assert normal_ok, f"normal line matched-template p only {lowest}"
    assert elapsed < 120.0


# -- 2 & 3. Synthetic corpus reproduction and dominance ----------------------

@pytest.fixture(scope="module")
def table1_run():
    t0 = time.monotonic()
    corpus = synth_corpus(seed=1, n_train=10000, n_test=1000, n_anomalies=788)
    models = _train_models(corpus.train_records)
    rows = significance_sweep(models, corpus, DEFAULT_GRID)
    elapsed = time.monotonic() - t0
    return corpus, models, rows, elapsed


def test_criterion_2_synthetic_bands(table1_run):
    corpus, models, rows, elapsed = table1_run
    for model in models:
        assert sum(len(v) for v in model.calib.values()) == 10000

    from logconformal.detector import ANOMALY, DetectorConfig, detect_batch
    verdicts = detect_batch(models, corpus.test_records, DetectorConfig(epsilon=0.4))
    assert len(verdicts) == 1000
    assert sum(1 for v in verdicts if v.label == ANOMALY) >= 787

    ensemble = {r.epsilon: r.metrics for r in rows if r.configuration == "ensemble"}

    recall_04 = ensemble[0.4].recall
    recall_06 = ensemble[0.6].recall
    recall_083 = ensemble[0.83].recall
    recall_ok = recall_04 >= 0.99 and recall_06 == 1.0 and recall_083 == 1.0
    precisions = {eps: m.precision for eps, m in ensemble.items()}
    precision_ok = all(p is not None and 0.83 <= p <= 1.0
                       for p in precisions.values())
    time_ok = elapsed < 600.0

    ok = recall_ok and precision_ok and time_ok
    _report("C2 synthetic corpus bands", ok,
            f"recall@0.4={recall_04:.4f}, recall@0.6={recall_06:.4f}; "
            f"precision range [{min(precisions.values()):.4f}, "
            f"{max(precisions.values()):.4f}]; {elapsed:.1f}s < 600s")
    assert recall_ok, f"ensemble recall bands missed: {ensemble}"
    assert precision_ok, f"ensemble precision out of [0.83, 1.0]: {precisions}"
    assert time_ok


def test_criterion_3_ensemble_dominance(table1_run):
    _, _, rows, _ = table1_run
    by_eps: dict = {}
    for r in rows:
        by_eps.setdefault(r.epsilon, {})[r.configuration] = r.metrics.recall
    failures = []
    for eps in DEFAULT_GRID:
        recalls = dict(by_eps[eps])
        ensemble = recalls.pop("ensemble")
        for name, single in recalls.items():
            if not ensemble >= single:
                failures.append((eps, name, single, ensemble))
    _report("C3 ensemble dominance", not failures,
            f"checked {len(DEFAULT_GRID)} epsilons x {len(PARSER_NAMES)} parsers")
    assert not failures, failures


# -- 4. Edit-distance oracle equivalence -------------------------------------

def _oracle_table(seqs):
    """Memoized recursive minimal-edit counts over all suffix pairs.

    The recursion tries the three unit edits and takes the minimum; the memo
    only speeds it up, the recurrence stays independent of the alignment
    code under test.
    """
    index = {s: i for i, s in enumerate(seqs)}
    tail = [index[s[1:]] if s else -1 for s in seqs]
    head = [s[0] if s else None for s in seqs]
    length = [len(s) for s in seqs]
    n = len(seqs)
    memo = [[-1] * n for _ in range(n)]

    def rec(ai, bi):
        got = memo[ai][bi]
        if got >= 0:
            return got
        if length[ai] == 0:
            val = length[bi]
        elif length[bi] == 0:
            val = length[ai]
        else:
            step = 0 if (head[ai] == head[bi] or head[ai] == WILDCARD) else 1
            val = rec(tail[ai], tail[bi]) + step
            alt = rec(tail[ai], bi) + 1
            if alt < val:
                val = alt
            alt = rec(ai, tail[bi]) + 1
            if alt < val:
                val = alt
        memo[ai][bi] = val
        return val

    for ai in range(n):
        for bi in range(n):
            rec(ai, bi)
    return memo


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    alphabet = ("x", "y", WILDCARD)  # 3-symbol alphabet, wildcard included
    seqs = [()]
    for k in range(1, 7):
        seqs.extend(itertools.product(alphabet, repeat=k))
    table = _oracle_table(seqs)

    mismatches = 0
    pairs = 0
    for ai, a in enumerate(seqs):
        expected_row = table[ai]
        for bi, b in enumerate(seqs):
            if len(edit_script(a, b)) != expected_row[bi]:
                mismatches += 1
            pairs += 1
    elapsed = time.monotonic() - t0

    ok = mismatches == 0 and elapsed < 60.0
    _report("C4 edit-distance oracle equivalence", ok,
            f"{pairs} pairs exhaustive, {mismatches} mismatches, "
            f"{elapsed:.1f}s < 60s")
    assert mismatches == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- 5. Weighted-score spot values -------------------------------------------

def test_criterion_5_weighted_score_spot_values():
    got_replace = weighted_score(["a", "b", "c"], ["a", "x", "c"], ScoreParams(3.0))
    got_insert = weighted_score(["a", "b"], ["a", "b", "c"], ScoreParams(2.5))
    ok = abs(got_replace - 0.7311) <= 1e-4 and abs(got_insert - 0.3775) <= 1e-4
    _report("C5 weighted-score spot values", ok,
            f"replace={got_replace:.6f}~0.7311, insert={got_insert:.6f}~0.3775")
    assert got_replace == pytest.approx(0.7311, abs=1e-4)
    assert got_insert == pytest.approx(0.3775, abs=1e-4)


# -- 6. Conformal validity ----------------------------------------------------

def test_criterion_6_conformal_validity():
    epsilons = (0.1, 0.27, 0.4)
    worst = 0.0
    failures = []
    for seed in (201, 202, 203):
        corpus = synth_corpus(seed=seed, n_train=2500, n_test=500, n_anomalies=0)
        models = _train_models(corpus.train_records)
        held_out = corpus.test_records
        for model in models:
            cache = {}
            matched_p = []
            for rec in held_out:
                hit = cache.get(rec.tokens)
                if hit is None:
                    hit = pvalue(model, *dp_nearest(model.template_set, rec))
                    cache[rec.tokens] = hit
                matched_p.append(hit)
            for eps in epsilons:
                frac = sum(1 for p in matched_p if p <= eps) / len(matched_p)
                worst = max(worst, frac - eps)
                if frac > eps + 0.05:
                    failures.append((seed, model.parser_name, eps, frac))
    _report("C6 conformal validity", not failures,
            f"3 seeds x 4 parsers x 3 epsilons; worst excess={worst:+.4f} <= 0.05")
    assert not failures, failures


# -- 7. Tamper evidence --------------------------------------------------------

def test_criterion_7_tamper_evidence(tmp_path):
    path = tmp_path / "audit.chain"
    with ChainStore(path) as store:
        for i in range(100):
            store.append(LogRecord(line_id=i + 1, headers={"SysId": f"SYS{i % 5}"},
                                   content=f"heartbeat sequence {i} acknowledged",
                                   tokens=("heartbeat", "sequence", str(i),
                                           "acknowledged")))
    assert verify_chain(path).valid

    data = path.read_bytes()
    spans = []
    pos = 0
    idx = 0
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        spans.append((idx, pos, pos + 4 + length))
        pos += 4 + length
        idx += 1

    rng = random.Random(12345)
    mutant = tmp_path / "mutant.chain"
    trials = 0
    failures = []
    for entry_index, start, end in spans:
        offsets = rng.sample(range(start, end), 8)
        for off in offsets:
            corrupted = bytearray(data)
            corrupted[off] ^= 1 << rng.randrange(8)
            mutant.write_bytes(bytes(corrupted))
            report = verify_chain(mutant)
            trials += 1
            if report.valid or report.first_bad_index != entry_index:
                failures.append((entry_index, off, report))
    _report("C7 tamper evidence", not failures,
            f"{trials} single-byte mutations over 100 entries, all localized")
    assert not failures, failures[:5]


# -- 8. Determinism ------------------------------------------------------------

def _full_run(workdir: Path, hash_seed: str):
    # The child runs in ``workdir``, where a relative PYTHONPATH (such as
    # ``src``) names nothing; lead with the absolute directory of the package
    # this process imported, so the child runs the same code.
    pkg_dir = str(Path(logconformal.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_dir, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
    cfg = workdir / "config.json"
    cfg.write_text(
        '{"synth": {"profile": "iiot", "n_train": 1200, "n_test": 300, '
        '"n_anomalies": 80}, "seed": 17, '
        '"format_template": "<Date> <Time> <SysId> <Eth> <Content>", '
        '"mask_rules": [["\\\\d{1,3}\\\\.\\\\d{1,3}\\\\.\\\\d{1,3}\\\\.\\\\d{1,3}(:\\\\d+)?", "<*>"], '
        '["0x[0-9a-fA-F]+", "<*>"], ["(?<![\\\\w.])-?\\\\d+(?![\\\\w.])", "<*>"]]}',
        encoding="utf-8")

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "logconformal.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        return proc

    run("synth", "--config", "config.json", "--out", "corpus")
    run("train", "--config", "config.json", "--input", "corpus/train.log",
        "--model", "model.bundle")
    run("detect", "--config", "config.json", "--model", "model.bundle",
        "--input", "corpus/test.log", "--epsilon", "0.4", "--out", "alarms.jsonl")
    run("eval", "--config", "config.json", "--out", "sweep.csv")
    return {name: (workdir / name).read_bytes()
            for name in ("corpus/corpus.log", "model.bundle", "alarms.jsonl",
                         "sweep.csv")}


def test_criterion_8_byte_identical_runs(tmp_path):
    a = tmp_path / "run_a"
    b = tmp_path / "run_b"
    a.mkdir()
    b.mkdir()
    out_a = _full_run(a, "1")
    out_b = _full_run(b, "977")
    same = {name: out_a[name] == out_b[name] for name in out_a}
    ok = all(same.values())
    _report("C8 determinism", ok,
            "corpus, bundle, alarms and sweep byte-identical across runs")
    assert ok, {k: v for k, v in same.items() if not v}
