"""Desk-scale evaluation: corpus synthesis, metrics, significance sweep.

The generator produces labeled corpora with a fixed header layout, a dozen
or more normal event shapes with variable fields, and three kinds of
planted anomalies: a file error, a data-completeness check error, and
structurally mutated lines. Everything is driven by one seed and is
byte-reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import detector
from .conformal import CalibrationModel, pvalues_for
from .detector import ANOMALY, NORMAL, label_of
from .errors import InvalidSpec, LabelMismatch, NoParsers
from .ingest import (PROFILE_FORMATS, HeaderSchema, LogRecord, compile_schema,
                     read_log_file, read_records)


# ---------------------------------------------------------------------------
# Corpus profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventSpec:
    weight: int
    content: str        # str.format template with {} slots
    fields: tuple = ()  # ("int", lo, hi) | ("pick", options) | ("pair", pairs)


@dataclass(frozen=True)
class CorpusProfile:
    name: str
    format_template: str
    mask_rules: tuple[tuple[str, str], ...]
    events: tuple[EventSpec, ...]


_NOTE_WORDS = tuple(a + b for a in ("ka", "ro", "mi", "ta", "zu", "ne", "lo",
                                    "vi", "sa", "du", "pe", "go", "fi", "nu")
                    for b in ("ra", "mo", "ki", "tu", "ze", "na", "li", "vo",
                              "su", "da", "po", "ge", "fa", "ni"))

IIOT_PROFILE = CorpusProfile(
    "iiot", *PROFILE_FORMATS["iiot"],
    events=(
        EventSpec(8, "check data complete ok"),
        EventSpec(8, "Load {}.ini ok", (("pick", ("cfg", "sys", "net", "core", "link")),)),
        EventSpec(10, "Send telemetry frame {} to gateway {}",
                  (("int", 1, 9999), ("int", 1, 8))),
        EventSpec(8, "Receive command packet {} from controller {}",
                  (("int", 1, 9999), ("pick", ("CTRL-A", "CTRL-B", "CTRL-C")))),
        EventSpec(8, "Pump pressure reading {} within range", (("int", 10, 500),)),
        EventSpec(8, "Valve {} position set to {}",
                  (("pick", ("VLV-A", "VLV-B", "VLV-C", "VLV-D")), ("int", 0, 100))),
        EventSpec(10, "Heartbeat sequence {} acknowledged", (("int", 1, 99999),)),
        EventSpec(8, "Sensor {} calibration cycle {} complete",
                  (("pick", ("SA", "SB", "SC", "SD", "SE", "SF")), ("int", 1, 999))),
        EventSpec(8, "Write archive segment {} to disk volume {}",
                  (("int", 1, 9999), ("pick", ("VOLA", "VOLB")))),
        EventSpec(8, "Link quality index {} on port {}",
                  (("int", 0, 100), ("pick", ("PA", "PB", "PC", "PD")))),
        EventSpec(8, "Temperature probe {} reports {} centigrade",
                  (("pick", ("SA", "SB", "SC", "SD", "SE", "SF")), ("int", 5, 90))),
        EventSpec(4, "Operator note {}", (("pick", _NOTE_WORDS),)),
        EventSpec(4, "Array {} mirrors volume {}",
                  (("pair", (("AA", "VA"), ("AB", "VB"), ("AC", "VC"))),)),
    ),
)

HDFS_PROFILE = CorpusProfile(
    "hdfs", *PROFILE_FORMATS["hdfs"],
    events=(
        EventSpec(10, "Receiving block blk_{} src: /10.251.{}.{}:{} dest: /10.251.{}.{}:{}",
                  (("int", 10 ** 9, 9 * 10 ** 9), ("int", 0, 255), ("int", 0, 255),
                   ("int", 50010, 50100), ("int", 0, 255), ("int", 0, 255),
                   ("int", 50010, 50100))),
        EventSpec(10, "PacketResponder {} for block blk_{} terminating",
                  (("int", 0, 3), ("int", 10 ** 9, 9 * 10 ** 9))),
        EventSpec(10, "Received block blk_{} of size {} from /10.251.{}.{}",
                  (("int", 10 ** 9, 9 * 10 ** 9), ("int", 1024, 67108864),
                   ("int", 0, 255), ("int", 0, 255))),
        EventSpec(10, "BLOCK* NameSystem.addStoredBlock: blockMap updated: "
                      "10.251.{}.{}:{} is added to blk_{} size {}",
                  (("int", 0, 255), ("int", 0, 255), ("int", 50010, 50100),
                   ("int", 10 ** 9, 9 * 10 ** 9), ("int", 1024, 67108864))),
        EventSpec(8, "Verification succeeded for blk_{}",
                  (("int", 10 ** 9, 9 * 10 ** 9),)),
        EventSpec(8, "Deleting block blk_{} file /mnt/hadoop/dfs/data/current/blk_{}",
                  (("int", 10 ** 9, 9 * 10 ** 9), ("int", 10 ** 9, 9 * 10 ** 9))),
        EventSpec(8, "BLOCK* NameSystem.allocateBlock: "
                     "/mnt/hadoop/mapred/system/job_{}_{}/job.jar. blk_{}",
                  (("int", 200811100000, 200811109999), ("int", 1, 9999),
                   ("int", 10 ** 9, 9 * 10 ** 9))),
        EventSpec(8, "Starting thread to transfer block blk_{} to 10.251.{}.{}:{}",
                  (("int", 10 ** 9, 9 * 10 ** 9), ("int", 0, 255), ("int", 0, 255),
                   ("int", 50010, 50100))),
        EventSpec(6, "Got exception while serving blk_{} to /10.251.{}.{}:{}",
                  (("int", 10 ** 9, 9 * 10 ** 9), ("int", 0, 255), ("int", 0, 255),
                   ("int", 50010, 50100))),
    ),
)

PROFILES = {"iiot": IIOT_PROFILE, "hdfs": HDFS_PROFILE}


def _fill_fields(rng: random.Random, spec: EventSpec) -> str:
    values: list[str] = []
    for f in spec.fields:
        kind = f[0]
        if kind == "int":
            values.append(str(rng.randint(f[1], f[2])))
        elif kind == "pick":
            values.append(rng.choice(f[1]))
        elif kind == "pair":
            values.extend(rng.choice(f[1]))
        else:
            raise InvalidSpec(f"unknown field kind {kind!r}")
    return spec.content.format(*values)


def _pick_event(rng: random.Random, profile: CorpusProfile) -> EventSpec:
    total = sum(e.weight for e in profile.events)
    roll = rng.randrange(total)
    acc = 0
    for event in profile.events:
        acc += event.weight
        if roll < acc:
            return event


def _normal_content(rng: random.Random, profile: CorpusProfile) -> str:
    return _fill_fields(rng, _pick_event(rng, profile))


def _mutant_content(rng: random.Random, profile: CorpusProfile) -> str:
    tokens = _normal_content(rng, profile).split()
    tokens.reverse()
    return "fault trap " + " ".join(tokens)


def _anomaly_content(rng: random.Random, profile: CorpusProfile, ordinal: int) -> str:
    if profile.name == "hdfs":
        if ordinal % 5 == 0:
            return _mutant_content(rng, profile)
        return ("10.251.{}.{}:Throw error while serving blk {} from /10.251.{}.{}"
                .format(rng.randint(0, 255), rng.randint(0, 255),
                        rng.randint(10 ** 9, 9 * 10 ** 9),
                        rng.randint(0, 255), rng.randint(0, 255)))
    if ordinal == 1:
        return "Load {}.ini failed!".format(
            rng.choice(("cfg", "sys", "net", "core", "link")))
    if ordinal % 10 == 0:
        return _mutant_content(rng, profile)
    return "check data complete failed!"


def _header(rng: random.Random, profile: CorpusProfile, line_no: int) -> str:
    second = line_no % 86400
    clock = f"{second // 3600:02d}:{second % 3600 // 60:02d}:{second % 60:02d}"
    if profile.name == "hdfs":
        return "081109 {:06d} {} INFO dfs.Node{}:".format(
            (203518 + line_no) % 1000000, rng.randint(1, 60000), rng.randint(1, 8))
    return "2019-06-{:02d} {} SYS{} ETH{}".format(
        1 + line_no // 86400, clock, rng.randint(1, 5), rng.randint(0, 1))


# ---------------------------------------------------------------------------
# Labeled corpus
# ---------------------------------------------------------------------------

@dataclass
class LabeledCorpus:
    """``raw_lines`` holds the generated lines for :func:`write_corpus`; it is
    empty for a corpus read from files, which that refuses."""

    records: list[LogRecord]
    labels: dict[int, str]
    train_ids: list[int]
    test_ids: list[int]
    raw_lines: list[str]
    schema: HeaderSchema

    @property
    def train_records(self) -> list[LogRecord]:
        wanted = set(self.train_ids)
        return [r for r in self.records if r.line_id in wanted]

    @property
    def test_records(self) -> list[LogRecord]:
        wanted = set(self.test_ids)
        return [r for r in self.records if r.line_id in wanted]


def synth_corpus(seed: int, n_train: int, n_test: int, n_anomalies: int,
                 profile: CorpusProfile = IIOT_PROFILE) -> LabeledCorpus:
    """Deterministic labeled corpus: all-normal train slice, mixed test slice."""
    if n_train < 1 or n_test < 0 or n_anomalies < 0:
        raise InvalidSpec("corpus sizes must be positive")
    if n_anomalies > n_test:
        raise InvalidSpec(f"{n_anomalies} anomalies cannot fit in {n_test} test lines")

    rng = random.Random(seed)
    raw_lines: list[str] = []
    labels: dict[int, str] = {}

    for i in range(n_train):
        line_id = i + 1
        raw_lines.append(f"{_header(rng, profile, i)} {_normal_content(rng, profile)}")
        labels[line_id] = NORMAL

    anomaly_slots = frozenset(rng.sample(range(n_test), n_anomalies))
    ordinal = 0
    for j in range(n_test):
        line_id = n_train + j + 1
        header = _header(rng, profile, n_train + j)
        if j in anomaly_slots:
            ordinal += 1
            raw_lines.append(f"{header} {_anomaly_content(rng, profile, ordinal)}")
            labels[line_id] = ANOMALY
        else:
            raw_lines.append(f"{header} {_normal_content(rng, profile)}")
            labels[line_id] = NORMAL

    schema = compile_schema(profile.format_template, profile.mask_rules)
    records, _ = read_records(raw_lines, schema, on_error="raise")
    return LabeledCorpus(records=records, labels=labels,
                         train_ids=list(range(1, n_train + 1)),
                         test_ids=list(range(n_train + 1, n_train + n_test + 1)),
                         raw_lines=raw_lines, schema=schema)


def write_corpus(corpus: LabeledCorpus, out_dir) -> dict[str, Path]:
    """Write corpus.log plus labels.csv/split.csv sidecars.

    train.log and test.log repeat the two slices for direct use with the
    train and detect commands. A corpus without one raw line per record, as
    :func:`load_corpus` returns, raises :class:`InvalidSpec` before any write.
    """
    if len(corpus.raw_lines) != len(corpus.records):
        raise InvalidSpec(f"cannot write a corpus of {len(corpus.records)} records "
                          f"from {len(corpus.raw_lines)} raw lines")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_train, train = len(corpus.train_ids), set(corpus.train_ids)
    ids = sorted(corpus.labels)
    files = {  # key -> (path, its lines); a sidecar's header is its first line
        "log": (out_dir / "corpus.log", corpus.raw_lines),
        "labels": (out_dir / "labels.csv",
                   ["line_id,label", *[f"{i},{corpus.labels[i]}" for i in ids]]),
        "split": (out_dir / "split.csv",
                  ["line_id,part", *[f"{i},{'train' if i in train else 'test'}"
                                     for i in ids]]),
        "train_log": (out_dir / "train.log", corpus.raw_lines[:n_train]),
        "test_log": (out_dir / "test.log", corpus.raw_lines[n_train:]),
    }
    for path, lines in files.values():
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return {key: path for key, (path, _) in files.items()}


def _sidecar_rows(path, header):
    """Yield (line id, value) for each row of a sidecar whose first line is
    ``header``.

    Raises :class:`LabelMismatch` naming the file and the 1-based line of a
    first line other than ``header`` or of a row that is not two
    comma-separated cells with an id of ASCII digits, as :func:`write_corpus`
    writes it (``int`` alone would also take a sign, padding, underscores
    and other scripts' digits).
    """
    rows = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    if rows[0] != header:
        raise LabelMismatch(f"{path}, line 1: {rows[0]!r} is not the header {header!r}")
    for number, row in enumerate(rows[1:], 2):
        cells = row.split(",")
        if len(cells) != 2 or not (cells[0].isascii() and cells[0].isdigit()):
            raise LabelMismatch(f"{path}, line {number}: {row!r} is not "
                                f"'<line id>,<value>' with an ASCII decimal id")
        yield int(cells[0]), cells[1]


def load_corpus(log_path, labels_path, split_path, schema: HeaderSchema) -> LabeledCorpus:
    """Rehydrate a corpus written by :func:`write_corpus`.

    The log is read by :func:`~logconformal.ingest.read_log_file`, as
    ``train`` and ``detect`` read theirs, so line ids agree with theirs, and
    without header fields, which no parser and no sweep reads.

    Raises :class:`LabelMismatch` when a sidecar's header or a row is
    malformed, a label is neither ``normal`` nor ``anomaly``, a split part is
    neither ``train`` nor ``test``, a label or split id names no line or
    appears twice, the split leaves a line out or lists no test line, a test
    line has no label, or a training line is not labeled normal.
    """
    records, _ = read_log_file(log_path, schema, on_error="raise")
    labels: dict[int, str] = {}
    for line_id, label in _sidecar_rows(labels_path, "line_id,label"):
        if label not in (NORMAL, ANOMALY):
            raise LabelMismatch(f"label {label!r} of line {line_id} is neither "
                                f"'normal' nor 'anomaly'")
        if not 1 <= line_id <= len(records):
            raise LabelMismatch(f"label line {line_id} is not in {log_path}")
        if line_id in labels:
            raise LabelMismatch(f"label line {line_id} appears more than once")
        labels[line_id] = label
    parts: dict[str, list[int]] = {"train": [], "test": []}
    seen: set[int] = set()
    for line_id, part in _sidecar_rows(split_path, "line_id,part"):
        if part not in parts:
            raise LabelMismatch(f"split part {part!r} of line {line_id} "
                                f"is neither 'train' nor 'test'")
        if not 1 <= line_id <= len(records):
            raise LabelMismatch(f"split line {line_id} is not in {log_path}")
        if line_id in seen:
            raise LabelMismatch(f"split line {line_id} appears more than once")
        seen.add(line_id)
        parts[part].append(line_id)
    if len(seen) < len(records):
        unlisted = next(i for i in range(1, len(records) + 1) if i not in seen)
        raise LabelMismatch(f"line {unlisted} of {log_path} is in no part of {split_path}")
    train_ids, test_ids = parts["train"], parts["test"]
    if not test_ids:
        raise LabelMismatch(f"{split_path} lists no test line")
    for line_id in train_ids:
        if labels.get(line_id) != NORMAL:
            raise LabelMismatch(f"training line {line_id} is not normal")
    for line_id in test_ids:
        if line_id not in labels:
            raise LabelMismatch(f"test line {line_id} has no label")
    return LabeledCorpus(records=records, labels=labels, train_ids=train_ids,
                         test_ids=test_ids, raw_lines=[], schema=schema)


# ---------------------------------------------------------------------------
# Metrics and the significance sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float | None:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else None

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else None


@dataclass(frozen=True)
class SweepRow:
    configuration: str
    epsilon: float
    metrics: Metrics


DEFAULT_GRID = (0.27, 0.3, 0.4, 0.6, 0.83)


def significance_sweep(models: list[CalibrationModel], corpus: LabeledCorpus,
                       eps_grid=DEFAULT_GRID) -> list[SweepRow]:
    """Evaluate each parser alone and the ensemble at every epsilon.

    A configuration labels a record by ``label_of`` the ``detector.combined``
    statistic of its members' per-parser maxima, which are computed once per
    distinct token sequence; test lines are tallied by (maxima, truth), so
    every cell costs one pass over the tally. Raises ``NoParsers`` for no models.
    """
    if not models:
        raise NoParsers("no trained models")
    # a map of its own, not ``ids_by_tokens``: ``pvalues_for`` takes a record
    max_p_of: dict[tuple[str, ...], tuple[float, ...]] = {}
    tally: Counter[tuple[tuple[float, ...], str]] = Counter()
    for rec in corpus.test_records:
        max_p = max_p_of.get(rec.tokens)
        if max_p is None:
            max_p = tuple(pvalues_for(m, rec).max_p() for m in models)
            max_p_of[rec.tokens] = max_p
        tally[max_p, corpus.labels[rec.line_id]] += 1

    configurations = [(m.parser_name, [k]) for k, m in enumerate(models)]
    configurations.append(("ensemble", list(range(len(models)))))

    rows = []
    for config_name, members in configurations:
        for eps in eps_grid:
            cells: Counter[tuple[str, str]] = Counter()
            for (max_p, truth), count in tally.items():
                called = label_of(detector.combined([max_p[k] for k in members]), eps)
                cells[called, truth] += count
            metrics = Metrics(tp=cells[ANOMALY, ANOMALY], fp=cells[ANOMALY, NORMAL],
                              fn=cells[NORMAL, ANOMALY], tn=cells[NORMAL, NORMAL])
            rows.append(SweepRow(configuration=config_name, epsilon=eps, metrics=metrics))
    return rows


def _fmt_ratio(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _sweep_cells(rows: list[SweepRow]) -> list[list[str]]:
    """The header and one row of cells per sweep row; an empty ratio is ``""``."""
    cells = [["configuration", "epsilon", "tp", "fp", "fn", "tn", "precision", "recall"]]
    for r in rows:
        m = r.metrics
        cells.append([r.configuration, str(r.epsilon), str(m.tp), str(m.fp), str(m.fn),
                      str(m.tn), _fmt_ratio(m.precision), _fmt_ratio(m.recall)])
    return cells


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return "".join(",".join(row) + "\n" for row in _sweep_cells(rows))


def render_sweep_table(rows: list[SweepRow]) -> str:
    cells = [[cell or "-" for cell in row] for row in _sweep_cells(rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"
