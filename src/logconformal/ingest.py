"""Raw-line preprocessing and the tamper-evident chain store.

Heterogeneous devices emit lines with different header layouts; a header
schema compiled from a format template such as
``"<Date> <Time> <SysId> <Eth> <Content>"`` turns each line into a standard
record: named header fields plus the unstructured content, masked and
whitespace-tokenized. Records are optionally persisted in an append-only
file of hash-chained entries so that any retroactive edit is detectable.

Chain file layout, per entry: a little-endian 32-bit blob length, then the
blob = index (64-bit LE) || payload bytes || prev_digest (32 B) ||
entry_digest (32 B). The entry digest is SHA-256 over index || SHA-256(payload)
|| prev_digest; the genesis entry links to 32 zero bytes. Only the chain code
imports ``hashlib``: it loads OpenSSL, which a process that never opens a
chain does without.
"""

from __future__ import annotations

import functools
import json
import re
import struct
import types
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

from .errors import AppendFailed, InvalidSpec, UnparsableLine

_FIELD = re.compile(r"<([^<>]+)>")

# The headers of every record read without header fields: one shared,
# read-only empty mapping.
NO_HEADERS = types.MappingProxyType({})

GENESIS_DIGEST = b"\x00" * 32

_MASK_NUM = (r"(?<![\w.])-?\d+(?![\w.])", "<*>")
_MASK_HEX = (r"0x[0-9a-fA-F]+", "<*>")
_MASK_IP = (r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}(:\d+)?", "<*>")
_MASK_BLK = (r"(?<!\w)blk_-?\d+", "<*>")

# The format template and mask rules of each synthetic corpus profile (see
# ``evalharness.PROFILES``); the iiot pair is also the CLI's default schema.
PROFILE_FORMATS = {
    "iiot": ("<Date> <Time> <SysId> <Eth> <Content>", (_MASK_IP, _MASK_HEX, _MASK_NUM)),
    "hdfs": ("<Date> <Time> <Pid> <Level> <Component>: <Content>",
             (_MASK_BLK, _MASK_IP, _MASK_HEX, _MASK_NUM)),
}


class HeaderSchema(NamedTuple):
    """Compiled header layout: line pattern, one group per field, and masking rules."""

    format_template: str
    pattern: re.Pattern
    mask_rules: tuple[tuple[re.Pattern, str], ...] = ()


class LogRecord(NamedTuple):
    """One preprocessed log line; ``headers`` is :data:`NO_HEADERS` when the
    line was read without its header fields."""

    line_id: int
    headers: Mapping[str, str]
    content: str
    tokens: tuple[str, ...]


def compile_schema(format_template: str, mask_rules=()) -> HeaderSchema:
    """Compile a ``<Field> ... <Content>`` format template into a schema.

    The last field must be ``<Content>``; field names must be unique. Mask
    rules are (pattern, replacement) pairs of strings, as lists or tuples,
    applied to content, in order, before tokenization.
    """
    names = _FIELD.findall(format_template)
    if not names:
        raise InvalidSpec(f"no <Field> markers in {format_template!r}")
    if names[-1] != "Content":
        raise InvalidSpec("last field must be <Content>")
    if len(set(names)) != len(names):
        raise InvalidSpec(f"duplicate field names in {format_template!r}")
    if any(not n.strip() for n in names):
        raise InvalidSpec("empty field name")

    regex = ["^"]
    for k, part in enumerate(_FIELD.split(format_template)):
        if k % 2 == 0:  # literal separator text; each whitespace run flexes
            regex.append(r"\s+".join(map(re.escape, re.split(r"\s+", part))))
        elif part == "Content":
            regex.append("(?P<Content>.*)")
        else:
            regex.append(f"(?P<{part}>\\S+)")
    regex.append("$")
    try:
        pattern = re.compile("".join(regex))
    except re.error as exc:
        raise InvalidSpec(f"bad field name in {format_template!r}: {exc}") from exc
    compiled_masks = []
    for rule in mask_rules:
        if not (isinstance(rule, (list, tuple)) and len(rule) == 2
                and all(isinstance(part, str) for part in rule)):
            raise InvalidSpec(f"bad mask rule {rule!r}: not a pair of "
                              f"pattern and replacement strings")
        p, repl = rule
        try:
            pat = re.compile(p)
            pat.sub(repl, "")  # parses the replacement's group references
        except (re.error, OverflowError, IndexError) as exc:
            raise InvalidSpec(f"bad mask rule {rule!r}: {exc}") from exc
        compiled_masks.append((pat, repl))
    return HeaderSchema(format_template=format_template, pattern=pattern,
                        mask_rules=tuple(compiled_masks))


def _mask(content: str, schema: HeaderSchema) -> tuple[str, ...]:
    """Apply the mask rules to the content, in order, then split it."""
    for pat, repl in schema.mask_rules:
        content = pat.sub(repl, content)
    return tuple(content.split())


def preprocess(line: str, schema: HeaderSchema, line_id: int = 1) -> LogRecord:
    """:func:`read_records` of one line with ``on_error="raise"``, under
    ``line_id``: its headers and its masked, tokenized content."""
    (record,), _ = read_records((line,), schema, on_error="raise")
    return record._replace(line_id=line_id)


def read_records(lines, schema: HeaderSchema, on_error: str = "skip",
                 headers: bool = True):
    """Split raw lines into header fields and masked, tokenized content
    (kept unmasked too), with 1-based line ids. Returns (records, skipped).

    A line that, its line break stripped, does not match the schema's
    pattern is dropped and counted with ``on_error="skip"`` and raises
    :class:`UnparsableLine` with ``on_error="raise"``; any other
    ``on_error`` raises ``ValueError``.

    The mask rules run once per distinct content, and the records share one
    object per distinct header value, content and token tuple. Both maps
    hold only objects the records hold and live for this call.

    With ``headers=False`` no header field is parsed: every record holds
    :data:`NO_HEADERS` and otherwise equals the one read with headers. The
    parsers mine templates from the content alone; a record bound for the
    chain store takes its header fields from :func:`with_headers`.
    """
    if on_error not in ("skip", "raise"):
        raise ValueError(f"on_error must be 'skip' or 'raise', got {on_error!r}")
    records: list[LogRecord] = []
    skipped = 0
    # content -> (its first object, its token tuple)
    memo: dict[str, tuple[str, tuple[str, ...]]] = {}
    # each header value and token tuple -> its first object
    shared: dict[str | tuple[str, ...], str | tuple[str, ...]] = {}
    keep = shared.setdefault
    for line_id, raw in enumerate(lines, 1):
        raw = raw.rstrip("\r\n")
        m = schema.pattern.match(raw)
        if m is None:
            if on_error == "raise":
                raise UnparsableLine(f"line does not match header schema: {raw!r}")
            skipped += 1
            continue
        if headers:
            fields = m.groupdict()
            content = fields.pop("Content")
            for key, value in fields.items():
                fields[key] = keep(value, value)
        else:
            fields, content = NO_HEADERS, m["Content"]
        known = memo.get(content)
        if known is None:
            tokens = _mask(content, schema)
            known = memo[content] = (content, keep(tokens, tokens))
        records.append(LogRecord(line_id, fields, *known))
    return records, skipped


def read_log_file(path, schema: HeaderSchema, on_error: str = "skip"):
    """:func:`read_records` of a UTF-8 log file's lines (invalid bytes
    replaced, universal newlines) without header fields; every command and
    ``load_corpus`` read their logs here, so line ids agree."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return read_records(fh, schema, on_error, headers=False)


def with_headers(path, schema: HeaderSchema, records):
    """Yield each of ``records``, as :func:`read_log_file` read them from
    ``path``, with its line's header fields read again. A line that no longer
    matches the schema or its record's content, or a file that ends before the
    last record, raises :class:`AppendFailed`; later lines are not read."""
    pending = iter(records)
    rec = next(pending, None)
    if rec is None:
        return
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_id, raw in enumerate(fh, 1):
            if line_id != rec.line_id:
                continue
            m = schema.pattern.match(raw.rstrip("\r\n"))
            fields = m.groupdict() if m else None
            if fields is None or fields.pop("Content") != rec.content:
                raise AppendFailed(f"{path}: line {line_id} changed since it was read")
            yield LogRecord(line_id, fields, rec.content, rec.tokens)
            rec = next(pending, None)
            if rec is None:
                return
    raise AppendFailed(f"{path}: ends before line {rec.line_id}")


# ---------------------------------------------------------------------------
# Hash-chained append-only store
# ---------------------------------------------------------------------------

class ChainedEntry(NamedTuple):
    index: int
    payload_digest: bytes
    prev_digest: bytes
    entry_digest: bytes


class VerificationReport(NamedTuple):
    valid: bool
    first_bad_index: int | None
    entries: int


_json_str = json.encoder.encode_basestring_ascii
_u32 = struct.Struct("<I").pack
_u32_at = struct.Struct("<I").unpack_from
_u64 = struct.Struct("<Q").pack

# Bounds of the payload caches below. A training log holds few distinct token
# sequences and fewer header layouts; past the bound the least recently used
# entry is dropped, which costs time but never changes a byte.
TOKENS_CACHE_SIZE = 4096
LAYOUT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=TOKENS_CACHE_SIZE)
def _tokens_json(tokens: tuple[str, ...]) -> str:
    """The items of the payload's ``tokens`` array, comma-joined."""
    return ",".join(map(_json_str, tokens))


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _payload_layout(keys: tuple[str, ...]) -> tuple[tuple[str, ...], str]:
    """For the header keys of a record, in their order on the record: the
    keys sorted, and a ``%``-template of the payload whose slots take the
    escaped content, the escaped header values in sorted key order, the line
    id and the tokens of :func:`_tokens_json`."""
    order = tuple(sorted(keys))
    headers = ",".join(_json_str(k).replace("%", "%%") + ":%s" for k in order)
    return order, f'{{"content":%s,"headers":{{{headers}}},"line_id":%s,"tokens":[%s]}}'


def _record_payload(record: LogRecord) -> bytes:
    """The bytes of ``json.dumps`` of the record's four fields with
    ``sort_keys=True`` and ``separators=(",", ":")``, built directly.

    The tokens and the header key layout come from bounded caches; only the
    content and the header values are escaped for each record.
    """
    headers = record.headers
    order, layout = _payload_layout(tuple(headers))
    return (layout % (_json_str(record.content),
                      *[_json_str(headers[k]) for k in order],
                      record.line_id, _tokens_json(record.tokens))).encode("ascii")


def _entry_digest(sha256, index8: bytes, payload_digest: bytes,
                  prev_digest: bytes) -> bytes:
    """``sha256`` over the packed index, the payload digest and the previous
    digest."""
    return sha256(index8 + payload_digest + prev_digest).digest()


class ChainStore:
    """Append-only hash chain over serialized records. Single writer.

    The store keeps one unbuffered append-mode handle on its file until
    :meth:`close` (or the end of a ``with`` block); each entry reaches the
    operating system in one ``write`` before :meth:`append` returns.
    """

    def __init__(self, path):
        from hashlib import sha256
        self._sha256 = sha256
        self.path = Path(path)
        self._next_index = 0
        self._prev_digest = GENESIS_DIGEST
        self._failed = None  # index of the entry whose frame was not written whole
        try:
            if self.path.exists() and self.path.stat().st_size > 0:
                report, self._prev_digest = _scan_chain(self.path.read_bytes())
                if not report.valid:
                    raise AppendFailed(f"existing store fails verification at "
                                       f"entry {report.first_bad_index}")
                self._next_index = report.entries
            self._fh = open(self.path, "ab", buffering=0)
        except OSError as exc:
            raise AppendFailed(str(exc)) from exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        self._fh.close()

    def append(self, record: LogRecord) -> ChainedEntry:
        """Append one record as one frame, written whole before returning.

        Raises :class:`AppendFailed` when the write fails or stops short; the
        store then holds a torn tail, which :func:`verify_chain` reports, and
        every later append raises :class:`AppendFailed` too, since an entry
        written after torn bytes could never verify.

        A record read without its header fields (its ``headers`` is
        :data:`NO_HEADERS`; :func:`with_headers` adds them) would chain a
        payload that lacks them: it raises :class:`AppendFailed` before any
        byte is written, and the store takes later records as before.
        """
        if self._failed is not None:
            raise AppendFailed(f"entry {self._failed} failed to append; "
                               f"the store takes no more entries")
        if record.headers is NO_HEADERS:
            raise AppendFailed(f"line {record.line_id} was read without its "
                               f"header fields; read it through with_headers")
        index = self._next_index
        prev = self._prev_digest
        index8 = _u64(index)
        payload = _record_payload(record)
        payload_digest = self._sha256(payload).digest()
        entry_digest = _entry_digest(self._sha256, index8, payload_digest, prev)
        # length field: the 8-byte index, the payload and the two 32-byte digests
        frame = b"".join((_u32(len(payload) + 72), index8, payload, prev, entry_digest))
        self._failed = index  # until the whole frame is written
        try:
            written = self._fh.write(frame)
            if written != len(frame):
                self._finish(frame, written)
        except OSError as exc:
            raise AppendFailed(f"entry {index}: {exc}") from exc
        self._failed = None
        self._next_index = index + 1
        self._prev_digest = entry_digest
        return ChainedEntry(index, payload_digest, prev, entry_digest)

    def _finish(self, frame: bytes, written) -> None:
        """Write the rest of a frame after a short write of ``written`` bytes;
        a write that takes no byte raises :class:`AppendFailed`."""
        done = 0
        while written:
            done += written
            if done == len(frame):
                return
            written = self._fh.write(frame[done:])
        raise AppendFailed(f"entry {self._next_index}: wrote {done} "
                           f"of {len(frame)} bytes")


def _scan_chain(data: bytes) -> tuple[VerificationReport, bytes]:
    """Verify a whole chain file's bytes; also return the last good digest.

    The scan stops at the first frame whose length field is cut short, is
    too small for the fixed fields or runs past the end of ``data``, or
    whose index, link or digest is wrong; the chain is valid if it stops at
    the end of ``data``.
    """
    from hashlib import sha256
    view, size = memoryview(data), len(data)
    index = pos = 0
    prev = GENESIS_DIGEST
    while pos + 4 <= size:
        (length,) = _u32_at(data, pos)
        end = pos + 4 + length
        if length < 8 + 64 or end > size:
            break  # a torn or malformed frame, or trailing bytes
        index8, digest = _u64(index), data[end - 32:end]
        if data[pos + 4:pos + 12] != index8 or data[end - 64:end - 32] != prev \
                or digest != _entry_digest(sha256, index8,
                                           sha256(view[pos + 12:end - 64]).digest(), prev):
            break
        prev = digest
        index += 1
        pos = end
    valid = pos == size
    return VerificationReport(valid, None if valid else index, index), prev


def verify_chain(path) -> VerificationReport:
    """Re-hash every entry and check linkage; report the first bad index.

    An empty or missing store is valid. Structural damage (bad length,
    truncation, trailing bytes) is attributed to the entry position where
    parsing breaks down.
    """
    path = Path(path)
    data = path.read_bytes() if path.exists() else b""
    if not data:  # no frame to hash, so no need to load OpenSSL
        return VerificationReport(valid=True, first_bad_index=None, entries=0)
    return _scan_chain(data)[0]
