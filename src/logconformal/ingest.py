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
from pathlib import Path
from typing import NamedTuple

from .errors import AppendFailed, MalformedFormat, UnparsableLine

_FIELD = re.compile(r"<([^<>]+)>")

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
    """Compiled header layout: field names, line pattern, masking rules."""

    format_template: str
    fields: list[str]
    pattern: re.Pattern
    mask_rules: tuple[tuple[re.Pattern, str], ...] = ()


class LogRecord(NamedTuple):
    """One preprocessed log line."""

    line_id: int
    headers: dict[str, str]
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
        raise MalformedFormat(f"no <Field> markers in {format_template!r}")
    if names[-1] != "Content":
        raise MalformedFormat("last field must be <Content>")
    if len(set(names)) != len(names):
        raise MalformedFormat(f"duplicate field names in {format_template!r}")
    if any(not n.strip() for n in names):
        raise MalformedFormat("empty field name")

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
        raise MalformedFormat(f"bad field name in {format_template!r}: {exc}") from exc
    compiled_masks = []
    for rule in mask_rules:
        if not (isinstance(rule, (list, tuple)) and len(rule) == 2
                and all(isinstance(part, str) for part in rule)):
            raise MalformedFormat(f"bad mask rule {rule!r}: not a pair of "
                                  f"pattern and replacement strings")
        p, repl = rule
        try:
            pat = re.compile(p)
            pat.sub(repl, "")  # parses the replacement's group references
        except (re.error, OverflowError, IndexError) as exc:
            raise MalformedFormat(f"bad mask rule {rule!r}: {exc}") from exc
        compiled_masks.append((pat, repl))
    return HeaderSchema(format_template=format_template, fields=names,
                        pattern=pattern, mask_rules=tuple(compiled_masks))


def _split(line: str, schema: HeaderSchema) -> tuple[dict[str, str], str]:
    """The header fields and the unmasked content of one raw line."""
    m = schema.pattern.match(line.rstrip("\r\n"))
    if m is None:
        raise UnparsableLine(line)
    headers = m.groupdict()
    return headers, headers.pop("Content")


def _mask(content: str, schema: HeaderSchema) -> tuple[str, ...]:
    """Apply the mask rules to the content, in order, then split it."""
    for pat, repl in schema.mask_rules:
        content = pat.sub(repl, content)
    return tuple(content.split())


def preprocess(line: str, schema: HeaderSchema, line_id: int = 1) -> LogRecord:
    """Split a raw line into headers and masked, tokenized content.

    Raises :class:`UnparsableLine` when the line does not match the schema.
    The unmasked content is kept verbatim on the record.
    """
    headers, content = _split(line, schema)
    return LogRecord(line_id, headers, content, _mask(content, schema))


def read_records(lines, schema: HeaderSchema, on_error: str = "skip"):
    """Preprocess an iterable of raw lines, assigning 1-based line ids.

    ``on_error="skip"`` drops unparsable lines and counts them;
    ``on_error="raise"`` aborts on the first one. Returns (records, skipped).

    Each record equals :func:`preprocess` of its line. The mask rules run
    once per distinct content, and the records share one object per
    distinct header value, content and token tuple. Both maps hold only
    objects the records hold and live for this call.
    """
    records: list[LogRecord] = []
    skipped = 0
    # content -> (its first object, its token tuple)
    memo: dict[str, tuple[str, tuple[str, ...]]] = {}
    # each header value and token tuple -> its first object
    shared: dict[str | tuple[str, ...], str | tuple[str, ...]] = {}
    keep = shared.setdefault
    for line_id, raw in enumerate(lines, 1):
        try:
            headers, content = _split(raw, schema)
        except UnparsableLine:
            if on_error == "raise":
                raise
            skipped += 1
            continue
        for key, value in headers.items():
            headers[key] = keep(value, value)
        known = memo.get(content)
        if known is None:
            tokens = _mask(content, schema)
            known = memo[content] = (content, keep(tokens, tokens))
        records.append(LogRecord(line_id, headers, *known))
    return records, skipped


def open_log(path):
    """Open a UTF-8 log for reading: invalid bytes replaced, universal newlines."""
    return open(path, "r", encoding="utf-8", errors="replace")


def read_log_file(path, schema: HeaderSchema):
    """Read a UTF-8 log file (invalid bytes replaced), one record per line,
    skipping and counting unparsable lines."""
    with open_log(path) as fh:
        return read_records(fh, schema)


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
        """
        if self._failed is not None:
            raise AppendFailed(f"entry {self._failed} failed to append; "
                               f"the store takes no more entries")
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


def _frames(data: bytes):
    """Yield (end offset, index, payload, prev digest, entry digest) per frame.

    Stops before the first frame whose length field is cut short, is too
    small to hold the fixed fields, or runs past the end of ``data``.
    """
    pos = 0
    while pos + 4 <= len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        end = pos + 4 + length
        if length < 8 + 64 or end > len(data):
            return
        (index,) = struct.unpack_from("<Q", data, pos + 4)
        yield end, index, data[pos + 12:end - 64], data[end - 64:end - 32], data[end - 32:end]
        pos = end


def _scan_chain(data: bytes) -> tuple[VerificationReport, bytes]:
    """Verify a whole chain file's bytes; also return the last good digest."""
    from hashlib import sha256
    index = 0
    prev = GENESIS_DIGEST
    end = 0
    for end, stored_index, payload, prev_digest, entry_digest in _frames(data):
        expected = _entry_digest(sha256, _u64(stored_index), sha256(payload).digest(),
                                 prev_digest)
        if stored_index != index or prev_digest != prev or entry_digest != expected:
            return VerificationReport(False, index, index), prev
        prev = entry_digest
        index += 1
    if end != len(data):  # a torn or malformed frame, or trailing bytes
        return VerificationReport(False, index, index), prev
    return VerificationReport(valid=True, first_bad_index=None, entries=index), prev


def verify_chain(path) -> VerificationReport:
    """Re-hash every entry and check linkage; report the first bad index.

    An empty or missing store is valid. Structural damage (bad length,
    truncation, trailing bytes) is attributed to the entry position where
    parsing breaks down.
    """
    path = Path(path)
    if not path.exists():
        return VerificationReport(valid=True, first_bad_index=None, entries=0)
    return _scan_chain(path.read_bytes())[0]
