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
|| prev_digest; the genesis entry links to 32 zero bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AppendFailed, MalformedFormat, UnparsableLine

_FIELD = re.compile(r"<([^<>]+)>")

GENESIS_DIGEST = b"\x00" * 32

@dataclass
class HeaderSchema:
    """Compiled header layout: field names, line pattern, masking rules."""

    format_template: str
    fields: list[str]
    pattern: re.Pattern
    mask_rules: list[tuple[re.Pattern, str]] = field(default_factory=list)


@dataclass(frozen=True)
class LogRecord:
    """One preprocessed log line."""

    line_id: int
    headers: dict[str, str]
    content: str
    tokens: tuple[str, ...]


def _literal_to_regex(part: str) -> str:
    """Escape literal separator text, allowing runs of whitespace to flex."""
    if not part:
        return ""
    chunks = part.split()
    if not chunks:
        return r"\s+"
    out = [r"\s+"] if part[0].isspace() else []
    for i, chunk in enumerate(chunks):
        if i:
            out.append(r"\s+")
        out.append(re.escape(chunk))
    if part[-1].isspace():
        out.append(r"\s+")
    return "".join(out)


def compile_schema(format_template: str, mask_rules=()) -> HeaderSchema:
    """Compile a ``<Field> ... <Content>`` format template into a schema.

    The last field must be ``<Content>``; field names must be unique. Mask
    rules are (pattern, replacement) pairs applied to content, in order,
    before tokenization.
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

    parts = _FIELD.split(format_template)
    regex = io.StringIO()
    regex.write("^")
    for k, part in enumerate(parts):
        if k % 2 == 0:  # literal separator text
            regex.write(_literal_to_regex(part))
        elif part == "Content":
            regex.write("(?P<Content>.*)")
        else:
            regex.write(f"(?P<{part}>\\S+)")
    regex.write("$")
    try:
        pattern = re.compile(regex.getvalue())
    except re.error as exc:
        raise MalformedFormat(f"bad field name in {format_template!r}: {exc}") from exc
    compiled_masks = []
    for rule in mask_rules:
        try:
            p, repl = rule
            pat = re.compile(p)
            pat.sub(repl, "")  # parses the replacement's group references
        except (re.error, TypeError, ValueError) as exc:
            raise MalformedFormat(f"bad mask rule {rule!r}: {exc}") from exc
        compiled_masks.append((pat, repl))
    return HeaderSchema(format_template=format_template, fields=names,
                        pattern=pattern, mask_rules=compiled_masks)


def preprocess(line: str, schema: HeaderSchema, line_id: int = 1) -> LogRecord:
    """Split a raw line into headers and masked, tokenized content.

    Raises :class:`UnparsableLine` when the line does not match the schema.
    The unmasked content is kept verbatim on the record.
    """
    m = schema.pattern.match(line.rstrip("\r\n"))
    if m is None:
        raise UnparsableLine(line)
    groups = m.groupdict()
    content = groups.pop("Content")
    masked = content
    for pat, repl in schema.mask_rules:
        masked = pat.sub(repl, masked)
    return LogRecord(line_id=line_id, headers=groups, content=content,
                     tokens=tuple(masked.split()))


def read_records(lines, schema: HeaderSchema, on_error: str = "skip"):
    """Preprocess an iterable of raw lines, assigning 1-based line ids.

    ``on_error="skip"`` drops unparsable lines and counts them;
    ``on_error="raise"`` aborts on the first one. Returns (records, skipped).
    """
    records: list[LogRecord] = []
    skipped = 0
    line_id = 0
    for raw in lines:
        line_id += 1
        try:
            records.append(preprocess(raw, schema, line_id=line_id))
        except UnparsableLine:
            if on_error == "raise":
                raise
            skipped += 1
    return records, skipped


def read_log_file(path, schema: HeaderSchema, on_error: str = "skip"):
    """Read a UTF-8 log file (invalid bytes replaced), one record per line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return read_records(fh, schema, on_error=on_error)


# ---------------------------------------------------------------------------
# Hash-chained append-only store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainedEntry:
    index: int
    payload_digest: bytes
    prev_digest: bytes
    entry_digest: bytes


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    first_bad_index: int | None
    entries: int


def _record_payload(record: LogRecord) -> bytes:
    doc = {"line_id": record.line_id, "headers": record.headers,
           "content": record.content, "tokens": list(record.tokens)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _entry_digest(index: int, payload_digest: bytes, prev_digest: bytes) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<Q", index))
    h.update(payload_digest)
    h.update(prev_digest)
    return h.digest()


class ChainStore:
    """Append-only hash chain over serialized records. Single writer."""

    def __init__(self, path):
        self.path = Path(path)
        self._next_index = 0
        self._prev_digest = GENESIS_DIGEST
        if self.path.exists() and self.path.stat().st_size > 0:
            report = self.verify()
            if not report.valid:
                raise AppendFailed(f"existing store fails verification at "
                                   f"entry {report.first_bad_index}")
            self._next_index = report.entries
            if report.entries:
                *_, last = self.entries()
                self._prev_digest = last.entry_digest

    def append(self, record: LogRecord) -> ChainedEntry:
        """Append one record; the entry is written in a single buffer."""
        payload = _record_payload(record)
        payload_digest = hashlib.sha256(payload).digest()
        entry = ChainedEntry(index=self._next_index,
                             payload_digest=payload_digest,
                             prev_digest=self._prev_digest,
                             entry_digest=_entry_digest(self._next_index,
                                                        payload_digest,
                                                        self._prev_digest))
        blob = struct.pack("<Q", entry.index) + payload + entry.prev_digest + entry.entry_digest
        buf = struct.pack("<I", len(blob)) + blob
        try:
            with open(self.path, "ab") as fh:
                fh.write(buf)
                fh.flush()
        except OSError as exc:
            raise AppendFailed(str(exc)) from exc
        self._next_index += 1
        self._prev_digest = entry.entry_digest
        return entry

    def entries(self):
        """Yield raw (parsed) entries without verifying digests."""
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        pos = 0
        while pos < len(data):
            if pos + 4 > len(data):
                return
            (length,) = struct.unpack_from("<I", data, pos)
            pos += 4
            blob = data[pos:pos + length]
            if len(blob) < length or length < 8 + 64:
                return
            pos += length
            (index,) = struct.unpack_from("<Q", blob, 0)
            payload = blob[8:-64]
            yield ChainedEntry(index=index,
                               payload_digest=hashlib.sha256(payload).digest(),
                               prev_digest=blob[-64:-32],
                               entry_digest=blob[-32:])

    def verify(self) -> VerificationReport:
        return verify_chain(self.path)


def verify_chain(path) -> VerificationReport:
    """Re-hash every entry and check linkage; report the first bad index.

    An empty or missing store is valid. Structural damage (bad length,
    truncation, trailing bytes) is attributed to the entry position where
    parsing breaks down.
    """
    path = Path(path)
    if not path.exists():
        return VerificationReport(valid=True, first_bad_index=None, entries=0)
    data = path.read_bytes()
    pos = 0
    index = 0
    prev = GENESIS_DIGEST
    while pos < len(data):
        if pos + 4 > len(data):
            return VerificationReport(False, index, index)
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if length < 8 + 64 or pos + length > len(data):
            return VerificationReport(False, index, index)
        blob = data[pos:pos + length]
        pos += length
        (stored_index,) = struct.unpack_from("<Q", blob, 0)
        payload = blob[8:-64]
        prev_digest = blob[-64:-32]
        entry_digest = blob[-32:]
        expected = _entry_digest(stored_index, hashlib.sha256(payload).digest(),
                                 prev_digest)
        if stored_index != index or prev_digest != prev or entry_digest != expected:
            return VerificationReport(False, index, index)
        prev = entry_digest
        index += 1
    return VerificationReport(valid=True, first_bad_index=None, entries=index)
