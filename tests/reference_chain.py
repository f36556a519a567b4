"""Per-record chain writer and reader: the references the chain store's
frames and its verifier must match.

This is the frame encoding as the store wrote it before its payload parts
were cached: every record's payload is ``json.dumps`` of its four fields,
and every entry digest is fed to SHA-256 in three ``update`` calls.
``tests/test_ingest.py`` requires ``ChainStore`` to write the same bytes,
and ``verify_chain`` to report what :func:`verify` reports.
"""

from __future__ import annotations

import hashlib
import json
import struct

GENESIS_DIGEST = b"\x00" * 32


def payload(record) -> bytes:
    doc = {"line_id": record.line_id, "headers": record.headers,
           "content": record.content, "tokens": list(record.tokens)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def entry_digest(index: int, payload_digest: bytes, prev_digest: bytes) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack("<Q", index))
    h.update(payload_digest)
    h.update(prev_digest)
    return h.digest()


def frames(records) -> bytes:
    """The chain file bytes of ``records`` appended to an empty store."""
    out = bytearray()
    prev = GENESIS_DIGEST
    for index, record in enumerate(records):
        body = payload(record)
        digest = entry_digest(index, hashlib.sha256(body).digest(), prev)
        blob = struct.pack("<Q", index) + body + prev + digest
        out += struct.pack("<I", len(blob)) + blob
        prev = digest
    return bytes(out)


def read_frames(data: bytes):
    """Yield (index, payload, prev digest, entry digest) of each whole frame,
    in order, up to the first frame that is cut short or too small to hold
    an index and two digests."""
    while len(data) >= 4:
        (length,) = struct.unpack("<I", data[:4])
        blob, data = data[4:4 + length], data[4 + length:]
        if length < 8 + 64 or len(blob) < length:
            return
        yield struct.unpack("<Q", blob[:8])[0], blob[8:-64], blob[-64:-32], blob[-32:]


def verify(data: bytes) -> tuple[bool, int | None, int]:
    """(valid, first bad index, entries) of a chain file's bytes: the bytes
    are valid when they are whole frames, each with its own position as
    index, linked to the previous digest and holding its correct digest."""
    prev, good, consumed = GENESIS_DIGEST, 0, 0
    for index, body, link, digest in read_frames(data):
        if index != good or link != prev \
                or digest != entry_digest(index, hashlib.sha256(body).digest(), prev):
            break
        prev, good, consumed = digest, good + 1, consumed + 4 + 8 + len(body) + 64
    return (True, None, good) if consumed == len(data) else (False, good, good)
