"""Per-record chain writer: the reference the chain store's frames must match.

This is the frame encoding as the store wrote it before its payload parts
were cached: every record's payload is ``json.dumps`` of its four fields,
and every entry digest is fed to SHA-256 in three ``update`` calls.
``tests/test_ingest.py`` requires ``ChainStore`` to write the same bytes.
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
