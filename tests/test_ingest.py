import hashlib
import json
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconformal.errors import AppendFailed, MalformedFormat, UnparsableLine
from logconformal.ingest import (TOKENS_CACHE_SIZE, ChainedEntry, ChainStore,
                                 LogRecord, _frames, _record_payload,
                                 compile_schema, preprocess, read_log_file,
                                 read_records, verify_chain)

import reference_chain

IIOT_FORMAT = "<Date> <Time> <SysId> <Eth> <Content>"
HDFS_FORMAT = "<Date> <Time> <Pid> <Level> <Component>: <Content>"


# ASCII and Unicode whitespace, regex metacharacters and letters; never
# ``<`` or ``>``, so a separator cannot open a field marker
_SEPARATORS = st.text(
    st.sampled_from([chr(c) for c in range(0x3001) if chr(c).isspace()])
    | st.sampled_from(list(".^$*+?{}[]\\|()-:#&~")) | st.sampled_from(list("abXyé")),
    max_size=12)


def _literal_to_regex(part: str) -> str:
    """The separator builder ``compile_schema`` used before one ``re.split``
    expression replaced it: escape literal text, let whitespace runs flex."""
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


def _reference_pattern(fmt: str) -> str:
    parts = re.split(r"<([^<>]+)>", fmt)
    return "^" + "".join(
        _literal_to_regex(part) if k % 2 == 0
        else "(?P<Content>.*)" if part == "Content" else f"(?P<{part}>\\S+)"
        for k, part in enumerate(parts)) + "$"


class TestCompileSchema:
    def test_content_only(self):
        schema = compile_schema("<Content>")
        assert schema.fields == ["Content"]

    def test_hdfs_style_fields(self):
        schema = compile_schema(HDFS_FORMAT)
        assert schema.fields == ["Date", "Time", "Pid", "Level", "Component", "Content"]
        rec = preprocess("081109 203518 143 INFO dfs.DataNode$PacketResponder: "
                         "PacketResponder 1 for block blk_38865049064139660 terminating",
                         schema)
        assert rec.headers == {"Date": "081109", "Time": "203518", "Pid": "143",
                               "Level": "INFO",
                               "Component": "dfs.DataNode$PacketResponder"}
        assert rec.tokens[0] == "PacketResponder"

    def test_iiot_style_with_mask(self):
        schema = compile_schema(IIOT_FORMAT, [(r"\d+", "<*>")])
        assert len(schema.fields) == 5
        assert len(schema.mask_rules) == 1

    @pytest.mark.parametrize("bad", [
        "no fields at all",
        "<Date> <Time>",                 # no Content
        "<Content> <Date>",              # Content not last
        "<Date> <Date> <Content>",       # duplicate
        "<Sys-Id> <Content>",            # not a regex group name
        "< > <Content>",                 # empty field name
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedFormat):
            compile_schema(bad)

    @pytest.mark.parametrize("rule", [
        ("(unclosed", "<*>"),            # pattern does not compile
        (r"\d+", r"\9"),                 # replacement names a missing group
        (r"\d+", 5),                     # replacement is not a string
        (r"\d+",),                       # not a (pattern, replacement) pair
        "ab",                            # a two-character string
        {"x": 1, "y": 2},                # a two-key object
        ("a{99999999999}", "<*>"),       # repetition count too large
        ("a", r"\g<name>"),              # replacement names a missing group
    ])
    def test_malformed_mask_rule(self, rule):
        with pytest.raises(MalformedFormat):
            compile_schema("<Content>", [rule])

    @given(st.lists(st.tuples(_SEPARATORS, st.sampled_from(["Date", "Sys", "Id_2"])),
                    max_size=3, unique_by=lambda item: item[1]),
           _SEPARATORS, _SEPARATORS)
    @settings(max_examples=300, deadline=None)
    @example([("", "Date"), (" at \t", "Sys")], " on\u3000host ", " ends  here ")
    def test_pattern_equals_the_reference_builder(self, fields, last, tail):
        fmt = "".join(f"{sep}<{name}>" for sep, name in fields) + f"{last}<Content>{tail}"
        assert compile_schema(fmt).pattern.pattern == _reference_pattern(fmt)


class TestPreprocess:
    def test_content_only_line(self):
        schema = compile_schema("<Content>")
        rec = preprocess("Load cfg.ini failed!", schema)
        assert rec.tokens == ("Load", "cfg.ini", "failed!")
        assert rec.content == "Load cfg.ini failed!"

    def test_iiot_line(self):
        schema = compile_schema(IIOT_FORMAT)
        rec = preprocess("2019-06-01 12:00:00 SYS1 ETH0 check data complete failed!",
                         schema, line_id=7)
        assert rec.headers["SysId"] == "SYS1"
        assert rec.headers["Eth"] == "ETH0"
        assert rec.tokens == ("check", "data", "complete", "failed!")
        assert rec.line_id == 7

    def test_masking_keeps_raw_content(self):
        schema = compile_schema("<Content>", [(r"\d+", "<*>")])
        rec = preprocess("retry 5 of 9", schema)
        assert rec.tokens == ("retry", "<*>", "of", "<*>")
        assert rec.content == "retry 5 of 9"

    def test_garbage_line_rejected(self):
        schema = compile_schema(HDFS_FORMAT)
        with pytest.raises(UnparsableLine):
            preprocess("garbage", schema)

    def test_no_empty_tokens(self):
        schema = compile_schema("<Content>")
        rec = preprocess("a   b     c", schema)
        assert rec.tokens == ("a", "b", "c")

    def test_deterministic(self):
        schema = compile_schema(IIOT_FORMAT, [(r"\d+", "<*>")])
        line = "2019-06-01 12:00:00 SYS2 ETH1 frame 42 sent"
        assert preprocess(line, schema) == preprocess(line, schema)

    def test_round_trip_single_spaces(self):
        schema = compile_schema(IIOT_FORMAT)
        line = "2019-06-01 12:00:00 SYS1 ETH0 check data complete ok"
        rec = preprocess(line, schema)
        rebuilt = " ".join([rec.headers["Date"], rec.headers["Time"],
                            rec.headers["SysId"], rec.headers["Eth"], rec.content])
        assert rebuilt == line

    def test_read_records_skip_and_count(self):
        schema = compile_schema(IIOT_FORMAT)
        lines = ["2019-06-01 12:00:00 SYS1 ETH0 ok", "junk",
                 "2019-06-01 12:00:01 SYS1 ETH0 ok"]
        records, skipped = read_records(lines, schema)
        assert skipped == 1
        assert [r.line_id for r in records] == [1, 3]

    def test_read_records_raise_mode(self):
        schema = compile_schema(IIOT_FORMAT)
        with pytest.raises(UnparsableLine):
            read_records(["junk"], schema, on_error="raise")

    def test_invalid_utf8_replaced(self, tmp_path):
        path = tmp_path / "weird.log"
        path.write_bytes(b"hello \xff\xfe world\n")
        schema = compile_schema("<Content>")
        records, skipped = read_log_file(path, schema)
        assert skipped == 0
        assert records[0].tokens[0] == "hello"


# Order-sensitive rules: "a" becomes "b" and then "<*>" only in this order,
# and "c" masks to nothing, so a content can become empty after masking.
MEMO_RULES = [("a", "b"), ("b", "<*>"), (r"\d+", "<*>"), ("c", "")]

_memo_content = st.lists(st.sampled_from(["a", "b", "c", "ab", "ba", "a7b", "7",
                                          "x1", "<*>", "cc"]), max_size=4).map(
    " ".join)
_memo_line = st.one_of(
    st.builds(lambda sys_id, content, end: f"{sys_id} {content}{end}",
              st.sampled_from(["S1", "S2"]), _memo_content,
              st.sampled_from(["", "\n", "\r\n"])),
    st.sampled_from(["", "\n", "nospace", "S1"]))  # unparsable
# a small pool of distinct lines, drawn into a log with many repeats
_memo_lines = st.lists(_memo_line, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40))


def _masked_by_hand(content, rules):
    for pattern, repl in rules:
        content = re.sub(pattern, repl, content)
    return tuple(content.split())


class TestReadRecordsMemo:
    @settings(max_examples=300)
    @given(lines=_memo_lines,
           rules=st.lists(st.sampled_from(MEMO_RULES), unique=True),
           on_error=st.sampled_from(["skip", "raise"]))
    def test_equals_preprocess_of_each_line(self, lines, rules, on_error):
        schema = compile_schema("<SysId> <Content>", rules)
        expected, errors = [], []
        for line_id, line in enumerate(lines, 1):
            try:
                expected.append(preprocess(line, schema, line_id=line_id))
            except UnparsableLine as exc:
                errors.append(str(exc))
        if on_error == "raise" and errors:
            with pytest.raises(UnparsableLine) as exc:
                read_records(lines, schema, on_error=on_error)
            assert str(exc.value) == errors[0]
            return
        records, skipped = read_records(lines, schema, on_error=on_error)
        assert records == expected
        assert skipped == len(errors)
        for rec in records:
            assert rec.tokens == _masked_by_hand(rec.content, rules)
        for values in ([rec.tokens for rec in records], [rec.content for rec in records],
                       [v for rec in records for v in rec.headers.values()]):
            first = {}
            for value in values:
                assert first.setdefault(value, value) is value

    def test_rules_apply_in_order(self):
        schema = compile_schema("<SysId> <Content>", MEMO_RULES[:2])
        lines = ["S1 a b", "S2 a b"]
        assert preprocess(lines[0], schema).tokens == ("<*>", "<*>")
        records, _ = read_records(lines, schema)
        assert [r.tokens for r in records] == [("<*>", "<*>")] * 2

    def test_one_tuple_per_token_sequence(self, tmp_path):
        path = tmp_path / "in.log"
        path.write_text("S1 retry 5 of 9\nS2 retry 6 of 9\nS1 retry 5 of 9\n"
                        "S1 done\n", encoding="utf-8")
        schema = compile_schema("<SysId> <Content>", [(r"\d+", "<*>")])
        records, _ = read_log_file(path, schema)
        a, b, c, d = records
        assert a.tokens == ("retry", "<*>", "of", "<*>")
        assert a.tokens is b.tokens is c.tokens
        assert d.tokens == ("done",)

    @pytest.mark.parametrize("on_error", ["skip", "raise"])
    def test_one_object_per_header_value_and_content(self, on_error):
        lines = ["2019-06-01 10:00:00 SYS1 ETH0 pump 7 ok\n",
                 "2019-06-01 10:00:01 SYS2 ETH0 pump 7 ok\n",
                 "2019-06-01 10:00:02 SYS1 ETH1 valve 3 shut\n",
                 "2019-06-01 10:00:00 SYS1 ETH0 pump 7 ok\n"]
        if on_error == "skip":  # unparsable lines between the parsed ones
            lines[1:1] = ["garbled\n"]
            lines[3:3] = ["", "SYS1 only\n"]
        records, skipped = read_records(lines, compile_schema(IIOT_FORMAT, [(r"\d+", "<*>")]),
                                        on_error=on_error)
        assert skipped == (3 if on_error == "skip" else 0)
        a, b, c, d = records
        assert a.headers["Date"] is b.headers["Date"] is c.headers["Date"] is d.headers["Date"]
        assert a.headers["Time"] is d.headers["Time"]
        assert a.headers["SysId"] is c.headers["SysId"] is d.headers["SysId"]
        assert a.headers["Eth"] is b.headers["Eth"] is d.headers["Eth"]
        assert a.content is b.content is d.content
        assert a.tokens is b.tokens is d.tokens
        assert c.content == "valve 3 shut"

    def test_calls_share_no_object(self):
        """The maps are made per call: two reads of the same lines hold
        equal records but no common header value, content or token tuple.
        Every value has two or more characters, so none is a string that
        the interpreter itself keeps one copy of."""
        schema = compile_schema(IIOT_FORMAT, [(r"\d+", "<*>")])
        lines = ["2019-06-01 10:00:00 SYS1 ETH0 pump 7 ok\n",
                 "2019-06-01 10:00:01 SYS1 ETH0 pump 7 ok\n"]
        first, _ = read_records(lines, schema)
        second, _ = read_records(lines, schema)
        assert first == second

        def objects(records):
            return {id(v) for rec in records
                    for v in (*rec.headers.values(), rec.content, rec.tokens)}
        assert not objects(first) & objects(second)


class TestRecordTypes:
    def test_log_record_fields(self):
        rec = LogRecord(line_id=3, headers={"SysId": "S1"}, content="a 7",
                        tokens=("a", "<*>"))
        assert LogRecord._fields == ("line_id", "headers", "content", "tokens")
        assert rec == (3, {"SysId": "S1"}, "a 7", ("a", "<*>"))
        assert rec == LogRecord(3, {"SysId": "S1"}, "a 7", ("a", "<*>"))
        assert (rec.line_id, rec.content, rec.tokens) == (3, "a 7", ("a", "<*>"))
        with pytest.raises(AttributeError):
            rec.tokens = ()

    def test_chained_entry_fields(self):
        entry = ChainedEntry(index=2, payload_digest=b"p", prev_digest=b"q",
                             entry_digest=b"e")
        assert ChainedEntry._fields == ("index", "payload_digest", "prev_digest",
                                        "entry_digest")
        assert entry == (2, b"p", b"q", b"e")
        assert entry.index == 2
        with pytest.raises(AttributeError):
            entry.index = 3


def _store_with_entries(path, count):
    """Write ``count`` entries; the returned store is closed."""
    entries = []
    with ChainStore(path) as store:
        for i in range(count):
            rec = LogRecord(line_id=i + 1, headers={"SysId": f"SYS{i % 5}"},
                            content=f"pump reading {i}",
                            tokens=("pump", "reading", str(i)))
            entries.append(store.append(rec))
    return store, entries


# any code point, lone surrogates included
any_text = st.text(st.characters(exclude_categories=()))


@given(headers=st.dictionaries(any_text, any_text, max_size=4), content=any_text,
       tokens=st.lists(any_text, max_size=6), line_id=st.integers())
def test_payload_is_sorted_compact_json(headers, content, tokens, line_id):
    record = LogRecord(line_id=line_id, headers=headers, content=content,
                       tokens=tuple(tokens))
    doc = {"line_id": line_id, "headers": headers, "content": content,
           "tokens": tokens}
    assert _record_payload(record) == \
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


class TestChainStore:
    def test_genesis_entry(self, tmp_path):
        _, entries = _store_with_entries(tmp_path / "c.bin", 1)
        assert entries[0].index == 0
        assert entries[0].prev_digest == b"\x00" * 32

    def test_chain_linkage(self, tmp_path):
        _, entries = _store_with_entries(tmp_path / "c.bin", 2)
        assert entries[1].prev_digest == entries[0].entry_digest

    def test_bulk_append_verifies(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 1000)
        report = verify_chain(path)
        assert report.valid and report.entries == 1000

    def test_empty_store_valid(self, tmp_path):
        report = verify_chain(tmp_path / "absent.bin")
        assert report.valid and report.first_bad_index is None

    def test_payload_flip_detected_at_entry(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 100)
        data = bytearray(path.read_bytes())
        # walk to entry 41 and flip a byte inside its payload region
        pos = 0
        for _ in range(41):
            (length,) = struct.unpack_from("<I", data, pos)
            pos += 4 + length
        data[pos + 4 + 8] ^= 0x01
        path.write_bytes(bytes(data))
        report = verify_chain(path)
        assert not report.valid
        assert report.first_bad_index == 41

    def test_append_only_digests_stable(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 10)
        before = [digest for *_, digest in _frames(path.read_bytes())]
        with ChainStore(path) as store:
            store.append(LogRecord(line_id=11, headers={}, content="x", tokens=("x",)))
        after = [digest for *_, digest in _frames(path.read_bytes())]
        assert after[:10] == before

    def test_context_manager_closes_and_keeps_bytes(self, tmp_path):
        path = tmp_path / "c.bin"
        with ChainStore(path) as store:
            for i in range(3):
                store.append(LogRecord(line_id=i + 1, headers={"SysId": f"SYS{i % 5}"},
                                       content=f"pump reading {i}",
                                       tokens=("pump", "reading", str(i))))
            flushed = path.read_bytes()  # every append is on disk at once
        with pytest.raises(ValueError):  # closed: no further appends
            store.append(LogRecord(line_id=4, headers={}, content="z", tokens=("z",)))
        assert path.read_bytes() == flushed
        # The frame bytes of these three records, as every earlier version
        # of the store wrote them.
        assert hashlib.sha256(flushed).hexdigest() == \
            "30ae798f4e2f4f7bded2a7ab1c425a5a29b4fddf0f19ffe3bf133d00e53492bd"
        report = verify_chain(path)
        assert report.valid and report.entries == 3
        with ChainStore(path) as again:
            again.append(LogRecord(line_id=4, headers={}, content="y", tokens=("y",)))
        assert path.read_bytes().startswith(flushed)
        assert verify_chain(path).entries == 4

    def test_reopen_continues_chain(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 5)
        with ChainStore(path) as store2:
            store2.append(LogRecord(line_id=6, headers={}, content="y", tokens=("y",)))
        report = verify_chain(path)
        assert report.valid and report.entries == 6

    def test_reopen_tampered_store_refused(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 5)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(AppendFailed):
            ChainStore(path)

    def test_random_flips_detected(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 20)
        data = path.read_bytes()
        rng = random.Random(7)
        mutant_path = tmp_path / "m.bin"
        for _ in range(50):
            off = rng.randrange(len(data))
            mutated = bytearray(data)
            mutated[off] ^= 1 << rng.randrange(8)
            mutant_path.write_bytes(bytes(mutated))
            assert not verify_chain(mutant_path).valid


# Header keys that recur across records, so that one key set arrives in
# several orders; "%" and non-ASCII keys meet the cached layout's escaping.
HEADER_KEYS = st.sampled_from(["Date", "Time", "SysId", "Eth", "%s", "100%", "Zeit\u00e4"])


@st.composite
def chain_batches(draw):
    """Records in batches; the store is closed and reopened between batches.

    Records draw their tokens from a small pool, half of them as the pool's
    own tuple object and half as an equal tuple of their own.
    """
    pool = draw(st.lists(st.lists(any_text, max_size=5).map(tuple),
                         min_size=1, max_size=4))
    headers = st.dictionaries(st.one_of(HEADER_KEYS, any_text), any_text, max_size=5)
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for _ in range(draw(st.integers(0, 6))):
            tokens = pool[draw(st.integers(0, len(pool) - 1))]
            if draw(st.booleans()):
                tokens = tuple(list(tokens))  # equal, but not the pool's object
            batch.append(LogRecord(draw(st.integers()), draw(headers),
                                   draw(any_text), tokens))
        batches.append(batch)
    return batches


@settings(max_examples=150, deadline=None)
@given(batches=chain_batches())
def test_frames_match_reference_writer(tmp_path_factory, batches):
    path = tmp_path_factory.mktemp("chain") / "c.bin"
    entries = []
    for batch in batches:
        with ChainStore(path) as store:
            entries += [store.append(rec) for rec in batch]
    records = [rec for batch in batches for rec in batch]
    expected = reference_chain.frames(records)
    assert (path.read_bytes() if path.exists() else b"") == expected
    assert [e.entry_digest for e in entries] == \
        [digest for *_, digest in _frames(expected)]
    assert verify_chain(path).entries == len(records)


def test_frames_match_reference_past_cache_bound(tmp_path):
    """More distinct token tuples than the tokens cache holds, each seen
    twice, far apart: evicted entries are rebuilt to the same bytes."""
    records = [LogRecord(i + 1, {"Eth": "ETH0", "SysId": f"S{i % 7}"},
                         f"pump {i % (TOKENS_CACHE_SIZE + 50)}",
                         ("pump", str(i % (TOKENS_CACHE_SIZE + 50))))
               for i in range(2 * TOKENS_CACHE_SIZE + 100)]
    with ChainStore(tmp_path / "c.bin") as store:
        for rec in records:
            store.append(rec)
    assert (tmp_path / "c.bin").read_bytes() == reference_chain.frames(records)


class _ShortWrites:
    """A file handle that takes at most ``limits[k]`` bytes on its k-th write,
    then whole writes; a limit of 0 takes nothing and writes nothing."""

    def __init__(self, fh, limits):
        self.fh, self.limits, self.calls = fh, list(limits), 0

    def write(self, data):
        self.calls += 1
        limit = self.limits.pop(0) if self.limits else len(data)
        return self.fh.write(data[:limit]) if limit else 0

    def close(self):
        self.fh.close()


class _TornWrite(_ShortWrites):
    """Takes ``limits`` as :class:`_ShortWrites` does, then raises ``OSError``."""

    def write(self, data):
        if not self.limits:
            raise OSError(5, "Input/output error")
        return super().write(data)


def _pump(i):
    return LogRecord(i + 1, {"SysId": "S1"}, f"pump {i}", ("pump", str(i)))


class TestAppendFailures:
    def test_short_write_is_finished(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        with ChainStore(path) as store:
            store.append(_pump(0))
            handle = _ShortWrites(store._fh, [5, 1, 30])
            monkeypatch.setattr(store, "_fh", handle)
            store.append(_pump(1))
            store.append(_pump(2))
        assert handle.calls == 5  # four for the torn frame, one for the next
        assert path.read_bytes() == reference_chain.frames([_pump(i) for i in range(3)])

    @pytest.mark.parametrize("limits", [[0], [7, 0], [60, 12, 0]])
    def test_stalled_write_raises(self, tmp_path, monkeypatch, limits):
        path = tmp_path / "c.bin"
        with ChainStore(path) as store:
            store.append(_pump(0))
            monkeypatch.setattr(store, "_fh", _ShortWrites(store._fh, limits))
            with pytest.raises(AppendFailed, match="entry 1: wrote"):
                store.append(_pump(1))
        report = verify_chain(path)
        assert report.first_bad_index == (None if sum(limits) == 0 else 1)

    def test_failing_write_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        with ChainStore(path) as store:
            store.append(_pump(0))

            def no_space(data):
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(store._fh, "write", no_space, raising=False)
            with pytest.raises(AppendFailed, match="No space left"):
                store.append(_pump(1))
        assert verify_chain(path).entries == 1

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unusable_path_raises(self, tmp_path, where):
        path = tmp_path / "d"
        if where == "directory":
            path.mkdir()
            (path / "f").write_bytes(b"x" * 100)
        else:
            path = path / "c.bin"
        with pytest.raises(AppendFailed):
            ChainStore(path)

    @pytest.mark.parametrize("handle, limits", [(_TornWrite, [10]),
                                                (_ShortWrites, [10, 0]),
                                                (_TornWrite, [])],
                             ids=["torn-then-error", "torn-then-stalled", "error"])
    def test_no_append_after_a_failed_one(self, tmp_path, monkeypatch, handle, limits):
        path = tmp_path / "c.bin"
        with ChainStore(path) as store:
            store.append(_pump(0))
            good = path.read_bytes()
            real = store._fh
            monkeypatch.setattr(store, "_fh", handle(real, limits))
            with pytest.raises(AppendFailed, match="entry 1: "):
                store.append(_pump(1))
            monkeypatch.setattr(store, "_fh", real)  # writes would succeed again
            for i in (2, 3):
                with pytest.raises(AppendFailed, match="entry 1 failed"):
                    store.append(_pump(i))
        torn = sum(limits)
        assert path.read_bytes()[:len(good)] == good
        assert path.stat().st_size == len(good) + torn
        report = verify_chain(path)
        assert (report.valid, report.first_bad_index, report.entries) == \
            (not torn, 1 if torn else None, 1)
