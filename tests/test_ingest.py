import random
import struct

import pytest

from logconformal.errors import AppendFailed, MalformedFormat, UnparsableLine
from logconformal.ingest import (ChainStore, LogRecord, compile_schema,
                                 preprocess, read_log_file, read_records,
                                 verify_chain)

IIOT_FORMAT = "<Date> <Time> <SysId> <Eth> <Content>"
HDFS_FORMAT = "<Date> <Time> <Pid> <Level> <Component>: <Content>"


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
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedFormat):
            compile_schema(bad)

    @pytest.mark.parametrize("rule", [
        ("(unclosed", "<*>"),            # pattern does not compile
        (r"\d+", r"\9"),                 # replacement names a missing group
        (r"\d+", 5),                     # replacement is not a string
        (r"\d+",),                       # not a (pattern, replacement) pair
    ])
    def test_malformed_mask_rule(self, rule):
        with pytest.raises(MalformedFormat):
            compile_schema("<Content>", [rule])


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


def _store_with_entries(path, count):
    store = ChainStore(path)
    entries = []
    for i in range(count):
        rec = LogRecord(line_id=i + 1, headers={"SysId": f"SYS{i % 5}"},
                        content=f"pump reading {i}",
                        tokens=("pump", "reading", str(i)))
        entries.append(store.append(rec))
    return store, entries


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
        store, entries = _store_with_entries(path, 10)
        before = [e.entry_digest for e in store.entries()]
        store.append(LogRecord(line_id=11, headers={}, content="x", tokens=("x",)))
        after = [e.entry_digest for e in store.entries()]
        assert after[:10] == before

    def test_reopen_continues_chain(self, tmp_path):
        path = tmp_path / "c.bin"
        _store_with_entries(path, 5)
        store2 = ChainStore(path)
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
