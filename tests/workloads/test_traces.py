"""Trace writing / reading / mining tests."""

import io

import pytest

from repro import InvalidInstanceError
from repro.workloads import TraceRecord, mine_instance, read_trace, write_trace


def sample_records():
    return [
        TraceRecord(0.5, 1, user=7, item="A"),
        TraceRecord(0.8, 2, user=7, item="A"),
        TraceRecord(0.9, 0, user=3, item="B"),
        TraceRecord(1.4, 0, user=3, item="A"),
    ]


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(sample_records(), path)
        back = read_trace(path)
        assert back == sample_records()

    def test_stream_roundtrip(self):
        buf = io.StringIO()
        write_trace(sample_records(), buf)
        buf.seek(0)
        assert read_trace(buf) == sample_records()

    def test_times_survive_exactly(self, tmp_path):
        recs = [TraceRecord(0.1 + 0.2, 0)]  # classic float artefact
        path = tmp_path / "t.csv"
        write_trace(recs, path)
        assert read_trace(path)[0].time == 0.1 + 0.2


class TestReadValidation:
    def test_missing_header(self):
        with pytest.raises(InvalidInstanceError, match="header"):
            read_trace(io.StringIO("0.5,1\n"))

    def test_missing_server_column(self):
        with pytest.raises(InvalidInstanceError, match="server"):
            read_trace(io.StringIO("time,user\n0.5,1\n"))

    def test_bad_line_reported_with_number(self):
        data = "time,server\n0.5,1\nnot-a-number,2\n"
        with pytest.raises(InvalidInstanceError, match="line 3"):
            read_trace(io.StringIO(data))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_time_reported_with_number(self, bad):
        data = f"time,server,item\n0.5,1,a\n{bad},0,a\n2.0,1,a\n"
        msg = "line 3: request time must be finite"
        with pytest.raises(InvalidInstanceError, match=msg):
            read_trace(io.StringIO(data))
        with pytest.raises(InvalidInstanceError, match="line 3"):
            mine_instance(io.StringIO(data), item="a")

    def test_optional_columns_defaulted(self):
        recs = read_trace(io.StringIO("time,server\n1.5,2\n"))
        assert recs[0].user == -1 and recs[0].item == ""


class TestMining:
    def test_mine_selects_item(self):
        inst = mine_instance(sample_records(), item="A", num_servers=3)
        assert inst.n == 3
        assert list(inst.srv[1:]) == [1, 2, 0]

    def test_mine_all_rows_when_item_none(self):
        inst = mine_instance(sample_records(), num_servers=3)
        assert inst.n == 4

    def test_mine_empty_selection_rejected(self):
        with pytest.raises(InvalidInstanceError, match="no rows"):
            mine_instance(sample_records(), item="C")

    def test_mine_sorts_and_dedups_clock_skew(self):
        recs = [
            TraceRecord(2.0, 0),
            TraceRecord(1.0, 1),
            TraceRecord(1.0, 2),  # duplicate stamp from another shard
        ]
        inst = mine_instance(recs, num_servers=3)
        assert inst.n == 3
        assert list(inst.srv[1:]) == [1, 2, 0]

    def test_mine_from_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(sample_records(), path)
        inst = mine_instance(path, item="A")
        assert inst.n == 3

    def test_mine_handles_nonpositive_first_time(self):
        recs = [TraceRecord(-3.0, 1), TraceRecord(1.0, 0)]
        inst = mine_instance(recs, num_servers=2)
        assert inst.t[0] < -3.0
