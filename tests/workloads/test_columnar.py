"""Columnar trace container tests: round-trips, laziness, bit-identity.

The load-bearing property (hypothesis-driven below): for *any* record
list, ``CSV -> convert_csv -> columnar -> mine`` produces exactly the
same :class:`ProblemInstance` as mining the CSV directly — same floats,
same de-dup nudges, same sort tie-breaking, same arrays bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InvalidInstanceError, MultiItemInstance
from repro.workloads import (
    ColumnarTrace,
    TraceRecord,
    convert_csv,
    is_columnar,
    mine_instance,
    mine_instance_columnar,
    read_columnar,
    read_trace,
    write_columnar,
    write_trace,
)
from repro.workloads.sampling import solve_trace_costs

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def sample_records():
    return [
        TraceRecord(0.5, 1, user=7, item="A"),
        TraceRecord(0.8, 2, user=7, item="A"),
        TraceRecord(0.9, 0, user=3, item="B"),
        TraceRecord(1.4, 0, user=3, item="A"),
        TraceRecord(1.4, 2, user=-1, item=""),
    ]


@st.composite
def record_lists(draw):
    """Adversarial logs: ties, out-of-order stamps, odd item names."""
    n = draw(st.integers(min_value=1, max_value=30))
    base_times = draw(
        st.lists(
            st.floats(
                min_value=-100.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=n,
            max_size=n,
        )
    )
    items = st.sampled_from(["", "A", "B", "name,with \"quotes\"", "日本"])
    return [
        TraceRecord(
            time=base_times[i],
            server=draw(st.integers(min_value=0, max_value=4)),
            user=draw(st.integers(min_value=-1, max_value=9)),
            item=draw(items),
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        assert is_columnar(path)
        assert read_columnar(path).to_records() == sample_records()

    def test_from_records_interns_first_appearance(self):
        ct = ColumnarTrace.from_records(sample_records())
        assert ct.item_table == ("A", "B", "")
        assert list(ct.item_ids) == [0, 0, 1, 0, 2]
        assert ct.items_in_order() == ["A", "B", ""]

    def test_times_survive_exactly(self, tmp_path):
        recs = [TraceRecord(0.1 + 0.2, 0)]  # classic float artefact
        path = tmp_path / "t.col"
        write_columnar(recs, path)
        assert read_columnar(path).to_records()[0].time == 0.1 + 0.2

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError, match="length"):
            ColumnarTrace([0.5], [1, 2], [0, 0], [0, 0], [""])


class TestLazyReader:
    def test_open_reads_only_header(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        ct = read_columnar(path)
        assert ct._columns == {}  # nothing mapped yet
        assert ct.rows == len(sample_records())
        _ = ct.times
        assert set(ct._columns) == {"time"}  # only the touched column
        assert isinstance(ct._columns["time"], np.memmap)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(sample_records(), path)
        with pytest.raises(InvalidInstanceError, match="bad magic"):
            ColumnarTrace.open(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        raw = bytearray(path.read_bytes())
        raw[20] = 0xFF  # stomp inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInstanceError, match="corrupt"):
            ColumnarTrace.open(path)


class TestConverter:
    def test_convert_matches_from_records(self, tmp_path):
        csv_path, col_path = tmp_path / "t.csv", tmp_path / "t.col"
        write_trace(sample_records(), csv_path)
        rows = convert_csv(csv_path, col_path)
        assert rows == len(sample_records())
        assert read_columnar(col_path).to_records() == sample_records()

    def test_tiny_chunks_equal_one_shot(self, tmp_path):
        recs = [
            TraceRecord(float(i) / 7, i % 3, item=f"it-{i % 5}")
            for i in range(101)
        ]
        csv_path = tmp_path / "t.csv"
        write_trace(recs, csv_path)
        convert_csv(csv_path, tmp_path / "a.col", chunk_rows=1)
        convert_csv(csv_path, tmp_path / "b.col", chunk_rows=1 << 16)
        assert (tmp_path / "a.col").read_bytes() == (
            tmp_path / "b.col"
        ).read_bytes()

    def test_no_spill_files_left(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        write_trace(sample_records(), csv_path)
        convert_csv(csv_path, tmp_path / "t.col")
        assert not list(tmp_path.glob("*.spill"))

    def test_bad_line_reported_and_spills_cleaned(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("time,server\n1.0,0\nnope,1\n")
        with pytest.raises(InvalidInstanceError, match="bad trace line 3"):
            convert_csv(csv_path, tmp_path / "t.col")
        assert not list(tmp_path.glob("*.spill"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_time_rejected_like_read_trace(self, tmp_path, bad):
        # Line 8 sits in the third 3-row chunk; in the second file a
        # later unparsable line in the same chunk must not mask it.
        msg = f"bad trace line 8: request time must be finite, got {float(bad)}"
        good = [f"{i}.0,{i % 2}\n" for i in range(1, 10)]
        rows = good[:6] + [f"{bad},0\n"] + good[6:]
        csv_path, dest = tmp_path / "t.csv", tmp_path / "t.col"
        for tail in ([], ["nope,1\n"]):
            csv_path.write_text("time,server\n" + "".join(rows[:8] + tail + rows[8:]))
            with pytest.raises(InvalidInstanceError) as from_csv:
                read_trace(csv_path)
            assert str(from_csv.value) == msg
            with pytest.raises(InvalidInstanceError) as from_convert:
                convert_csv(csv_path, dest, chunk_rows=3)
            assert str(from_convert.value) == msg
            assert not list(tmp_path.glob("*.spill")) and not dest.exists()

    def test_missing_header_rejected(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInstanceError, match="header"):
            convert_csv(csv_path, tmp_path / "t.col")

    def test_bad_chunk_rows(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_rows"):
            convert_csv(tmp_path / "t.csv", tmp_path / "t.col", chunk_rows=0)


#: CSV inputs on which ``read_trace`` and ``convert_csv`` once parted
#: ways: each reads as the records given, or fails with the message
#: given (naming the physical line) from both.
ONE_FORMAT = {
    "blank line mid-file": (
        "time,server,item\n1.0,0,a\n\n2.0,1,a\n",
        [TraceRecord(1.0, 0, item="a"), TraceRecord(2.0, 1, item="a")],
    ),
    "blank lines at EOF": (
        "time,server,item\n1.0,0,a\n2.0,1,a\n\n\n",
        [TraceRecord(1.0, 0, item="a"), TraceRecord(2.0, 1, item="a")],
    ),
    "bad row after a blank line": (
        "time,server\n1.0,0\n\nnope,1\n",
        "bad trace line 4: ['nope', '1']",
    ),
    "short row": (
        "time,server,user,item\n1.0,0,3,a\n2.0,1\n",
        "bad trace line 3: ['2.0', '1']",
    ),
    "repeated header column": (
        "time,server,time\n1.0,0,2.0\n",
        "bad trace line 1: trace header repeats column 'time'",
    ),
    "bad row after a quoted newline": (
        'time,server,item\n1.0,0,"multi\nline"\nnope,1,a\n',
        "bad trace line 4: ['nope', '1', 'a']",
    ),
}


class TestOneFormat:
    @pytest.mark.parametrize("case", list(ONE_FORMAT))
    def test_read_trace_and_convert_csv_agree(self, tmp_path, case):
        text, expected = ONE_FORMAT[case]
        csv_path, dest = tmp_path / "t.csv", tmp_path / "t.col"
        csv_path.write_text(text)
        if isinstance(expected, str):
            with pytest.raises(InvalidInstanceError) as from_csv:
                read_trace(csv_path)
            with pytest.raises(InvalidInstanceError) as from_convert:
                convert_csv(csv_path, dest)
            assert str(from_csv.value) == str(from_convert.value) == expected
            assert not dest.exists()
        else:
            convert_csv(csv_path, dest)
            assert read_trace(csv_path) == read_columnar(dest).to_records()
            assert read_trace(csv_path) == expected

    def test_out_of_range_id_names_its_line(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("time,server\n1.0,0\n2.0,4294967296\n")
        msg = "bad trace line 3: server and user must be 32-bit integers"
        with pytest.raises(InvalidInstanceError, match=msg):
            read_trace(csv_path)
        with pytest.raises(InvalidInstanceError, match=msg):
            convert_csv(csv_path, tmp_path / "t.col")


class TestNonFiniteContainerTime:
    @pytest.mark.parametrize(
        "mine",
        [
            solve_trace_costs,
            mine_instance_columnar,
            MultiItemInstance.from_columnar,
        ],
        ids=["solve_trace_costs", "mine_instance_columnar", "from_columnar"],
    )
    def test_nan_time_reaches_the_prescan(self, tmp_path, mine):
        # A NaN fails the "all gaps > 0" test without any gap <= 0; the
        # min-gap sweep must leave it to the pre-scan's finite check.
        path = tmp_path / "t.col"
        ColumnarTrace(
            [1.0, np.nan, 3.0], [0, 1, 0], [-1, -1, -1], [0, 0, 0], ("a",)
        ).save(path)
        with pytest.raises(InvalidInstanceError, match="request times must be finite"):
            mine(path)


class TestMiningIdentity:
    def test_item_filter_and_errors(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        inst = mine_instance_columnar(path, item="A", num_servers=3)
        assert inst.n == 3
        with pytest.raises(InvalidInstanceError, match="no rows for item"):
            mine_instance_columnar(path, item="missing")

    @given(recs=record_lists())
    @settings(**_SETTINGS)
    def test_csv_and_columnar_mining_bit_identical(self, recs, tmp_path_factory):
        """CSV -> convert -> columnar mine == direct CSV mine, exactly."""
        tmp = tmp_path_factory.mktemp("prop")
        csv_path, col_path = tmp / "t.csv", tmp / "t.col"
        write_trace(recs, csv_path)
        convert_csv(csv_path, col_path, chunk_rows=7)
        for item in {None} | {r.item for r in recs}:
            a = mine_instance(csv_path, item=item, num_servers=5)
            b = mine_instance_columnar(col_path, item=item, num_servers=5)
            assert a == b  # covers t/srv/cost/origin equality
            for fa, fb in zip(
                (a.t, a.srv, a.p, a.sigma, a.b, a.B),
                (b.t, b.srv, b.p, b.sigma, b.b, b.B),
            ):
                assert fa.tobytes() == fb.tobytes()

    @given(recs=record_lists())
    @settings(**_SETTINGS)
    def test_service_construction_bit_identical(self, recs, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("svc")
        csv_path, col_path = tmp / "t.csv", tmp / "t.col"
        write_trace(recs, csv_path)
        convert_csv(csv_path, col_path)
        sa = MultiItemInstance.from_records(read_trace(csv_path))
        sb = MultiItemInstance.from_columnar(col_path)
        assert list(sa.items) == list(sb.items)
        for k in sa.items:
            assert sa.items[k] == sb.items[k]
            assert sa.items[k].t.tobytes() == sb.items[k].t.tobytes()


class TestCloseLifecycle:
    def test_close_releases_and_raises(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        trace = read_columnar(path)
        assert trace.times.shape[0] == len(sample_records())  # map a column
        trace.close()
        assert trace.closed
        for attr in ("times", "servers", "users", "item_ids"):
            with pytest.raises(ValueError, match="closed ColumnarTrace"):
                getattr(trace, attr)
        with pytest.raises(ValueError, match="closed ColumnarTrace"):
            trace.to_records()

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        trace = read_columnar(path)
        trace.close()
        trace.close()
        assert trace.closed

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        with read_columnar(path) as trace:
            assert not trace.closed
            assert trace.rows == len(sample_records())
        assert trace.closed
        with pytest.raises(ValueError, match="closed ColumnarTrace"):
            trace.times

    def test_context_manager_propagates_exceptions(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        with pytest.raises(RuntimeError, match="boom"):
            with read_columnar(path) as trace:
                raise RuntimeError("boom")
        assert trace.closed

    def test_in_memory_trace_closes_too(self):
        trace = ColumnarTrace.from_records(sample_records())
        with trace:
            assert trace.rows == len(sample_records())
        with pytest.raises(ValueError, match="closed ColumnarTrace"):
            trace.item_ids

    def test_rows_and_metadata_survive_close(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(sample_records(), path)
        trace = read_columnar(path)
        trace.close()
        assert trace.rows == len(sample_records())
        assert trace.item_table  # header metadata stays readable


class TestConverterFailureCleanup:
    def test_mid_conversion_failure_leaves_nothing(self, tmp_path):
        """A parse failure after spill flushes leaves no spills, no
        partial container, and no temp file behind."""
        csv_path = tmp_path / "t.csv"
        lines = ["time,server"]
        lines += [f"{i / 10}, {i % 3}" for i in range(10)]
        lines.append("broken,xx")
        csv_path.write_text("\n".join(lines) + "\n")
        dest = tmp_path / "t.col"
        with pytest.raises(InvalidInstanceError, match="bad trace line 12"):
            convert_csv(csv_path, dest, chunk_rows=2)  # several flushes first
        assert not list(tmp_path.glob("*.spill"))
        assert not list(tmp_path.glob("*.tmp"))
        assert not dest.exists()

    def test_failure_does_not_clobber_existing_dest(self, tmp_path):
        """Re-converting onto an existing container atomically: a failed
        run must leave the old container untouched."""
        csv_path = tmp_path / "t.csv"
        write_trace(sample_records(), csv_path)
        dest = tmp_path / "t.col"
        convert_csv(csv_path, dest)
        good = dest.read_bytes()
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("time,server\n1.0,0\nnope,1\n")
        with pytest.raises(InvalidInstanceError):
            convert_csv(bad_csv, dest)
        assert dest.read_bytes() == good
        assert not list(tmp_path.glob("*.spill"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_unreadable_source_leaves_nothing(self, tmp_path):
        with pytest.raises(OSError):
            convert_csv(tmp_path / "missing.csv", tmp_path / "t.col")
        assert not list(tmp_path.glob("*"))
