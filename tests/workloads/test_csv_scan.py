"""The compiled CSV block scanner against the row loop it fronts.

``traces._csv_chunks`` parses a log through the C block scanner up to
the first line the scanner refuses, and through the row loop
(``traces._row_chunks``) from there on.  With ``REPRO_BATCH_SWEEP=python``
the row loop reads the whole file, and that run is the oracle here: for
generated logs (header permutations, LF / CRLF / lone CR, blank lines,
quoted fields, padded and ``_``-separated numbers, ``inf``/``nan``/hex,
32-bit edges, short rows, extra fields, non-ASCII names, NUL) the two
runs must give the same concatenated chunks (values and dtypes), the
same interned item order, or the same exception type and message.
Block cuts are moved down to single characters so that they fall
everywhere, between ``"\\r"`` and ``"\\n"`` included.
"""

import csv
import io
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels.batch import _load_sweep_lib
from repro.workloads import traces
from repro.workloads.columnar import convert_csv
from repro.workloads.traces import TraceRecord, _csv_chunks, read_trace, write_trace

from ..offline.test_kernels import backend

_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CHUNK_ROWS = (1, 2, 3, 7, 1 << 16)

needs_scanner = pytest.mark.skipif(
    _load_sweep_lib() is None, reason="no C compiler: the row loop runs alone"
)


@contextmanager
def block_chars(n):
    """Read ``n`` characters per scanner block (before the line-end
    extension) instead of the default."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_BLOCK_CHARS", n)
        yield


def outcome(path, chunk_rows):
    """What a consumer of ``_csv_chunks`` sees: the columns and the
    interned names, or the exception."""
    interned = {}
    try:
        chunks = list(_csv_chunks(path, interned, chunk_rows))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    assert all(0 < c[0].shape[0] <= chunk_rows for c in chunks)
    columns = []
    for k, dtype in enumerate((np.float64, np.int32, np.int32, np.int32)):
        parts = [c[k] for c in chunks]
        assert all(p.dtype == dtype for p in parts)
        columns.append(np.concatenate(parts).tobytes() if parts else b"")
    return columns, list(interned.items())


def assert_same(path, chunk_rows, blocks=(1 << 20,)):
    with backend("python"):
        want = outcome(path, chunk_rows)
    for n in blocks:
        with block_chars(n):
            assert outcome(path, chunk_rows) == want, (n, path.read_bytes())


# -- generated logs ----------------------------------------------------------

TIMES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        [
            "0", "-0", "+1.5", ".5", "5.", "1e5", "1E-3", "-2.5e+10", "1e-400",
            "4.9e-324", "1.7976931348623157e308", "0.30000000000000004",
            "9007199254740993", "123456789012345678901234567890e-20",
            "inf", "-inf", "nan", "NaN", "Infinity", "0x1p3", "1e400", "-1e999",
            " 1.0", "1.0 ", "1_0", "1__0", "", ".", "1e", "e5", "+", "1.2.3",
            "٣", "1٣", "１",
        ]
    ),
)

INTS = st.one_of(
    st.integers(-5, 40).map(str),
    st.sampled_from(
        [
            "2147483647", "-2147483648", "2147483648", "-2147483649",
            "+7", "-0", "007", "00000000000000000001", "99999999999",
            "4294967296", " 5", "5 ", "1_0", "", "+", "-", "1.0", "٣",
        ]
    ),
)

NAMES = st.one_of(
    st.sampled_from(["a", "b", "item-00001", "", "é", "名字", "x y"]),
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
        max_size=6,
    ),
    st.sampled_from(['"q,uoted"', '"dou""ble"', '"multi\nline"', 'mid"quote', "nul\0"]),
)

ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def headers(draw):
    cols = ["time", "server"]
    cols += draw(st.lists(st.sampled_from(["user", "item", "x"]), unique=True))
    cols = draw(st.permutations(cols))
    if draw(st.integers(0, 30)) == 0:
        cols = cols + [draw(st.sampled_from(cols))]  # a repeated column
    return cols


@st.composite
def logs(draw):
    """A log text, mostly regular, with a few irregular lines mixed in."""
    cols = draw(headers())
    crlf = draw(st.booleans())
    lines = [",".join(cols) + ("\r\n" if crlf else "\n")]
    field = {"time": TIMES, "server": INTS, "user": INTS, "item": NAMES}
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(ENDS))  # blank line
            continue
        row = [draw(field.get(c, NAMES)) for c in cols]
        if kind == 1:
            row = row[: draw(st.integers(0, len(row)))]  # short row
        elif kind == 2:
            row += draw(st.lists(NAMES, min_size=1, max_size=2))  # extra fields
        end = draw(ENDS) if kind == 3 else ("\r\n" if crlf else "\n")
        lines.append(",".join(row) + end)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end at EOF
    return text


@settings(**_SETTINGS)
@given(
    text=logs(),
    chunk_rows=st.sampled_from(CHUNK_ROWS),
    block=st.integers(1, 40),
)
def test_generated_logs_parse_like_the_row_loop(tmp_path_factory, text, chunk_rows, block):
    path = tmp_path_factory.mktemp("scan") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same(path, chunk_rows, blocks=(block, 1 << 20))


@st.composite
def regular_logs(draw):
    """Logs the scanner takes whole: plain numbers and names, LF or CRLF."""
    cols = draw(st.permutations(["time", "server", "user", "item"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.integers(-(2**31), 2**31 - 1).map(str),
                st.one_of(st.just(""), st.integers(-(2**31), 2**31 - 1).map(str)),
                st.sampled_from(["a", "b", "c", "", "é", "item-00042"]),
            ),
            max_size=30,
        )
    )
    lines = [",".join(cols) + end]
    for r in rows:
        fields = dict(zip(["time", "server", "user", "item"], r))
        lines.append(",".join(fields[c] for c in cols) + end)
    return "".join(lines)


@needs_scanner
@settings(**_SETTINGS)
@given(text=regular_logs(), chunk_rows=st.sampled_from(CHUNK_ROWS), block=st.integers(1, 40))
def test_regular_logs_never_reach_the_row_loop(tmp_path_factory, text, chunk_rows, block):
    path = tmp_path_factory.mktemp("scan") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with backend("python"):
        want = outcome(path, chunk_rows)
    with block_chars(block), no_row_loop():
        assert outcome(path, chunk_rows) == want


# -- every cut ---------------------------------------------------------------

MIXED = (
    "item,time,user,server\r\n"
    "a,0.5,,1\r\n"
    "\r\n"
    "b,1e-3,7,2\r\n"
    "é,2.25,-1,0\n"
    "\n"
    "a,3,+5,-4\r\n"
    "c,4.5,1,1\r"
    "d,5.5,2,2\r\n"
    '"e,f",6.5,3,3\r\n'
    "a,7.5,4,4\r\n"
    "g,8.5,5,5"
)


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_block_cut_at_every_character(tmp_path, chunk_rows):
    path = tmp_path / "t.csv"
    path.write_bytes(MIXED.encode("utf-8"))
    assert_same(path, chunk_rows, blocks=range(1, len(MIXED) + 2))


@pytest.mark.parametrize(
    "tail, message",
    [
        ("x,9.5,1,1\r\n", None),
        ("x,inf,1,1\r\n", "request time must be finite, got inf"),
        ("x,9.5,1,2147483648\r\n", "server and user must be 32-bit integers"),
        ("x,nope,1,1\r\n", "['x', 'nope', '1', '1']"),
        ("x,9.5\r\n", "['x', '9.5']"),
        ('"x\r\n', None),
    ],
)
def test_errors_after_the_handoff_name_their_line(tmp_path, tail, message):
    text = MIXED + "\r\n" + tail
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same(path, 3, blocks=(1, 7, 1 << 20))
    if message is not None:
        with pytest.raises(traces.InvalidInstanceError) as err:
            read_trace(path)
        assert str(err.value) == f"bad trace line 13: {message}"


@pytest.mark.parametrize("sweep", ["python", "auto"])
@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_first_bad_line_wins_whatever_the_chunk_size(tmp_path, sweep, chunk_rows):
    # Line 3's server overflows 32 bits, which the row loop finds when
    # it checks a chunk; line 4 fails at once, as a short row or as a
    # csv.Error.  Line 3 is reported either way.
    path = tmp_path / "t.csv"
    old = csv.field_size_limit(12)
    try:
        for later in ("0\n", "0,1234567890123\n"):
            path.write_text("server,time\n0,0.0\n99999999999,0.0\n" + later)
            with backend(sweep), pytest.raises(traces.InvalidInstanceError) as err:
                convert_csv(path, tmp_path / "t.col", chunk_rows=chunk_rows)
            assert str(err.value) == "bad trace line 3: server and user must be 32-bit integers"
    finally:
        csv.field_size_limit(old)


def test_field_size_limit_is_the_row_loops(tmp_path):
    old = csv.field_size_limit(8)
    try:
        for name in ("12345678", "123456789", "éééé", "ééééé"):
            path = tmp_path / "t.csv"
            path.write_bytes(f"time,server,item\n1.0,2,a\n2.0,3,{name}\n".encode())
            assert_same(path, 7, blocks=(1, 1 << 20))
    finally:
        csv.field_size_limit(old)


def test_undecodable_text_fails_where_the_row_loop_fails(tmp_path):
    rows = "".join(f"{i}.5,{i % 4},-1,item-{i % 3}\n" for i in range(3000))
    path = tmp_path / "t.csv"
    path.write_bytes(b"time,server,user,item\n" + rows.encode() + b"9.5,1,-1,\xff\n")
    for chunk_rows in (7, 1 << 16):
        assert_same(path, chunk_rows, blocks=(1, 1000, 50_000, 1 << 20))


# -- the claim: regular logs never reach the row loop ------------------------


@contextmanager
def no_row_loop():
    def refuse(*args, **kwargs):
        raise AssertionError("the row loop ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_row_chunks", refuse)
        yield


@needs_scanner
@pytest.mark.parametrize("block", [4096, traces._BLOCK_CHARS])
def test_lf_and_write_trace_logs_skip_the_row_loop(tmp_path, block):
    # 1500 item names: more than one scanner call's first name table.
    records = [
        TraceRecord(i / 7, i % 5, user=-1 if i % 3 else i, item=f"item-{i % 1500}")
        for i in range(5000)
    ]
    crlf = tmp_path / "crlf.csv"
    write_trace(records, crlf)
    assert b"\r\n" in crlf.read_bytes()
    lf = tmp_path / "lf.csv"
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    for path in (lf, crlf):
        with backend("python"):
            convert_csv(path, tmp_path / "want.col", chunk_rows=999)
        with no_row_loop(), block_chars(block):
            assert read_trace(path) == records
            convert_csv(path, tmp_path / "got.col", chunk_rows=999)
        assert (tmp_path / "got.col").read_bytes() == (tmp_path / "want.col").read_bytes()


def test_open_handles_use_the_row_loop_alone():
    calls = []
    real = traces._row_chunks

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_row_chunks", spy)
        assert read_trace(io.StringIO("time,server\n1.5,2\n")) == [TraceRecord(1.5, 2)]
    assert calls == [1]


def test_pinned_c_without_the_library_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,server\n1.0,0\n")
    from repro.kernels import batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BATCH_SWEEP", "c")
        mp.setattr(batch, "_load_sweep_lib", lambda: None)
        with pytest.raises(RuntimeError, match="REPRO_BATCH_SWEEP=c"):
            read_trace(path)
