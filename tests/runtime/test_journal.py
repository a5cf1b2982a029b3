"""Write-ahead journal: append/load round-trips and WAL recovery."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import journal as journal_module
from repro.runtime.journal import JournalCorruptError, RunJournal


def _rec(seq, **extra):
    base = {"seq": seq, "kind": "request", "time": float(seq), "digest": f"d{seq}"}
    base.update(extra)
    return base


class TestInMemory:
    def test_appends_and_queries(self):
        j = RunJournal.open_fresh(None)
        for k in range(5):
            assert j.append(_rec(k)) == k
        assert len(j) == 5
        assert j.last_seq == 4
        assert j.record_at(3)["time"] == 3.0
        assert j.record_at(99) is None
        assert j.digests() == [f"d{k}" for k in range(5)]

    def test_rejects_sequence_gap(self):
        j = RunJournal.open_fresh(None)
        j.append(_rec(0))
        with pytest.raises(JournalCorruptError, match="non-contiguous"):
            j.append(_rec(2))

    def test_rejects_missing_digest(self):
        j = RunJournal.open_fresh(None)
        rec = _rec(0)
        del rec["digest"]
        with pytest.raises(JournalCorruptError, match="digest"):
            j.append(rec)


class TestFileBacked:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        j = RunJournal.open_fresh(path)
        for k in range(7):
            j.append(_rec(k))
        j.close()
        back = RunJournal.load(path)
        assert back.records == j.records

    def test_open_fresh_truncates(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        j = RunJournal.open_fresh(path)
        j.append(_rec(0))
        j.close()
        j2 = RunJournal.open_fresh(path)
        j2.append(_rec(0, digest="other"))
        j2.close()
        assert RunJournal.load(path).record_at(0)["digest"] == "other"

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        j = RunJournal.open_fresh(path)
        for k in range(4):
            j.append(_rec(k))
        j.close()
        raw = open(path).read().rstrip("\n")
        torn = raw[: raw.rfind("{") + 20]  # cut the last record mid-JSON
        open(path, "w").write(torn)
        back = RunJournal.load(path)
        assert back.last_seq == 2  # record 3 was torn, prefix survives

    def test_load_rewrites_valid_prefix_after_torn_tail(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        j = RunJournal.open_fresh(path)
        for k in range(3):
            j.append(_rec(k))
        j.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "kind": "requ')  # torn mid-append
        back = RunJournal.load(path)
        back.append(_rec(3))
        back.close()
        lines = [json.loads(l) for l in open(path).read().splitlines()]
        assert [r["seq"] for r in lines] == [0, 1, 2, 3]

    def test_load_leaves_an_intact_journal_as_written(self, tmp_path):
        # No re-render: a journal written with other separators than
        # json.dumps' defaults keeps its bytes, and appends follow them.
        path = tmp_path / "run.jsonl"
        blob = "".join(
            json.dumps(_rec(k), separators=(",", ":")) + "\n" for k in range(3)
        ).encode()
        path.write_bytes(blob)
        back = RunJournal.load(str(path))
        back.append(_rec(3))
        back.close()
        assert path.read_bytes() == blob + (json.dumps(_rec(3)) + "\n").encode()

    def test_load_failure_leaves_an_intact_journal_whole(self, tmp_path, monkeypatch):
        # Records already durable stay durable whatever load hits: it
        # must not truncate the file to write it again.
        path = tmp_path / "run.jsonl"
        blob = "".join(json.dumps(_rec(k)) + "\n" for k in range(3)).encode()
        path.write_bytes(blob)

        def refuse(*args, **kwargs):
            raise RuntimeError("encoder down")

        monkeypatch.setattr(journal_module.json, "dumps", refuse)
        try:
            RunJournal.load(str(path)).close()
        except RuntimeError:
            pass
        monkeypatch.undo()
        assert path.read_bytes() == blob

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        j = RunJournal.open_fresh(path)
        for k in range(3):
            j.append(_rec(k))
        j.close()
        lines = open(path).read().splitlines()
        lines[1] = '{"broken'
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError, match="not the tail"):
            RunJournal.load(path)

    def test_sequence_gap_in_file_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(_rec(0)) + "\n")
            fh.write(json.dumps(_rec(5)) + "\n")
        with pytest.raises(JournalCorruptError, match="non-contiguous"):
            RunJournal.load(path)

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            "[1]",
            "null",
            '"text"',
            '{"seq": true, "digest": "d1"}',
            '{"seq": 1.0, "digest": "d1"}',
        ],
    )
    def test_record_not_an_object_with_int_seq_raises(self, tmp_path, line):
        # Valid JSON in the wrong shape is corruption, reported as such;
        # true and 1.0 compare equal to 1 but are not an int seq.
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(_rec(0)) + "\n" + line + "\n" + json.dumps(_rec(2)) + "\n"
        )
        with pytest.raises(JournalCorruptError):
            RunJournal.load(str(path))


#: Record bodies as the writers produce them (``seq`` is added in order).
_BODIES = st.lists(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["request", "degraded", "crash"]),
            "time": st.floats(allow_nan=False),
            "item": st.text(max_size=6),
            "digest": st.text(max_size=6),
        }
    ),
    max_size=4,
)


def _journal_lines(bodies):
    """Records and their exact file lines (newline included)."""
    records = [{"seq": k, **body} for k, body in enumerate(bodies)]
    lines = [(json.dumps(r, allow_nan=True) + "\n").encode() for r in records]
    return records, lines


class TestReaderFuzz:
    @given(bodies=_BODIES)
    @settings(max_examples=25, deadline=None)
    def test_truncated_at_every_byte_keeps_the_whole_records(
        self, tmp_path_factory, bodies
    ):
        # A kill can cut the file at any byte: load keeps exactly the
        # records whose JSON text survived whole (the newline may be
        # gone) and rewrites the file to just those.
        path = tmp_path_factory.mktemp("wal") / "run.jsonl"
        records, lines = _journal_lines(bodies)
        blob = b"".join(lines)
        text_ends, end = [], 0
        for line in lines:
            end += len(line)
            text_ends.append(end - 1)
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            kept = sum(1 for e in text_ends if e <= cut)
            journal = RunJournal.load(str(path))
            journal.close()
            assert journal.records == records[:kept]
            assert path.read_bytes() == b"".join(lines[:kept])

    @given(
        bodies=_BODIES.filter(bool),
        garbage=st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_tail_garbage_raises_corrupt(
        self, tmp_path_factory, bodies, garbage, data
    ):
        path = tmp_path_factory.mktemp("wal") / "run.jsonl"
        _, lines = _journal_lines(bodies)
        at = data.draw(st.integers(0, len(lines) - 1))
        path.write_bytes(
            b"".join(lines[:at]) + garbage + b"\n" + b"".join(lines[at:])
        )
        with pytest.raises(JournalCorruptError):
            RunJournal.load(str(path))
