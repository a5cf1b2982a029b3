"""Seeded inputs: an open-loop schedule that outlasts its log."""

from __future__ import annotations

from perfbench import inputs


def test_open_loop_schedule_replays_the_log_in_laps():
    shape = inputs.TraceShape(rows=500, items=20, zipf_s=0.5, servers=4, mean_gap=0.01)
    lanes = inputs.open_loop_schedule(
        *inputs.generate(shape, 1), lambda name: int(name[-1]) % 2, 2, 100.0, 20.0, 0.1, 1
    )
    trace_events = int(20.0 * 100.0 / 1.1) + 1
    assert trace_events > 3 * shape.rows
    # Laps are shifted in time, so no event repeats except as a resend.
    assert len({event for lane in lanes for _, event in lane}) == trace_events
    for lane in lanes:
        dues = [due for due, _ in lane]
        assert dues == sorted(dues) and dues[-1] <= 20.0
        seen, latest = set(), {}
        for _, (name, t, server) in lane:
            if (name, t, server) not in seen:
                assert t > latest.get(name, float("-inf"))
                seen.add((name, t, server))
                latest[name] = t
