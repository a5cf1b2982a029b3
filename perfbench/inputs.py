"""Seeded inputs: synthetic service logs and the serving event streams.

Everything here is a pure function of the seed, and nothing calls into
``repro``: the system under test only ever sees the generated rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: (item, time, server) -- one request event.
Event = Tuple[str, float, int]


@dataclass(frozen=True)
class TraceShape:
    """Size and arrival statistics of one synthetic service log."""

    rows: int
    items: int
    zipf_s: float
    servers: int
    #: Mean gap between consecutive rows of the merged log (seconds).
    mean_gap: float


#: The log the serving workloads replay: many items with mild skew,
#: per-item gaps (~40 s) far above the speculative window Δt = λ/μ = 1 s.
LONGTAIL = TraceShape(rows=100_000, items=4000, zipf_s=0.5, servers=16, mean_gap=0.01)
#: Few hot items; per-item gaps (≤ 0.03 s) are far below Δt, so SC never
#: has to extend a lone copy and per-row costs dominate.
HOT = TraceShape(rows=1_000_000, items=64, zipf_s=1.0, servers=16, mean_gap=1e-4)


def item_name(k: int) -> str:
    return f"item-{k:05d}"


def generate(shape: TraceShape, seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, servers, item_ids)`` of a Zipf-popularity Poisson log.

    Rows come out in time order; ``item_ids`` index :func:`item_name`.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, shape.items + 1, dtype=np.float64) ** -shape.zipf_s
    ids = rng.choice(shape.items, size=shape.rows, p=weights / weights.sum())
    times = np.cumsum(rng.exponential(shape.mean_gap, size=shape.rows))
    servers = rng.integers(0, shape.servers, size=shape.rows)
    return times, servers, ids


def write_csv(path, times, servers, ids, chunk: int = 1 << 16) -> None:
    """Write the log in the ``time,server,user,item`` CSV format.

    Chunked so that peak memory stays far below the pipeline's own.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("time,server,user,item\n")
        for lo in range(0, len(times), chunk):
            hi = lo + chunk
            fh.write(
                "".join(
                    f"{t!r},{s},-1,item-{k:05d}\n"
                    for t, s, k in zip(
                        times[lo:hi].tolist(),
                        servers[lo:hi].tolist(),
                        ids[lo:hi].tolist(),
                    )
                )
            )


def _events(times: np.ndarray, servers: np.ndarray, ids: np.ndarray) -> List[Event]:
    names = [item_name(k) for k in range(int(ids.max()) + 1)]
    return [(names[k], t, s) for t, s, k in zip(times.tolist(), servers.tolist(), ids.tolist())]


def _laps(rows: Sequence[Event], times: np.ndarray) -> Iterator[Event]:
    """``rows`` replayed endlessly, each lap shifted past the log's span.

    Every item's times therefore keep increasing however long a run
    lasts; the first lap is the log itself.
    """
    span = float(times[-1] - times[0]) + float(np.mean(np.diff(times)))
    lap = 0
    while True:
        shift = lap * span
        for name, t, s in rows:
            yield name, t + shift, s
        lap += 1


def lane_streams(
    times: np.ndarray, servers: np.ndarray, ids: np.ndarray, lane_of
) -> List[Iterator[Event]]:
    """Endless per-lane event streams replaying the log in time order.

    ``lane_of(item) -> int`` pins each item to one lane.
    """
    per_lane: Dict[int, List[Event]] = {}
    for event in _events(times, servers, ids):
        per_lane.setdefault(lane_of(event[0]), []).append(event)
    return [_laps(per_lane[lane], times) for lane in sorted(per_lane)]


def open_loop_schedule(
    times: np.ndarray,
    servers: np.ndarray,
    ids: np.ndarray,
    lane_of,
    lanes: int,
    rate: float,
    seconds: float,
    resend_share: float,
    seed: int,
) -> List[List[Tuple[float, Event]]]:
    """Per-lane ``(due, event)`` lists for an open loop at ``rate`` sends/s.

    The log is replayed in time order, in laps when the run outlasts it.
    Trace inter-arrivals are scaled so that trace events plus resends
    arrive at ``rate`` on average.  After a trace event, with probability
    ``resend_share``, a resend of one of the lane's last 256 events
    follows halfway to the next trace event.  A connection's requests
    are answered in order, so every resend reaches the server after its
    original was answered.
    """
    rng = random.Random(seed)
    event_rate = rate / (1.0 + resend_share)
    count = int(seconds * event_rate) + 2
    events = list(islice(_laps(_events(times, servers, ids), times), count))
    t = np.array([event[1] for event in events])
    scale = (count - 1) / (event_rate * float(t[-1] - t[0]))
    due = (t - t[0]) * scale
    out: List[List[Tuple[float, Event]]] = [[] for _ in range(lanes)]
    recent: List[List[Event]] = [[] for _ in range(lanes)]
    for i in range(count - 1):
        event = events[i]
        lane = lane_of(event[0])
        out[lane].append((float(due[i]), event))
        history = recent[lane]
        history.append(event)
        if len(history) > 256:
            del history[0]
        if rng.random() < resend_share:
            again = history[rng.randrange(len(history))]
            out[lane].append((float(due[i] + due[i + 1]) / 2.0, again))
    return out
