"""Canonical state digests for crash-safe runs.

A *state digest* is a short hex string identifying the complete mutable
state of a :class:`~repro.sim.engine.ReplayDriver` at an event boundary:
algorithm timers and queue, recorder ledger, fault context (RNG stream
position included) and the driver's stream position.  The journal stores
one digest per sequence number, which gives resume two strong
guarantees:

* **divergence detection** — a resumed run re-executes the journal tail
  and must reproduce the recorded digest at every sequence number; the
  first mismatch aborts the resume instead of silently forking history;
* **equivalence proof** — two runs with equal digests at every sequence
  number delivered the same events to the same state, so their final
  schedules, costs and fault logs are bit-identical.

Digests are computed over a canonical JSON encoding (sorted keys, exact
float repr, NaN/Infinity allowed — SC uses ``-inf`` expiries) of the
``state_summary()`` tree, hashed with SHA-256 and truncated.
:func:`event_digest` chains the live server's per-event digests with the
same bytes, formatted without building the tree.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any

__all__ = ["canonical_json", "digest_value", "event_digest", "state_digest"]

#: Hex characters kept from the SHA-256; 16 (64 bits) is plenty for
#: divergence detection while keeping journal lines readable.
_DIGEST_LEN = 16


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding of a plain-data tree.

    Keys are sorted and floats use their exact ``repr`` (``json`` emits
    shortest-roundtrip representations), so two structurally-equal trees
    always encode identically — across processes and platforms.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def digest_value(value: Any) -> str:
    """SHA-256 (truncated) of the canonical encoding of ``value``."""
    blob = canonical_json(value).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:_DIGEST_LEN]


def event_digest(prev, kind, item, time, server, decision, cost) -> str:
    """``digest_value([prev, core])`` of one served event, formatted directly.

    ``core`` is ``{"kind": kind, "item": item, "time": time, "server":
    server, "decision": decision, "cost": cost}``.  When the strings are
    ``str``, ``time`` and ``cost`` finite ``float`` and ``server`` an
    ``int``, the encoding is written here in sorted-key order, strings
    through json's own ASCII escape and floats through
    ``float.__repr__``, byte for byte what :func:`canonical_json` emits;
    any other input (an int cost, a bool, a subclass) goes through
    :func:`digest_value`.
    """
    if (
        type(time) is float
        and type(cost) is float
        and type(server) is int
        and type(item) is str
        and type(prev) is str
        and type(kind) is str
        and type(decision) is str
        and math.isfinite(time)
        and math.isfinite(cost)
    ):
        blob = (
            f'[{_json_str(prev)},{{"cost":{cost!r},"decision":{_json_str(decision)},'
            f'"item":{_json_str(item)},"kind":{_json_str(kind)},'
            f'"server":{server},"time":{time!r}}}]'
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:_DIGEST_LEN]
    core = {
        "kind": kind,
        "item": item,
        "time": time,
        "server": server,
        "decision": decision,
        "cost": cost,
    }
    return digest_value([prev, core])


def state_digest(driver) -> str:
    """Digest of a :class:`~repro.sim.engine.ReplayDriver`'s full state."""
    return digest_value(driver.state_summary())
