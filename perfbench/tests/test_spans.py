"""Self-time arithmetic over nested spans, and the call wrappers."""

from __future__ import annotations

import types

from perfbench.spans import Tracer, diff


class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _tracer():
    clock = _Clock()
    return Tracer(clock=clock, cpu_clock=clock), clock


def test_self_time_subtracts_direct_children_only():
    tracer, clock = _tracer()
    tracer.begin("pipeline")          # 0
    clock.now = 2
    tracer.begin("stage")             # 2
    clock.now = 3
    tracer.begin("kernel")            # 3
    clock.now = 4
    tracer.end()                      # kernel 3..4
    clock.now = 5
    tracer.end()                      # stage 2..5
    clock.now = 6
    tracer.begin("stage")             # 6
    clock.now = 8
    tracer.end()                      # stage 6..8
    clock.now = 10
    tracer.end()                      # pipeline 0..10
    spans = tracer.snapshot()["spans"]
    assert spans["pipeline"]["total_s"] * 1e9 == 10
    assert spans["pipeline"]["self_s"] * 1e9 == 10 - 3 - 2
    assert spans["stage"]["count"] == 2
    assert spans["stage"]["total_s"] * 1e9 == 5
    assert spans["stage"]["self_s"] * 1e9 == 5 - 1
    assert spans["kernel"]["self_s"] * 1e9 == 1
    assert spans["kernel"]["self_cpu_s"] == spans["kernel"]["self_s"]
    # Self times partition the outermost span.
    assert sum(row["self_s"] for row in spans.values()) == spans["pipeline"]["total_s"]


def test_span_closes_on_error():
    tracer, clock = _tracer()
    try:
        with tracer.span("outer"):
            clock.now = 4
            raise KeyError
    except KeyError:
        pass
    assert tracer.snapshot()["spans"]["outer"]["total_s"] * 1e9 == 4


class _Owner:
    calls = 0

    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        cls.calls += 1
        return cls, x


def test_wrap_keeps_behaviour_where_callers_look_it_up():
    tracer, clock = _tracer()
    module = types.ModuleType("fake")
    module.work = lambda n: list(range(n))
    tracer.wrap(module, "work", "work", on_result=lambda tr, v: tr.add("items", len(v)))
    tracer.wrap(_Owner, "method", "method")
    tracer.wrap(_Owner, "build", "build")
    before = tracer.snapshot()
    assert module.work(3) == [0, 1, 2]
    assert _Owner().method(1) == 2
    assert _Owner.build(5) == (_Owner, 5)
    after = diff(tracer.snapshot(), before)
    assert {name: row["count"] for name, row in after["spans"].items()} == {
        "work": 1,
        "method": 1,
        "build": 1,
    }
    assert after["counts"] == {"items": 3}
