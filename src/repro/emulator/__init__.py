"""Latency emulator: pricing the axis the paper's model abstracts away."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".emulator": ("EmulationReport", "RequestOutcome", "emulate"),
        ".frontier": ("FrontierPoint", "cost_latency_frontier", "pareto_front"),
        ".latency": ("LatencyModel",),
    },
)
