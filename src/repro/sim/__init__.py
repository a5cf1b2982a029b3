"""Discrete-event simulation substrate for the online algorithms."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".engine": (
            "ReplayDriver",
            "ReplayEvent",
            "merged_event_stream",
            "run_online",
            "run_online_faulty",
        ),
        ".events": ("Event", "EventQueue"),
        ".recorder": ("CopyLifetime", "OnlineRunResult", "RunRecorder"),
    },
)
