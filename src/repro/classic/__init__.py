"""Classic capacity-oriented caching (Table I's left-hand column)."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".paging": (
            "FIFO",
            "LFU",
            "LRU",
            "BeladyMIN",
            "PagingPolicy",
            "PagingResult",
            "simulate_paging",
        ),
    },
)
