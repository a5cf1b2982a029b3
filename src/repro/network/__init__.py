"""Cluster substrate: servers, layouts and (heterogeneous) cost models."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".cluster": ("Cluster", "Server"),
        ".costmodel": ("HeterogeneousCostModel", "homogeneous_as_heterogeneous"),
    },
)
