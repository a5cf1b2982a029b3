"""Schedules: containers, validation, diagrams and the space-time graph."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".diagram": ("render_instance", "render_schedule"),
        ".schedule": ("Schedule", "coverage_gaps", "merge_intervals"),
        ".svg": ("render_svg", "write_svg"),
        ".spacetime": (
            "build_spacetime_graph",
            "migration_only_cost",
            "schedule_edge_cost",
            "schedule_is_tree",
        ),
        ".validate": ("is_standard_form", "validate_schedule"),
    },
)
