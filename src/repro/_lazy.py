"""Package exports that resolve on first use (PEP 562).

Each package ``__init__`` names its exports once, in a table from a
relative submodule to the names it defines::

    __getattr__, __dir__, __all__ = exports(__name__, {
        ".dp": ("optimal_cost", "solve_offline"),
    })

Importing the package imports none of its submodules.  The first lookup
of a name imports the submodule that defines it and stores the value on
the package, so later lookups never reach ``__getattr__``.
"""

import sys
from importlib import import_module


def exports(package, table):
    """Return ``package``'s ``__getattr__``, ``__dir__`` and ``__all__``."""
    home = {name: sub for sub, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = getattr(import_module(home[name], package), name)
        return namespace[name]

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, [name for names in table.values() for name in names]
