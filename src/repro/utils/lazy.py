"""Lazy package exports (PEP 562).

A package ``__init__`` names its public exports in one table, export name
-> the submodule that defines it, and takes its module ``__getattr__`` and
``__dir__`` from :func:`lazy_exports`.  ``import repro.sim`` then loads
only what the counts tier runs; every other tier and helper loads on its
first use, when one of its names is first looked up.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    The exports of a submodule are bound on the package together: at once
    for a submodule already loaded when the package initializes, else when
    ``__getattr__`` first imports it for one of its names.  A bound name is
    a plain package attribute, as an eager import would leave it, so code
    that patches module namespaces (a tracer, a mock) finds it.  The import
    goes through ``__import__``, the import statement's own path, so
    ``python -X importtime`` logs it (``importlib.import_module`` bypasses
    that log).  ``__dir__`` lists the package's attributes and its
    ``__all__``, loaded or not.
    """
    namespace = vars(sys.modules[package])

    def bind(module_name: str) -> None:
        module = sys.modules[module_name]
        for name, source in exports.items():
            if source == module_name and hasattr(module, name):
                namespace.setdefault(name, getattr(module, name))

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        __import__(module)
        bind(module)
        try:
            return namespace[name]
        except KeyError:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}"
            ) from None

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    for module_name in set(exports.values()):
        if module_name in sys.modules:
            bind(module_name)
    return __getattr__, __dir__
