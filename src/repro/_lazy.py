"""Deferred package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules makes
every import of the package pay for all of them.  :func:`lazy_exports`
builds the module-level ``__getattr__`` and ``__dir__`` of such a
package instead: a submodule is imported when one of its names is first
read, and the value is then bound on the package, so later reads are
plain attribute lookups and ``from package import name`` keeps working.

A deferred name must differ from every submodule name of its package:
importing that submodule would bind the module object over the name.
"""

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, object], exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package.

    Args:
        namespace: the package's ``globals()``.
        exports: deferred name -> relative name of the submodule
            defining it (e.g. ``{"Simulator": ".engine"}``).
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(submodule, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
