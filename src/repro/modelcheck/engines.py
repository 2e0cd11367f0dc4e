"""Model-check engine selection: packed or NumPy-vectorized.

The engine changes how fast a verdict is computed, never what the
verdict is: both engines produce byte-identical verdict documents
(certified against the golden corpus in
``tests/modelcheck/test_frontier_equivalence.py``).  The choice is made
automatically from what the process can observe — ``"vector"`` when
NumPy is importable, else ``"packed"`` — and never appears in run specs,
run ids, campaign identities or cache keys.  A cell whose packed states
exceed the vector engine's 62-bit budget falls back to the packed engine
inside :meth:`repro.modelcheck.checker.ModelChecker.run`.

The explicit names exist for differential tests and benchmarks that
compare the two engines; requesting ``"vector"`` without NumPy degrades
to ``"packed"`` instead of raising, since the output is identical.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ENGINES", "numpy_or_none", "resolve_engine"]

#: Engine names accepted by :func:`resolve_engine`.
ENGINES = ("auto", "packed", "vector")

_NUMPY = None
_NUMPY_CHECKED = False


def numpy_or_none():
    """The :mod:`numpy` module when importable, else ``None`` (memoised)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised by masking numpy
            numpy = None
        _NUMPY = numpy
        _NUMPY_CHECKED = True
    return _NUMPY


def resolve_engine(name: Optional[str] = None) -> str:
    """Resolve an engine request to a concrete engine name.

    Args:
        name: ``None``/``"auto"`` (the best available engine),
            ``"packed"`` or ``"vector"``.

    Returns:
        ``"packed"`` or ``"vector"``.  A ``"vector"`` request (explicit
        or resolved) degrades to ``"packed"`` when NumPy is absent; the
        verdict documents are identical either way.

    Raises:
        ValueError: for an unknown engine name.
    """
    if name is None or name == "auto":
        name = "vector"
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    if name == "vector" and numpy_or_none() is None:
        return "packed"
    return name
