"""Occupancy-row storage for the batched engine.

The batch state is a ``(batch, n)`` matrix of per-node robot counts —
the same digit layout :class:`~repro.core.cyclic.PackedSequenceCodec`
packs into integers.  :class:`StdlibBackend` stores it as one
``array.array('i')`` row per lane, pure stdlib.  ``row(i)`` returns a
mutable sequence supporting scalar item access and ``.tobytes()`` (the
lane's dict key), and ``pack_all(codec)`` packs the whole batch through
:meth:`PackedSequenceCodec.pack_many`.

The engine's speed comes from cross-lane plan sharing, not from the
storage: a NumPy matrix backend was no faster on the measured workloads
(see ``docs/performance.md``) and was removed.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

__all__ = ["StdlibBackend", "resolve_backend"]


class StdlibBackend:
    """Pure-stdlib batch state: one ``array('i')`` row per lane."""

    name = "stdlib"

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        self._rows: List[array] = [array("i", row) for row in rows]

    @property
    def num_lanes(self) -> int:
        """Number of lanes (batch dimension)."""
        return len(self._rows)

    def row(self, i: int):
        """The mutable counts row of lane ``i``."""
        return self._rows[i]

    def counts(self, i: int) -> Tuple[int, ...]:
        """Lane ``i``'s occupancy vector as a plain tuple."""
        return tuple(self._rows[i])

    def pack_all(self, codec) -> List[int]:
        """Pack every lane through the codec (see module docstring)."""
        return codec.pack_many(self._rows)


def resolve_backend(name: Optional[str] = None) -> str:
    """The storage name a run uses: always ``"stdlib"``.

    Raises:
        ValueError: for any name other than ``None``, ``"auto"`` or
            ``"stdlib"``.
    """
    if name not in (None, "auto", StdlibBackend.name):
        raise ValueError(f"unknown batchsim backend {name!r}; only 'stdlib' exists")
    return StdlibBackend.name
