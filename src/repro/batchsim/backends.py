"""Storage name of the batched engine.

The batch state is one ``array('i')`` occupancy row per lane, held by
:class:`~repro.batchsim.engine.BatchEngine` itself — the same digit
layout :class:`~repro.core.cyclic.PackedSequenceCodec` packs into
integers.  The engine's speed comes from cross-lane plan sharing, not
from the storage: a NumPy matrix backend was no faster on the measured
workloads (see ``docs/performance.md``) and was removed, so
:func:`resolve_backend` only names the one storage that exists.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["resolve_backend"]

#: The only storage: stdlib ``array('i')`` rows.
_STDLIB = "stdlib"


def resolve_backend(name: Optional[str] = None) -> str:
    """The storage name a run uses: always ``"stdlib"``.

    Raises:
        ValueError: for any name other than ``None``, ``"auto"`` or
            ``"stdlib"``.
    """
    if name not in (None, "auto", _STDLIB):
        raise ValueError(f"unknown batchsim backend {name!r}; only 'stdlib' exists")
    return _STDLIB
