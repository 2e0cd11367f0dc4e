"""Views of ring configurations.

Following the paper (Section 2), a *view* at an occupied node ``r`` is the
sequence of interval lengths (maximal runs of empty nodes, possibly of
length zero) met when traversing the ring in one direction starting from
``r``.  Each occupied node therefore has two directed views — one per
travelling direction — and a configuration with ``j`` occupied nodes has
at most ``2 j`` distinct views.  The *supermin configuration view*
:math:`W^C_{min}` is the lexicographically smallest of them; the set
:math:`I_C` of *supermin intervals* drives the symmetry analysis of
Lemma 1 and the whole Align algorithm.

This module works purely at the level of the **gap cycle** of a
configuration: the cyclic sequence ``gaps = (g_0, ..., g_{j-1})`` where
``g_i`` is the number of empty nodes immediately following the ``i``-th
occupied node in the global clockwise order.  The mapping between gap
indices and concrete ring nodes is the job of
:class:`repro.core.configuration.Configuration`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .cyclic import canonical_dihedral, rotate
from .ring import CCW, CW

__all__ = [
    "GapCycle",
    "View",
    "cw_view",
    "ccw_view",
    "directed_views",
    "node_view",
    "supermin_view",
    "supermin_anchors",
    "supermin_interval_indices",
    "ring_size_of",
]

#: A cyclic sequence of gap lengths; ``gaps[i]`` is the run of empty nodes
#: following occupied node ``i`` (in clockwise order of occupied nodes).
GapCycle = Tuple[int, ...]

#: A view: a tuple of interval lengths read from an occupied node.
View = Tuple[int, ...]


def ring_size_of(gaps: Sequence[int]) -> int:
    """Ring size implied by a gap cycle: occupied nodes plus empty nodes."""
    return len(gaps) + sum(gaps)


def cw_view(gaps: Sequence[int], index: int) -> View:
    """View read from occupied node ``index`` travelling clockwise.

    The first interval met is ``gaps[index]`` (the run of empty nodes just
    after the node in clockwise direction).
    """
    return rotate(tuple(gaps), index)


def ccw_view(gaps: Sequence[int], index: int) -> View:
    """View read from occupied node ``index`` travelling counter-clockwise.

    The first interval met is ``gaps[index - 1]`` (the run of empty nodes
    just *before* the node in clockwise order).
    """
    g = tuple(gaps)
    j = len(g)
    return tuple(g[(index - 1 - t) % j] for t in range(j))


def directed_views(gaps: Sequence[int]) -> Dict[Tuple[int, int], View]:
    """All directed views, keyed by ``(occupied-node index, direction)``.

    Directions use the global constants :data:`repro.core.ring.CW` and
    :data:`repro.core.ring.CCW`.
    """
    g = tuple(gaps)
    out: Dict[Tuple[int, int], View] = {}
    for i in range(len(g)):
        out[(i, CW)] = cw_view(g, i)
        out[(i, CCW)] = ccw_view(g, i)
    return out


def node_view(gaps: Sequence[int], index: int) -> View:
    """The (undirected) view of a node: the smaller of its two directed views.

    This is the quantity the paper denotes :math:`W(r)` when no direction
    is specified.
    """
    return min(cw_view(gaps, index), ccw_view(gaps, index))


def supermin_view(gaps: Sequence[int]) -> View:
    """The supermin configuration view :math:`W^C_{min}`.

    Lexicographically smallest directed view over all occupied nodes and
    both directions.  For the empty gap cycle this is the empty tuple.

    The clockwise views are exactly the rotations of the gap cycle and
    the counter-clockwise views the rotations of its reversal, so the
    supermin is the dihedral canonical form of the gap cycle — computed
    in :math:`O(j)` by Booth's algorithm (and memoised) instead of the
    naive :math:`O(j^2)` scan over all ``2 j`` directed views.
    """
    g = tuple(gaps)
    if not g:
        return ()
    return canonical_dihedral(g)


def supermin_anchors(gaps: Sequence[int]) -> List[Tuple[int, int]]:
    """All ``(occupied-node index, direction)`` pairs realising the supermin view.

    For a rigid configuration there is exactly one anchor (Lemma 1); a
    symmetric or periodic configuration has several.
    """
    g = tuple(gaps)
    target = supermin_view(g)
    out: List[Tuple[int, int]] = []
    for (key, view) in directed_views(g).items():
        if view == target:
            out.append(key)
    return out


def supermin_interval_indices(gaps: Sequence[int]) -> List[int]:
    """Indices of the supermin intervals (the set :math:`I_C` of Lemma 1).

    Interval ``i`` is the run of empty nodes between occupied node ``i``
    and occupied node ``i + 1`` (clockwise).  It is a supermin interval
    when a view *starting with that interval* — read clockwise from node
    ``i`` or counter-clockwise from node ``i + 1`` — equals the supermin
    configuration view.
    """
    g = tuple(gaps)
    j = len(g)
    target = supermin_view(g)
    out: List[int] = []
    for i in range(j):
        starts_cw = cw_view(g, i)
        starts_ccw = ccw_view(g, (i + 1) % j)
        if starts_cw == target or starts_ccw == target:
            out.append(i)
    return out
