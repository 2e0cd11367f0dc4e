"""Algorithm **Gathering** (paper, Section 5, Fig. 14, Theorem 8).

Gathering with the *local* (weak) multiplicity detection capability:
starting from any rigid exclusive configuration of ``2 < k < n - 2``
robots, all robots eventually occupy one node and stay there.

The algorithm composes three ingredients:

1. While the (support) configuration is not of :math:`C^*`-type,
   Algorithm Align is executed, driving the system to :math:`C^*`.
2. On a :math:`C^*`-type configuration with more than two occupied
   nodes, rule **Contraction** moves every robot occupying the *first*
   node of the ordered :math:`C^*`-type sequence onto the second node,
   shrinking the block and growing a multiplicity.
3. When only two nodes remain occupied, the robots that detect a
   multiplicity on their own node stay put, while the unique single
   robot walks (along the short side) onto the multiplicity.

Exclusivity is deliberately *not* enforced for this task.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.configuration import Configuration
from ..core.errors import AlgorithmPreconditionError, UnsupportedParametersError
from ..model.algorithm import GlobalRuleAlgorithm, PlannedMoves
from ..model.snapshot import Snapshot
from .align import plan_align

__all__ = ["gathering_supported", "plan_gathering_support", "GatheringAlgorithm"]


def gathering_supported(n: int, k: int) -> bool:
    """Whether ``(k, n)`` lies in the range covered by Theorem 8 (``2 < k < n - 2``)."""
    return k > 2 and n > k + 2


def plan_gathering_support(configuration: Configuration) -> Dict[int, int]:
    """Support-level gathering plan (no multiplicity information).

    Handles every branch of Fig. 14 that does not need the local
    multiplicity detection capability: Align outside :math:`C^*`-type
    configurations and Contraction on :math:`C^*`-type configurations
    with more than two occupied nodes.  The two-occupied-nodes endgame
    depends on each robot's own multiplicity flag and is resolved in
    :meth:`GatheringAlgorithm.plan_for_snapshot`.
    """
    occupied = configuration.num_occupied
    if occupied <= 2:
        raise AlgorithmPreconditionError(
            "the two-node endgame of Gathering needs local multiplicity detection; "
            "use GatheringAlgorithm.plan_for_snapshot"
        )
    if configuration.is_c_star_type():
        anchor, direction = configuration.c_star_type_anchor()
        # In a C*-type configuration the first interval has length 0, so
        # the "second node" is the neighbour of the anchor along the view.
        target = (anchor + direction) % configuration.n
        return {anchor: target}
    return plan_align(configuration)


#: Branches of Fig. 14, as selected by :func:`_regime` on a support.
_GATHERED = "gathered"
_ENDGAME = "endgame"
_UNSUPPORTED = "unsupported"
_SUPPORT = "support"


def _regime(configuration: Configuration) -> str:
    """Which branch of Fig. 14 decides on this support configuration.

    Only ``_SUPPORT`` (Align or Contraction on more than two occupied
    nodes, inside the Theorem 8 range) ignores the snapshot; the
    two-node endgame reads the robot's own multiplicity flag.
    """
    occupied = configuration.num_occupied
    if occupied == 1:
        return _GATHERED
    if occupied == 2:
        return _ENDGAME
    if not gathering_supported(configuration.n, occupied) and not configuration.is_c_star_type():
        # Outside C*-type configurations the support size equals k (the
        # configuration is still exclusive), so the theorem's bounds can
        # be checked meaningfully.
        return _UNSUPPORTED
    return _SUPPORT


class GatheringAlgorithm(GlobalRuleAlgorithm):
    """Per-robot min-CORDA implementation of Algorithm Gathering.

    The simulation must grant local multiplicity detection
    (``multiplicity_detection=True``) and must *not* enforce exclusivity.
    """

    name = "gathering"

    def plan(self, configuration: Configuration) -> Dict[int, int]:
        """Delegate to :func:`plan_gathering_support` on the support."""
        return plan_gathering_support(configuration)

    def global_plan(self, configuration: Configuration) -> Optional[PlannedMoves]:
        """The support plan on more than two occupied nodes, else ``None``.

        ``None`` covers the two-node endgame (it reads the multiplicity
        flag) and supports outside the Theorem 8 range, so the exact
        decision or error comes from :meth:`plan_for_snapshot`.
        """
        if _regime(configuration) != _SUPPORT:
            return None
        return self.plan(configuration)

    def plan_for_snapshot(self, configuration: Configuration, snapshot: Snapshot) -> PlannedMoves:
        """Plan on the multiplicity-blind support the snapshot implies."""
        regime = _regime(configuration)
        n = configuration.n
        if regime == _GATHERED:
            return {}
        if regime == _ENDGAME:
            if snapshot.on_multiplicity:
                # Robots forming the multiplicity never move.
                return {}
            # The observing robot sits at local node 0; it walks towards the
            # other occupied node along the shorter arc.
            other = next(node for node in configuration.support if node != 0)
            forward = other % n
            backward = (n - other) % n
            if forward <= backward:
                return {0: 1 % n}
            return {0: (n - 1) % n}
        if regime == _UNSUPPORTED:
            raise UnsupportedParametersError(
                f"Gathering is proven for 2 < k < n - 2; got n={n}, k={snapshot.num_occupied}"
            )
        return self.plan(configuration)
