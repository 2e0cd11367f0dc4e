"""One global plan per dihedral class of supports.

A :class:`~repro.model.algorithm.GlobalRuleAlgorithm` whose
:meth:`~repro.model.algorithm.GlobalRuleAlgorithm.global_plan` answers
on a support decides every robot's move by a frame change of that one
plan.  The plan is equivariant, so it is computed once per rotation and
reflection class of the support and mapped into each caller's frame
through the permutation tables of
:func:`~repro.core.symmetry.dihedral_permutation_tables`.

A plan depends only on ``(algorithm, n, multiplicity_detection)``, so
the process keeps one :class:`ClassPlanTable` per such key
(:func:`plan_table`) and every consumer shares it: the branching
adversary driver reads option sets off it (:meth:`ClassPlanTable.options`),
every batched engine, of one lane or many, reads moves off it
(:meth:`ClassPlanTable.plan`).  The first :data:`SELF_CHECKS` classes a
table plans are replayed through the exact per-snapshot path under both
view presentations on every occupied node; a disagreement turns that
table off for good, with one warning.

The module also holds the exact per-snapshot Look
(:func:`look_direction`) and the bounded :class:`ConfigurationPool`
the batched engine draws its configurations from.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Tuple

from ..core.configuration import Configuration
from ..core.cyclic import packed_codec
from ..core.ring import CCW, CW
from ..core.symmetry import dihedral_permutation_tables
from ..model.algorithm import Algorithm, DecisionCache, GlobalRuleAlgorithm
from ..model.snapshot import Snapshot
from .options import DEFAULT_CONFIG_POOL_SIZE

__all__ = [
    "SELF_CHECKS",
    "ClassPlanTable",
    "ConfigurationPool",
    "look_direction",
    "plan_table",
    "snapshot_options",
]

logger = logging.getLogger(__name__)

Counts = Tuple[int, ...]

#: Classes replayed through the per-snapshot path before the table trusts
#: the planner's equivariance.
SELF_CHECKS = 8

#: A class entry: the plan in the canonical frame and its movers whose
#: two views coincide (their direction belongs to the presentation).
_Entry = Tuple[Dict[int, int], FrozenSet[int]]

#: A class not planned yet (``None`` is a class without a plan).
_UNPLANNED = object()

#: Most tables the process keeps (least recently used evicted) and most
#: classes per table (a full table forgets them all; its self-check
#: budget is not refilled).
_PLAN_TABLE_LIMIT = 32
_PLAN_CLASS_LIMIT = 1 << 16

_PLAN_TABLES: Dict[Tuple[type, Optional[int], int, bool], "ClassPlanTable"] = {}
_PLAN_TABLES_LOCK = threading.Lock()


def look_direction(
    algorithm: Algorithm,
    decisions: DecisionCache,
    configuration: Configuration,
    node: int,
    first_is_cw: bool,
    multiplicity_detection: bool,
) -> int:
    """One exact Look + Compute: the global direction of the robot on ``node``.

    Builds the robot's :class:`Snapshot` with the clockwise view first
    when ``first_is_cw``, asks ``algorithm`` through ``decisions`` and
    maps the decision back to the ring: :data:`CW`,
    :data:`CCW`, or ``0`` when the robot idles.
    """
    cw_view, ccw_view = configuration.views_of(node)
    views = (cw_view, ccw_view) if first_is_cw else (ccw_view, cw_view)
    snapshot = Snapshot(
        n=configuration.n,
        views=views,
        on_multiplicity=multiplicity_detection and configuration.multiplicity(node) > 1,
    )
    decision = decisions.compute(algorithm, snapshot)
    if decision.is_idle:
        return 0
    first_direction = CW if first_is_cw else CCW
    return first_direction if decision.toward_view == 0 else -first_direction


class ConfigurationPool:
    """Bounded LRU of ``counts -> Configuration`` shared across steps.

    Perpetual algorithms revisit configurations, so pooling lets a
    revisited state reuse the same :class:`Configuration` object — and
    with it every memoised derived quantity (gap cycle, supermin view,
    symmetry, canonical key) computed the first time around.  Used by
    the batched engine (:mod:`repro.batchsim.engine`).
    """

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int = DEFAULT_CONFIG_POOL_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("ConfigurationPool maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[int, ...], Configuration]" = OrderedDict()

    def get(self, counts: Tuple[int, ...]) -> Optional[Configuration]:
        """The pooled configuration for ``counts``, or ``None`` on a miss."""
        entry = self._entries.get(counts)
        if entry is not None:
            self._entries.move_to_end(counts)
        return entry

    def put(self, counts: Tuple[int, ...], configuration: Configuration) -> None:
        """Cache ``configuration`` under ``counts``, evicting the oldest entry."""
        self._entries[counts] = configuration
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def configuration(self, counts: Tuple[int, ...]) -> Configuration:
        """The pooled configuration for validated ``counts`` (built on miss)."""
        cfg = self.get(counts)
        if cfg is None:
            cfg = Configuration.from_trusted_counts(counts)
            self.put(counts, cfg)
        return cfg


def snapshot_options(
    algorithm: Algorithm,
    decisions: DecisionCache,
    configuration: Configuration,
    multiplicity_detection: bool,
) -> Dict[int, Tuple[int, ...]]:
    """Outcomes per occupied node over both view presentations.

    One exact Look (:func:`look_direction`) per
    node and presentation; each value is the sorted tuple of global
    outcomes, a subset of ``(CCW, 0, CW)`` with ``0`` for idle.
    """
    options: Dict[int, Tuple[int, ...]] = {}
    for node in configuration.support:
        outcomes = {
            look_direction(
                algorithm, decisions, configuration, node, first_is_cw, multiplicity_detection
            )
            for first_is_cw in (True, False)
        }
        options[node] = tuple(sorted(outcomes))
    return options


class ClassPlanTable:
    """``global_plan`` per support class of one algorithm on one ring size.

    Built by :func:`plan_table`, one per process and key for an
    algorithm that can plan.

    Args:
        algorithm: the algorithm; anything but a
            :class:`~repro.model.algorithm.GlobalRuleAlgorithm` gets no
            plan at all.
        n: ring size.
        multiplicity_detection: the snapshot model of the self-check.

    The table builds each configuration it plans or checks, and each
    self-check asks through a fresh
    :class:`~repro.model.algorithm.DecisionCache`.  Planning, the
    self-check and the insert of a class hold the table's lock (engines
    on several threads share it); planned classes are read without it.

    A class has no plan when ``global_plan`` returns ``None`` or asks
    for a non-adjacent hop; the caller then takes the per-snapshot path,
    which decides, or raises the exact error a per-robot run raises.
    Exceptions raised by the planner itself propagate.

    Attributes:
        enabled: ``False`` for non-global-rule algorithms and after a
            failed self-check; the table then answers ``None``.
    """

    __slots__ = (
        "algorithm",
        "n",
        "enabled",
        "_multiplicity_detection",
        "_codec",
        "_rotations",
        "_reflections",
        "_classes",
        "_checks_left",
        "_lock",
    )

    def __init__(
        self, algorithm: Algorithm, n: int, multiplicity_detection: bool = False
    ) -> None:
        self.algorithm = algorithm
        self.n = n
        self.enabled = isinstance(algorithm, GlobalRuleAlgorithm)
        self._multiplicity_detection = multiplicity_detection
        self._codec = packed_codec(n, 1)
        self._rotations, self._reflections = dihedral_permutation_tables(n)
        self._classes: Dict[int, Optional[_Entry]] = {}
        self._checks_left = SELF_CHECKS
        self._lock = threading.Lock()

    def plan(self, counts: Counts) -> Optional[Dict[int, int]]:
        """The support's global plan in the frame of ``counts``, or ``None``.

        Also ``None`` when a planned mover's two views coincide: the
        per-robot decision then moves it in the direction of whichever
        view is presented first, which no plan can say.
        """
        found = self._lookup(counts)
        if found is None:
            return None
        (moves, axis_movers), sigma = found
        if axis_movers:
            return None
        return {sigma[node]: sigma[target] for node, target in moves.items()}

    def options(self, counts: Counts) -> Optional[Dict[int, Tuple[int, ...]]]:
        """Adversary option sets per occupied node of ``counts``, or ``None``.

        An occupied node gets ``(0,)`` when the plan leaves it idle,
        the plan's direction when it moves, and ``(CCW, CW)`` when its
        two views coincide, since the presentation then picks the
        direction.
        """
        found = self._lookup(counts)
        if found is None:
            return None
        return self._frame_options(counts, *found)

    def _frame_options(
        self, counts: Counts, entry: _Entry, sigma
    ) -> Dict[int, Tuple[int, ...]]:
        moves, axis_movers = entry
        n = self.n
        targets = {sigma[node]: sigma[target] for node, target in moves.items()}
        axis = {sigma[node] for node in axis_movers}
        options: Dict[int, Tuple[int, ...]] = {}
        for node in range(n):
            if counts[node]:
                target = targets.get(node)
                if target is None:
                    options[node] = (0,)
                elif node in axis:
                    options[node] = (CCW, CW)
                elif target == (node + 1) % n:
                    options[node] = (CW,)
                else:
                    options[node] = (CCW,)
        return options

    def _lookup(self, counts: Counts):
        """``(class entry, sigma)`` for ``counts``, or ``None`` without a plan.

        ``sigma`` maps canonical node ``j`` to the caller's node
        ``sigma[j]``.  A class is planned and (within the budget)
        self-checked on its first lookup, under the table's lock.
        """
        if not self.enabled:
            return None
        n = self.n
        support = tuple(1 if c else 0 for c in counts)
        codec = self._codec
        canonical, flip, r = codec.canonical_with_transform(codec.pack(support))
        sigma = self._rotations[r] if flip == 0 else self._reflections[(n - 1 - r) % n]
        entry = self._classes.get(canonical, _UNPLANNED)
        if entry is _UNPLANNED:
            with self._lock:
                if not self.enabled:
                    return None
                entry = self._classes.get(canonical, _UNPLANNED)
                if entry is _UNPLANNED:
                    entry = self._plan_class(tuple(support[sigma[j]] for j in range(n)))
                    if entry is not None and self._checks_left > 0:
                        self._checks_left -= 1
                        if not self._self_check(counts, entry, sigma):
                            return None
                    if len(self._classes) >= _PLAN_CLASS_LIMIT:
                        self._classes.clear()
                    self._classes[canonical] = entry
        if entry is None:
            return None
        return entry, sigma

    def _plan_class(self, support: Counts) -> Optional[_Entry]:
        """Plan one canonical support; ``None`` when it has no usable plan."""
        configuration = Configuration.from_trusted_counts(support)
        moves = self.algorithm.global_plan(configuration)
        if moves is None:
            return None
        n = self.n
        axis_movers = []
        for node, target in moves.items():
            if target != (node + 1) % n and target != (node - 1) % n:
                return None
            cw_view, ccw_view = configuration.views_of(node)
            if cw_view == ccw_view:
                axis_movers.append(node)
        return dict(moves), frozenset(axis_movers)

    def _self_check(self, counts: Counts, entry: _Entry, sigma) -> bool:
        """Replay ``counts`` per snapshot; on a mismatch turn the table off."""
        derived = self._frame_options(counts, entry, sigma)
        checked = snapshot_options(
            self.algorithm,
            DecisionCache(),
            Configuration.from_trusted_counts(counts),
            self._multiplicity_detection,
        )
        if checked == derived:
            return True
        self.enabled = False
        logger.warning(
            "global plan of %s disagrees with its per-snapshot decisions on "
            "n=%d counts=%s; using the per-snapshot path from now on",
            self.algorithm.name,
            self.n,
            counts,
        )
        return False


def plan_table(
    algorithm: Algorithm, n: int, multiplicity_detection: bool = False
) -> ClassPlanTable:
    """The process-wide :class:`ClassPlanTable` of one algorithm on one ring.

    The algorithm's identity is its type when the instance has no
    attributes (every registered algorithm); any other instance gets a
    table of its own, which holds it, so its ``id`` is not reused while
    the table lives.  An algorithm that can never plan (not a
    :class:`~repro.model.algorithm.GlobalRuleAlgorithm`) gets a fresh,
    disabled table outside the registry, so it takes no registry slot.
    """
    if not isinstance(algorithm, GlobalRuleAlgorithm):
        return ClassPlanTable(algorithm, n, multiplicity_detection)
    instance = None if getattr(algorithm, "__dict__", None) == {} else id(algorithm)
    key = (type(algorithm), instance, n, multiplicity_detection)
    with _PLAN_TABLES_LOCK:
        table = _PLAN_TABLES.pop(key, None)
        if table is None:
            while len(_PLAN_TABLES) >= _PLAN_TABLE_LIMIT:
                _PLAN_TABLES.pop(next(iter(_PLAN_TABLES)))
            table = ClassPlanTable(algorithm, n, multiplicity_detection)
        _PLAN_TABLES[key] = table  # last: least recently used goes first
    return table
