"""Deterministic, seeded fault plans.

A :class:`FaultPlan` decides — purely from its seed and a site name —
whether a fault fires at a given *injection site*, and which fault class
it is.  Sites are stable strings named after the code location and the
work item, e.g.::

    unit:e7-quick:u003-k005-n012        campaign unit execution
    cache.put.tmp_written:<key>         cache atomic-write kill-point
    execute:verify:<run_id prefix>      the execute() front door
    service.run:<run_id prefix>         the HTTP service's worker

Two decision mechanisms compose:

* **explicit sites** — an ``fnmatch`` pattern → fault-kind mapping for
  targeted scenarios ("crash exactly this unit");
* **seeded rates** — a per-kind probability; the decision for a site is
  a pure function of ``(seed, site)`` via SHA-256, so it is identical
  in every process, on every platform, under any execution order.

Fault plans are **execution context**: they are never part of a
:class:`~repro.runs.spec.RunSpec`, a run id or a cache key — a faulted
run is the *same run* as the clean one, merely executed on hostile
hardware.

Each site fires **at most once** across the whole (possibly
multi-process) execution: the first firing atomically creates a marker
file under ``state_dir``, so the retry/recovery path sees a healthy
world.  This is what makes the determinism-under-faults invariant
testable — an injected-and-recovered campaign must produce a
``summary.json`` byte-identical to the fault-free run.  Without a
``state_dir`` markers live in process-local memory only (fine for
single-process plans; crash faults then re-fire in every retry).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import KillPoint, TransientFaultError

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultyWorker", "demo_worker"]

#: Every fault class a plan can inject; :meth:`FaultPlan.fire` performs
#: each of them itself.
FAULT_KINDS = ("crash", "hang", "transient", "slow_io", "kill")

#: Fault kinds the plan performs generically inside :meth:`FaultPlan.fire`.
_GENERIC_KINDS = ("crash", "hang", "transient", "slow_io")


def _site_unit(seed: int, site: str) -> float:
    """Uniform-in-[0,1) decision variable for one ``(seed, site)`` pair.

    SHA-256, not ``hash()``: stable across processes, Python versions
    and ``PYTHONHASHSEED`` — the same property the campaign layer's
    :func:`~repro.campaign.spec.derive_seed` relies on.
    """
    digest = hashlib.sha256(f"fault:{seed}:{site}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of which faults fire where.

    Attributes:
        seed: decision seed; two plans with the same seed, rates and
            sites make identical decisions at every site.
        rates: mapping of fault kind → probability in ``[0, 1]``; the
            seeded decision at each site samples from these (restricted
            to the kinds the site supports).
        sites: explicit ``fnmatch`` pattern → fault kind entries,
            checked before the rates (first matching pattern, in sorted
            pattern order, wins).  A kind the site does not support is
            ignored.
        state_dir: directory for fire-once marker files, shared across
            worker processes; ``None`` keeps markers process-local.
        hang_s: how long a ``hang`` fault sleeps (should comfortably
            exceed any deadline under test).
        slow_s: how long a ``slow_io`` fault sleeps.
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
    sites: Mapping[str, str] = field(default_factory=dict)
    state_dir: Optional[str] = None
    hang_s: float = 3600.0
    slow_s: float = 0.01

    def __post_init__(self) -> None:
        for kind in list(self.rates) + list(self.sites.values()):
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
        # Process-local marker fallback (used when state_dir is None).
        object.__setattr__(self, "_local_fired", set())

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def decide(
        self, site: str, supported: Sequence[str] = _GENERIC_KINDS
    ) -> Optional[str]:
        """The fault kind that fires at ``site``, or ``None``.

        Pure: no marker state is consulted or mutated, so the decision
        can be replayed (e.g. by tests asserting *which* sites a seed
        targets) without arming anything.
        """
        for pattern in sorted(self.sites):
            if fnmatch(site, pattern):
                kind = self.sites[pattern]
                return kind if kind in supported else None
        active = [
            (kind, rate)
            for kind, rate in sorted(self.rates.items())
            if kind in supported and rate > 0.0
        ]
        if not active:
            return None
        u = _site_unit(self.seed, site)
        cumulative = 0.0
        for kind, rate in active:
            cumulative += rate
            if u < cumulative:
                return kind
        return None

    # ------------------------------------------------------------------ #
    # fire-once markers
    # ------------------------------------------------------------------ #
    def _marker_path(self, site: str) -> str:
        token = hashlib.sha256(site.encode("utf-8")).hexdigest()[:32]
        return os.path.join(self.state_dir or "", f"fired-{token}")

    def _arm(self, site: str) -> bool:
        """Record the firing; ``False`` when the site already fired.

        With a ``state_dir`` the marker is an ``O_EXCL``-created file,
        so exactly one process wins even when several race on the same
        site — and crucially the marker is durable *before* destructive
        actions (``os._exit``) so recovery paths see it.
        """
        if self.state_dir is None:
            if site in self._local_fired:  # type: ignore[attr-defined]
                return False
            self._local_fired.add(site)  # type: ignore[attr-defined]
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        try:
            fd = os.open(self._marker_path(site), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, site.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def fired_sites(self) -> List[str]:
        """Site names that have fired so far (durable markers only)."""
        if self.state_dir is None:
            return sorted(self._local_fired)  # type: ignore[attr-defined]
        if not os.path.isdir(self.state_dir):
            return []
        sites = []
        for name in sorted(os.listdir(self.state_dir)):
            if not name.startswith("fired-"):
                continue
            with open(os.path.join(self.state_dir, name), "r", encoding="utf-8") as handle:
                sites.append(handle.read())
        return sorted(sites)

    # ------------------------------------------------------------------ #
    # injection
    # ------------------------------------------------------------------ #
    def fire(
        self, site: str, supported: Sequence[str] = _GENERIC_KINDS
    ) -> Optional[str]:
        """Maybe inject a fault at ``site``; returns the kind that fired.

        Generic kinds are performed here: ``crash`` calls ``os._exit``
        (after the marker is durable), ``hang`` sleeps ``hang_s``,
        ``transient`` raises :class:`TransientFaultError`, ``slow_io``
        sleeps ``slow_s`` and returns.  ``kill`` raises
        :class:`KillPoint`.
        """
        kind = self.decide(site, supported)
        if kind is None or not self._arm(site):
            return None
        if kind == "crash":
            os._exit(13)
        if kind == "hang":
            time.sleep(self.hang_s)
            return kind
        if kind == "transient":
            raise TransientFaultError(f"injected transient fault at {site}")
        if kind == "slow_io":
            time.sleep(self.slow_s)
            return kind
        raise KillPoint(site)  # the one kind left: kill

    def kill_point(self, site: str) -> None:
        """Named kill-point: die here iff the plan targets this site."""
        self.fire(site, supported=("kill",))


class FaultyWorker:
    """A campaign worker wrapped with per-unit fault injection.

    Picklable by construction (the inner worker is pickled by reference,
    the plan by value), so it rides into pool worker processes exactly
    like a plain worker.  The injection site is
    ``unit:<campaign>:<unit_id>`` and supports the four generic kinds.

    The wrapper deliberately does *not* impersonate the inner worker's
    identity: the campaign layer keys its unit de-duplication cache on
    the inner worker's name, which it resolves before wrapping.
    """

    def __init__(self, worker, plan: FaultPlan) -> None:
        self.worker = worker
        self.plan = plan

    def __call__(self, unit: Dict[str, object]) -> Dict[str, object]:
        """Run one unit, injecting the plan's fault for its site first."""
        self.plan.fire(f"unit:{unit.get('campaign')}:{unit.get('unit_id')}")
        return self.worker(unit)


def demo_worker(unit: Dict[str, object]) -> Dict[str, object]:
    """Deterministic toy campaign worker for chaos harnesses and docs.

    Pure function of the unit spec (no RNG, no wall clock), so any
    faulted-and-recovered campaign over it must reproduce the fault-free
    ``summary.json`` byte for byte.  Module-level, hence picklable by
    reference for process pools.
    """
    k, n = int(unit["k"]), int(unit["n"])
    return {"row": [k, n, k * n, (k * n) % 7], "passed": True}
