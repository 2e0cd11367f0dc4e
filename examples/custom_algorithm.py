"""Writing your own min-CORDA algorithm and stress-testing it.

The library's algorithm interface is a pure function from an anonymous
snapshot to a decision.  This example implements a tiny custom algorithm
("spread out": a robot moves into its larger adjacent gap when that makes
the configuration more balanced), runs it under increasingly nasty
schedulers, and uses the task monitors to see what it does and does not
achieve — illustrating why the paper's algorithms are careful about
symmetry and single-mover guarantees.

Usage::

    python examples/custom_algorithm.py
"""

from repro import Configuration, EngineOptions, Simulator
from repro.model import Algorithm, Decision, Snapshot
from repro.scheduler import AsynchronousScheduler, SequentialScheduler, SynchronousScheduler
from repro.tasks import ExplorationMonitor, SearchingMonitor


class SpreadOut(Algorithm):
    """Move towards the larger adjacent gap if it is at least 2 longer."""

    name = "spread-out"

    def compute(self, snapshot: Snapshot) -> Decision:
        first_gap = snapshot.views[0][0]
        second_gap = snapshot.views[1][0]
        if first_gap >= second_gap + 2:
            return Decision.move_toward(0)
        if second_gap >= first_gap + 2:
            return Decision.move_toward(1)
        return Decision.idle()


def run_once(scheduler, label: str) -> None:
    start = Configuration.from_occupied(12, [0, 1, 2, 3, 7])
    searching = SearchingMonitor()
    exploration = ExplorationMonitor()
    engine = Simulator(
        SpreadOut(),
        start,
        scheduler=scheduler,
        monitors=[searching, exploration],
        options=EngineOptions(collision_policy="record"),
    )
    engine.run(400)
    final = engine.configuration
    print(f"  {label:<22} final={final.ascii_art()}  "
          f"collisions={engine.trace.had_collision}  "
          f"edges ever cleared={sum(1 for v in searching.clearing_counts().values() if v)}  "
          f"coverage={100 * exploration.coverage_fraction():.0f}%")


def main() -> None:
    print("custom 'spread out' algorithm under different adversaries:")
    run_once(SequentialScheduler(), "sequential round-robin")
    run_once(SynchronousScheduler(), "fully synchronous")
    run_once(AsynchronousScheduler(seed=4), "fully asynchronous")
    print()
    print("The balanced configurations it converges to are symmetric, so it can")
    print("never break ties again — unlike Algorithm Align, which is engineered to")
    print("keep every intermediate configuration rigid (see examples/quickstart.py).")


if __name__ == "__main__":
    main()
