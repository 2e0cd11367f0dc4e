"""Quickstart: run Algorithm Align on an anonymous ring and watch it reach C*.

Usage::

    python examples/quickstart.py [n] [k] [seed]
"""

import random
import sys

from repro import AlignAlgorithm, EngineOptions, Simulator
from repro.workloads.generators import random_rigid_configuration


def main(n: int = 14, k: int = 6, seed: int = 3) -> None:
    rng = random.Random(seed)
    start = random_rigid_configuration(n, k, rng)
    print(f"ring of {n} nodes, {k} robots, rigid starting configuration:")
    print(f"  {start.ascii_art()}   supermin view = {start.supermin_view()}")
    print()

    engine = Simulator(AlignAlgorithm(), start, options=EngineOptions(presentation_seed=seed))
    trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), 40 * n * k)

    print("configurations along the run (one line per executed move):")
    previous = start
    for event in trace.events:
        if not event.moves:
            continue
        move = event.moves[0]
        configuration = event.configuration_after
        print(
            f"  step {event.step:4d}  robot {move.robot_id} : {move.source:2d} -> {move.target:2d}   "
            f"{configuration.ascii_art()}   supermin = {configuration.supermin_view()}"
        )
        previous = configuration
    print()
    print(f"reached C* after {trace.total_moves} moves: {previous.ascii_art()}")
    print("every intermediate configuration was rigid (Theorem 1):",
          all(c.is_rigid or c.supermin_view() == (0, 0, 2, 2) for c in trace.configurations()))


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    main(*args)
