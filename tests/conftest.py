import dataclasses
from collections import Counter

import numpy as np
import pytest

from rbsdelab.bsde import make_generator
from rbsdelab.penalization import solve_penalized
from rbsdelab.rbsde import solve_reflected_direct
from rbsdelab.scenarios import random_scenario
from rbsdelab.tree_space import AdaptedRegulatedProcess


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sup_gap(a, b):
    """Largest pointwise difference between two adapted processes, both fields."""
    tree = a.tree
    worst = 0.0
    for i in range(tree.depth + 1):
        worst = max(worst, float(np.max(np.abs(a.point[i] - b.point[i]))))
    for i in range(tree.depth):
        worst = max(worst, float(np.max(np.abs(a.right[i] - b.right[i]))))
    return worst


def climbing_scenario():
    """Cubic instance whose solution climbs far above its barrier and payoff.

    The driver jumps right by +3 at every node and never left, so Y leaves
    the range the data-sized floor covers, and the cubic falls below that
    floor along the solution.
    """
    sc = random_scenario(np.random.default_rng(3), 6, gen=make_generator("monotone_cubic:0.2"))
    depth = sc.tree.depth
    driver = AdaptedRegulatedProcess.from_levels(
        sc.tree,
        [np.full(1 << i, 3.0 * i) for i in range(depth + 1)],
        [np.full(1 << i, 3.0 * i + 3.0) for i in range(depth)],
    )
    return sc.terminal, sc.gen, driver, sc.barrier


def solution_bytes(sol):
    k = sol.increments
    return [a.tobytes() for a in (sol.value.points, sol.value.rights, *sol.integrand)] + [
        a.tobytes() for a in (k.intervals, k.lefts, k.rights)
    ]


def counted(gen):
    """``gen`` with its ``fn`` and ``dy`` calls counted."""
    calls = Counter()

    def fn(level, y, z):
        calls["fn"] += 1
        return gen.fn(level, y, z)

    def dy(level, y, z):
        calls["dy"] += 1
        return gen.dy(level, y, z)

    return dataclasses.replace(gen, fn=fn, dy=None if gen.dy is None else dy), calls


SOLVES = {
    "reflected": lambda sc: solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier),
    "penalized": lambda sc: solve_penalized(sc.terminal, sc.gen, sc.driver, sc.barrier, 64),
    "classic": lambda sc: solve_penalized(
        sc.terminal, sc.gen, sc.driver, sc.barrier, 64, scheme="classic"
    ),
}
