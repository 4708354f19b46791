import numpy as np
import pytest

from rbsdelab.bsde import make_generator
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
