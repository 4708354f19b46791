"""Snell envelope of a regulated reward with terminal constraint.

The envelope is the reflected backward sweep with a zero generator and no
forcing.  Because noise is revealed only at grid instants, the left-approach
reflection compares the barrier's interval value with the conditional
expectation of the next point values, taken before the next increment is
revealed; the resulting left-jump charge is the same on both siblings.  The
right-jump reflection happens at the grid point itself.  The increasing
process is returned split into its interval part, left jumps, and right
jumps.
"""

from __future__ import annotations

import numpy as np

from .bsde import SolutionTriple, backward_sweep
from .tree_space import AdaptedRegulatedProcess, KIncrements, rule_value_fields

__all__ = [
    "KIncrements",
    "SolutionTriple",
    "snell_envelope",
    "martingale",
    "minimality_residuals",
    "brute_force_snell",
]


def snell_envelope(barrier: AdaptedRegulatedProcess, terminal: np.ndarray) -> SolutionTriple:
    """Smallest strong supermartingale dominating ``barrier`` with value
    ``terminal`` at the horizon.

    Parameters
    ----------
    barrier : AdaptedRegulatedProcess
        Reward process L, with point and right values per node.
    terminal : array over leaves
        Terminal payoff, required to dominate the terminal barrier values.

    Returns
    -------
    SolutionTriple
        The envelope Y, its representation integrand Z, and the increasing
        process K split into interval, left-jump, and right-jump charges.
        Pathwise, Y(t) = Y(0) + M(t) - K(t) at points and right limits,
        with M built by :func:`martingale`.
    """
    tree = barrier.tree
    return backward_sweep(tree, terminal, None, None, floor=barrier.rights, point_floor=barrier.points)


def martingale(trip: SolutionTriple) -> list[np.ndarray]:
    """M(t_i) per node, one array per level, with M(0) = 0.

    M has no right jumps; its left jump at t_{i+1} is Z(t_i) times the
    revealed noise increment.
    """
    tree = trip.value.tree
    levels = [np.zeros(1)]
    for i in range(tree.depth):
        step = np.repeat(trip.integrand[i], 2) * tree.sqrt_dt * tree.edge_signs(i + 1)
        levels.append(np.repeat(levels[i], 2) + step)
    return levels


def minimality_residuals(
    trip: SolutionTriple, barrier: AdaptedRegulatedProcess
) -> tuple[float, float]:
    """Expected flat-off charges of K against Y - L.

    The first component pairs the interval charge and the left jump at the
    next point with the gap on the open interval, where the pre-jump value of
    Y lives; the second pairs right jumps with the gap at the point.  Both
    are expectations of per-path sums and vanish when K acts only where Y
    touches the barrier.
    """
    y, k = trip.value, trip.increments
    tree = y.tree
    cont = 0.0
    jump = 0.0
    for i in range(tree.depth):
        weight = tree.node_probability(i)
        interval_gap = y.right[i] - barrier.right[i]
        left_as_parent = k.left[i + 1][0::2]
        cont += weight * float(np.sum(interval_gap * (k.interval[i] + left_as_parent)))
        point_gap = y.point[i] - barrier.point[i]
        jump += weight * float(np.sum(point_gap * k.right[i]))
    return cont, jump


def brute_force_snell(
    barrier: AdaptedRegulatedProcess, terminal: np.ndarray
) -> AdaptedRegulatedProcess:
    """Optimal-stopping value at every node by exhaustive rule evaluation.

    Independent of the backward envelope sweep: every adapted absorbing rule
    is evaluated and the node value is the maximum expected stopped reward.
    Capped at small depths because the rule count explodes.
    """
    return rule_value_fields(barrier.tree, barrier, terminal)
