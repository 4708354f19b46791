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

from dataclasses import dataclass

import numpy as np

from .bsde import SolutionTriple, backward_sweep
from .tree_space import AdaptedRegulatedProcess, KIncrements, rule_value_fields

__all__ = [
    "KIncrements",
    "SolutionTriple",
    "MertensDecomposition",
    "snell_envelope",
    "verify_minimality",
    "brute_force_snell",
]


@dataclass
class MertensDecomposition:
    """Envelope Y with its representation integrand and increasing part.

    Pathwise, Y(t) = Y(0) + M(t) - K(t) at points and right limits, where
    the martingale part M is built on request by :meth:`martingale`.
    """

    envelope: AdaptedRegulatedProcess
    integrand: tuple[np.ndarray, ...]
    increasing: KIncrements

    def martingale(self) -> list[np.ndarray]:
        """M(t_i) per node, one array per level, with M(0) = 0.

        M has no right jumps; its left jump at t_{i+1} is Z(t_i) times the
        revealed noise increment.
        """
        tree = self.envelope.tree
        levels = [np.zeros(1)]
        for i in range(tree.depth):
            step = np.repeat(self.integrand[i], 2) * tree.sqrt_dt * tree.edge_signs(i + 1)
            levels.append(np.repeat(levels[i], 2) + step)
        return levels


def snell_envelope(barrier: AdaptedRegulatedProcess, terminal: np.ndarray) -> MertensDecomposition:
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
    MertensDecomposition
        Envelope, representation integrand, and the increasing process split
        into interval, left-jump, and right-jump charges.
    """
    tree = barrier.tree
    trip = backward_sweep(tree, terminal, None, None, floor=barrier.right, point_floor=barrier.point)
    return MertensDecomposition(trip.value, trip.integrand, trip.increments)


def minimality_residuals(
    envelope: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    increasing: KIncrements,
) -> tuple[float, float]:
    """Expected flat-off charges of K against Y - L.

    The first component pairs the interval charge and the left jump at the
    next point with the gap on the open interval, where the pre-jump value of
    Y lives; the second pairs right jumps with the gap at the point.  Both
    are expectations of per-path sums and vanish when K acts only where Y
    touches the barrier.
    """
    tree = envelope.tree
    cont = 0.0
    jump = 0.0
    for i in range(tree.depth):
        weight = tree.node_probability(i)
        interval_gap = envelope.right[i] - barrier.right[i]
        left_as_parent = increasing.left[i + 1][0::2]
        cont += weight * float(np.sum(interval_gap * (increasing.interval[i] + left_as_parent)))
        point_gap = envelope.point[i] - barrier.point[i]
        jump += weight * float(np.sum(point_gap * increasing.right[i]))
    return cont, jump


def verify_minimality(
    decomposition: MertensDecomposition, barrier: AdaptedRegulatedProcess
) -> tuple[float, float]:
    """Minimality residual pair for an envelope decomposition."""
    return minimality_residuals(decomposition.envelope, barrier, decomposition.increasing)


def brute_force_snell(
    barrier: AdaptedRegulatedProcess, terminal: np.ndarray
) -> AdaptedRegulatedProcess:
    """Optimal-stopping value at every node by exhaustive rule evaluation.

    Independent of the backward envelope sweep: every adapted absorbing rule
    is evaluated and the node value is the maximum expected stopped reward.
    Capped at small depths because the rule count explodes.
    """
    return rule_value_fields(barrier.tree, barrier, terminal)
