"""Penalized approximations of the reflected solve.

The modified scheme keeps the linear interval penalty of the classic method
and adds explicit right-jump corrections at detection times, where the
barrier or the forcing jumps down by more than the detection threshold 1/n.
On the finite tree every right jump is detected once n is large enough, the
detection sets are nested in n, and the approximations increase to the
reflected solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import GeneratorSpec, SolutionTriple, backward_sweep
from .rbsde import barrier_transform, lower_bound_along, solve_reflected_direct
from .tree_space import AdaptedRegulatedProcess

__all__ = [
    "sigma_array",
    "solve_penalized",
    "step_one_barrier",
    "ConvergenceRow",
    "ConvergenceStudy",
    "check_study",
    "convergence_study",
]

STUDY_COLUMNS = ("n", "sup_gap_Y", "monotonicity_violation", "L1_gap_Z", "L2_gap_Z", "Kd_mass")

# Ordering comparisons between independently rounded solves treat sub-ulp
# differences as equality.
MONOTONE_EQUALITY_TOL = 1e-13


def _check_level(n, what: str) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"{what} must be a positive integer, got {n!r}")


def sigma_array(
    barrier: AdaptedRegulatedProcess, driver: AdaptedRegulatedProcess, n: int
) -> np.ndarray:
    """Heap-ordered flags of the nodes whose right jump falls under -1/n.

    A node is flagged where the barrier's right jump or the forcing's right
    jump lies below -1/n.  Each flag depends only on level-i information,
    so the induced per-path hitting times are stopping times.  The flagged
    set grows with n because the threshold shrinks.  An ``n`` that is not
    an integer of at least 1 raises ValueError.
    """
    _check_level(n, "detection level")
    threshold = -1.0 / n
    # no right jump at the horizon, so the terminal level is never flagged
    mask = np.zeros(barrier.points.size, dtype=bool)
    mask[: barrier.rights.size] = (barrier.right_jumps() < threshold) | (
        driver.right_jumps() < threshold
    )
    return mask


def solve_penalized(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    n: int,
    scheme: str = "modified",
) -> SolutionTriple:
    """Backward sweep with a linear interval penalty of strength n.

    No reflection acts at left limits.  The interval step absorbs the
    penalty n(y - L(t_i+))^- in closed form inside the implicit solve.  In
    the modified scheme, right jumps are corrected at detection nodes by
    reflecting on the barrier's point value; the classic scheme never
    corrects.  The increments have no left jumps: ``interval[i]`` is the
    penalty mass accrued on (t_i, t_{i+1}), ``right[i]`` the correction
    charges, supported on the detection set.

    Raises
    ------
    ValueError
        If ``n`` is not an integer of at least 1 or the scheme is unknown.
    """
    _check_level(n, "penalty level")
    if scheme not in ("modified", "classic"):
        raise ValueError(f"unknown penalization scheme {scheme!r}")
    if barrier.tree is not driver.tree:
        raise ValueError("driver and barrier live on different trees")
    point_floor = None
    if scheme == "modified":
        point_floor = np.where(sigma_array(barrier, driver, n), barrier.points, -np.inf)
    return backward_sweep(
        driver.tree, terminal, gen, driver, barrier.rights, point_floor, penalty=float(n)
    )


def step_one_barrier(
    sol: SolutionTriple, barrier: AdaptedRegulatedProcess
) -> AdaptedRegulatedProcess:
    """Barrier actually enforced by a penalized solution.

    The level-n value solves the reflected problem exactly once the barrier
    is lowered to min(L, Y^n): the penalty mass then acts only on the
    touching set.
    """
    return AdaptedRegulatedProcess(
        barrier.tree,
        np.minimum(barrier.points, sol.value.points),
        np.minimum(barrier.rights, sol.value.rights),
    )


# ----------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceRow:
    n: int
    sup_gap_y: float
    monotonicity_violation: float
    l1_gap_z: float
    l2_gap_z: float
    kd_mass: float


@dataclass
class ConvergenceStudy:
    """The gap rows of a study, one per level, and its reflected reference."""

    rows: list[ConvergenceRow]
    reference: SolutionTriple


def _excess(
    lower: AdaptedRegulatedProcess, upper: AdaptedRegulatedProcess, right_only: bool
) -> float:
    """Largest amount by which ``lower`` exceeds ``upper``, at least zero."""
    gap = np.max(lower.rights - upper.rights)
    if not right_only:
        gap = max(gap, np.max(lower.points - upper.points))
    return max(0.0, float(gap))


def _field_gap(
    value: AdaptedRegulatedProcess, reference: AdaptedRegulatedProcess, right_only: bool
) -> float:
    return max(_excess(value, reference, right_only), _excess(reference, value, right_only))


def _monotonicity_violation(
    value: AdaptedRegulatedProcess,
    previous: AdaptedRegulatedProcess | None,
    reference: AdaptedRegulatedProcess,
    right_only: bool,
) -> float:
    worst = _excess(value, reference, right_only)
    if previous is not None:
        worst = max(worst, _excess(previous, value, right_only))
    if worst <= MONOTONE_EQUALITY_TOL * reference.scale():
        return 0.0
    return worst


def _kd_mass(sol: SolutionTriple) -> float:
    """Expected correction mass: the right-jump charges weighed by node probability."""
    tree, right = sol.value.tree, sol.increments.right
    masses = (tree.node_probability(i) * float(np.sum(right[i])) for i in range(tree.depth))
    return float(sum(masses))


def _z_gaps(sol: SolutionTriple, reference: SolutionTriple) -> tuple[float, float]:
    tree = reference.value.tree
    l1 = 0.0
    l2 = 0.0
    for i in range(tree.depth):
        diff = np.abs(reference.integrand[i] - sol.integrand[i])
        weight = tree.dt * tree.node_probability(i)
        l1 += weight * float(np.sum(diff))
        l2 += weight * float(np.sum(diff ** 2))
    return l1, l2


def check_study(levels: list[int], mode: str) -> None:
    """Raise ValueError unless ``mode`` names a study and ``levels`` are
    strictly increasing integers of at least 1."""
    if mode not in ("modified", "classic_vs_transformed"):
        raise ValueError(f"unknown study mode {mode!r}")
    if not levels:
        raise ValueError("empty study")
    if any(later <= earlier for earlier, later in zip(levels, levels[1:])):
        raise ValueError(f"penalty levels must be strictly increasing, got {list(levels)}")
    for n in levels:
        _check_level(n, "penalty level")


def convergence_study(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    levels: list[int],
    mode: str = "modified",
    bound: np.ndarray | None = None,
) -> ConvergenceStudy:
    """Gap table of penalized solves against the reflected solution.

    Parameters
    ----------
    levels : strictly increasing penalty strengths, integers of at least 1
    mode : {"modified", "classic_vs_transformed"}
        The modified scheme is compared to the full solution at points and
        right limits.  The classic scheme is run against the regularized
        barrier, built on the floor ``lower_bound_along`` gives along the
        reference, and compared to the right-limit field only, which is its
        limit.

    Raises
    ------
    ValueError
        If the levels are empty, not strictly increasing or not integers of
        at least 1, a supplied ``bound`` is not finite, or the generator
        falls below it on the sampled box or along the reference solution.
    """
    check_study(levels, mode)
    reference = solve_reflected_direct(terminal, gen, driver, barrier)

    if mode == "modified":
        target_barrier = barrier
        scheme = "modified"
        right_only = False
    else:
        rows = lower_bound_along(reference, terminal, gen, driver, barrier, bound)
        target_barrier = barrier_transform(barrier, terminal, rows, driver)
        scheme = "classic"
        right_only = True

    out = ConvergenceStudy(rows=[], reference=reference)
    previous: AdaptedRegulatedProcess | None = None
    for n in levels:
        sol = solve_penalized(terminal, gen, driver, target_barrier, n, scheme=scheme)
        l1, l2 = _z_gaps(sol, reference)
        out.rows.append(
            ConvergenceRow(
                n=int(n),
                sup_gap_y=_field_gap(sol.value, reference.value, right_only),
                monotonicity_violation=_monotonicity_violation(
                    sol.value, previous, reference.value, right_only
                ),
                l1_gap_z=l1,
                l2_gap_z=l2,
                kd_mass=_kd_mass(sol),
            )
        )
        # only the value meets the next level; the solution must not outlive this one
        previous = sol.value
        del sol
    return out
