"""Penalized approximations of the reflected solve.

The modified scheme keeps the linear interval penalty of the classic method
and adds explicit right-jump corrections at detection times, where the
barrier or the forcing jumps down by more than the detection threshold 1/n.
On the finite tree every right jump is detected once n is large enough, the
detection sets are nested in n, and the approximations increase to the
reflected solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import GeneratorSpec, SolutionTriple, backward_sweep
from .rbsde import BOUND_SAMPLE_TOL, _bound_values, _check_bound_on_samples, _floor_shortfall
from .rbsde import barrier_transform, default_lower_bound, solve_reflected_direct
from .tree_space import AdaptedRegulatedProcess, TreeSpace, _level_views

__all__ = [
    "SigmaArray",
    "PenalizedSolution",
    "sigma_array",
    "build_sigma_arrays",
    "solve_penalized",
    "step_one_barrier",
    "ConvergenceRow",
    "ConvergenceStudy",
    "convergence_study",
]

STUDY_COLUMNS = ("n", "sup_gap_Y", "monotonicity_violation", "L1_gap_Z", "L2_gap_Z", "Kd_mass")

# Ordering comparisons between independently rounded solves treat sub-ulp
# differences as equality.
MONOTONE_EQUALITY_TOL = 1e-13


@dataclass
class SigmaArray:
    """Per-node detection flags for right jumps below -1/n.

    ``mask`` is heap-ordered over levels 0..N and ``detected[i]`` is its
    level-i view: it marks the nodes where the barrier's right jump or the
    forcing's right jump falls under -1/n.  Each flag depends only on level-i
    information, so the induced per-path hitting times are stopping times.
    The flagged set grows with n because the threshold shrinks.
    """

    n: int
    mask: np.ndarray
    detected: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a heap over L levels holds 2**L - 1 entries
        self.detected = _level_views(self.mask, self.mask.size.bit_length())

    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def contains(self, other: "SigmaArray") -> bool:
        """Whether every node flagged by ``other`` is flagged here."""
        return bool(np.all(self.mask | ~other.mask))


def sigma_array(
    barrier: AdaptedRegulatedProcess, driver: AdaptedRegulatedProcess, n: int
) -> SigmaArray:
    if n < 1:
        raise ValueError("detection level must be a positive integer")
    threshold = -1.0 / float(n)
    # no right jump at the horizon, so the terminal level is never flagged
    mask = np.zeros(barrier.points.size, dtype=bool)
    mask[: barrier.rights.size] = (barrier.right_jumps() < threshold) | (
        driver.right_jumps() < threshold
    )
    return SigmaArray(n=int(n), mask=mask)


def build_sigma_arrays(
    barrier: AdaptedRegulatedProcess, driver: AdaptedRegulatedProcess, n_max: int
) -> list[SigmaArray]:
    """Detection arrays for every level 1..n_max."""
    return [sigma_array(barrier, driver, n) for n in range(1, n_max + 1)]


@dataclass
class PenalizedSolution(SolutionTriple):
    """Level-n approximation of ``scheme``, with its split increasing process.

    ``increments`` has no left jumps: ``kstar_interval[i]`` is the penalty
    mass accrued on (t_i, t_{i+1}), ``kd_right[i]`` the correction charges,
    supported on the detection set.
    """

    n: int
    scheme: str

    @property
    def kstar_interval(self) -> tuple[np.ndarray, ...]:
        return self.increments.interval

    @property
    def kd_right(self) -> tuple[np.ndarray, ...]:
        return self.increments.right

    def kd_mass(self) -> float:
        tree = self.value.tree
        return float(
            sum(
                tree.node_probability(i) * float(np.sum(self.kd_right[i]))
                for i in range(tree.depth)
            )
        )


def solve_penalized(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    n: int,
    scheme: str = "modified",
) -> PenalizedSolution:
    """Backward sweep with a linear interval penalty of strength n.

    No reflection acts at left limits.  The interval step absorbs the
    penalty n(y - L(t_i+))^- in closed form inside the implicit solve.  In
    the modified scheme, right jumps are corrected at detection nodes by
    reflecting on the barrier's point value; the classic scheme never
    corrects.

    Raises
    ------
    ValueError
        If ``n`` is below 1 or the scheme is unknown.
    """
    if n < 1:
        raise ValueError(f"penalty level must be a positive integer, got {n}")
    if scheme not in ("modified", "classic"):
        raise ValueError(f"unknown penalization scheme {scheme!r}")
    if barrier.tree is not driver.tree:
        raise ValueError("driver and barrier live on different trees")
    point_floor = None
    if scheme == "modified":
        floors = np.where(sigma_array(barrier, driver, n).mask, barrier.points, -np.inf)
        point_floor = _level_views(floors, barrier.tree.depth + 1)
    trip = backward_sweep(
        driver.tree, terminal, gen, driver, barrier.right, point_floor, penalty=float(n)
    )
    return PenalizedSolution(trip.value, trip.integrands, trip.increments, n=int(n), scheme=scheme)


def step_one_barrier(
    sol: PenalizedSolution, barrier: AdaptedRegulatedProcess
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

    def values(self) -> tuple:
        return (
            self.n,
            self.sup_gap_y,
            self.monotonicity_violation,
            self.l1_gap_z,
            self.l2_gap_z,
            self.kd_mass,
        )


@dataclass
class ConvergenceStudy:
    mode: str
    rows: list[ConvergenceRow]
    reference: SolutionTriple
    solutions: list[PenalizedSolution] = field(default_factory=list)

    def header(self) -> tuple:
        return STUDY_COLUMNS


def _field_gap(sol: PenalizedSolution, reference: SolutionTriple, right_only: bool) -> float:
    gap = np.max(np.abs(reference.value.rights - sol.value.rights))
    if not right_only:
        gap = max(gap, np.max(np.abs(reference.value.points - sol.value.points)))
    return float(gap)


def _excess(
    lower: AdaptedRegulatedProcess, upper: AdaptedRegulatedProcess, right_only: bool
) -> float:
    """Largest amount by which ``lower`` exceeds ``upper``, at least zero."""
    gap = np.max(lower.rights - upper.rights)
    if not right_only:
        gap = max(gap, np.max(lower.points - upper.points))
    return max(0.0, float(gap))


def _monotonicity_violation(
    sol: PenalizedSolution,
    previous: PenalizedSolution | None,
    reference: SolutionTriple,
    right_only: bool,
) -> float:
    worst = _excess(sol.value, reference.value, right_only)
    if previous is not None:
        worst = max(worst, _excess(previous.value, sol.value, right_only))
    if worst <= MONOTONE_EQUALITY_TOL * reference.value.scale():
        return 0.0
    return worst


def _z_gaps(
    tree: TreeSpace, sol: PenalizedSolution, reference: SolutionTriple
) -> tuple[float, float]:
    l1 = 0.0
    l2 = 0.0
    for i in range(tree.depth):
        diff = np.abs(reference.integrand[i] - sol.integrand[i])
        weight = tree.dt * tree.node_probability(i)
        l1 += weight * float(np.sum(diff))
        l2 += weight * float(np.sum(diff ** 2))
    return l1, l2


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
    levels : increasing penalty strengths
    mode : {"modified", "classic_vs_transformed"}
        The modified scheme is compared to the full solution at points and
        right limits.  The classic scheme is run against the regularized
        barrier (built with ``bound``, or with the data-sized default floor
        widened until it holds along the reference) and compared to the
        right-limit field only, which is its limit.

    Raises
    ------
    ValueError
        If a supplied ``bound`` is not finite, or the generator falls below
        it on the sampled box or along the reference solution.
    """
    if mode not in ("modified", "classic_vs_transformed"):
        raise ValueError(f"unknown study mode {mode!r}")
    if not levels:
        raise ValueError("empty study")
    tree = driver.tree
    reference = solve_reflected_direct(terminal, gen, driver, barrier)

    if mode == "modified":
        target_barrier = barrier
        scheme = "modified"
        right_only = False
    else:
        # as the reduction does along its own solution, a supplied floor is
        # checked and the data-sized one widened where f dips below it
        if bound is None:
            rows = default_lower_bound(terminal, gen, driver, barrier)
        else:
            rows = _bound_values(bound, tree.depth)
            _check_bound_on_samples(gen, rows, tree, barrier, terminal, BOUND_SAMPLE_TOL)
        worst = _floor_shortfall(gen, rows, reference)
        if worst and bound is not None:
            raise ValueError(f"lower-bound violation at the reference solution, by {worst:.3g}")
        if worst:
            rows = rows - (worst + 1.0)
        target_barrier = barrier_transform(barrier, terminal, rows, driver).lhat
        scheme = "classic"
        right_only = True

    out = ConvergenceStudy(mode=mode, rows=[], reference=reference)
    previous: PenalizedSolution | None = None
    for n in levels:
        sol = solve_penalized(terminal, gen, driver, target_barrier, n, scheme=scheme)
        l1, l2 = _z_gaps(tree, sol, reference)
        out.rows.append(
            ConvergenceRow(
                n=int(n),
                sup_gap_y=_field_gap(sol, reference, right_only),
                monotonicity_violation=_monotonicity_violation(sol, previous, reference, right_only),
                l1_gap_z=l1,
                l2_gap_z=l2,
                kd_mass=sol.kd_mass(),
            )
        )
        out.solutions.append(sol)
        previous = sol
    return out
