"""Reflected backward solver with a regulated lower barrier.

Two independent routes produce the solution triple.  The direct route sweeps
backward with three reflection slots per step: a predictable charge against
the barrier's interval value before the noise is revealed, an interval
charge inside the implicit step, and a right-jump charge at the point.  The
reduction route first absorbs the running-cost floor and the forcing jumps
into an auxiliary unreflected solution, takes a Snell envelope of the
shifted reward, and solves against the resulting right-limit barrier.  Both
routes satisfy the same pathwise dynamics and flat-off conditions, and their
agreement is the main cross-check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import (
    GeneratorSpec,
    SolutionTriple,
    backward_sweep,
    dynamics_residual,
    generator_values,
    implicit_interval_step,  # read by bench/test_bench.py::test_tracer_restores_every_patched_name
    solve_bsde,
    table_generator,
)
from .snell import minimality_residuals, snell_envelope
from .tree_space import AdaptedRegulatedProcess, KIncrements, TreeSpace
from .tree_space import _level_views, rule_value_fields

__all__ = [
    "KIncrements",
    "SolutionTriple",
    "VerificationReport",
    "ReflectedProblem",
    "ComparisonReport",
    "solve_reflected_direct",
    "verify_solution",
    "stopping_representation_check",
    "default_lower_bound",
    "lower_bound_along",
    "barrier_transform",
    "solve_via_reduction",
    "compare_solutions",
    "solution_distance",
]

BOUND_PAD = 1.0
BOUND_MARGIN = 0.5
BOUND_LATTICE = 129
BOUND_SAMPLE_TOL = 1e-9
ORDER_DATA_TOL = 1e-9
ORDER_EQUALITY_TOL = 1e-13


@dataclass
class VerificationReport:
    """Replay-based diagnostics for a candidate solution triple.

    ``dynamics_residual`` is the largest pathwise defect of the backward
    dynamics including the terminal condition.  ``domination_margin`` is the
    smallest value of Y - L over point and right slots (negative means the
    barrier is pierced).  The two minimality fields are the expected charge
    accumulated while Y sits strictly above the barrier, split into the
    continuous-running part (interval plus left jumps, weighed against the
    pre-jump gap) and the right-jump part.  ``negative_charge`` is the most
    negative component of the increasing process, zero for a clean solve.
    """

    dynamics_residual: float
    domination_margin: float
    minimality_continuous: float
    minimality_right_jump: float
    negative_charge: float

    def max_residual(self) -> float:
        return max(
            self.dynamics_residual,
            abs(self.minimality_continuous),
            abs(self.minimality_right_jump),
            -self.negative_charge,
        )


def solve_reflected_direct(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
) -> SolutionTriple:
    """Backward solver reflecting on the barrier at every slot.

    Parameters
    ----------
    terminal : array over leaves, required to dominate the terminal barrier
    gen : GeneratorSpec
    driver : AdaptedRegulatedProcess
        Finite-variation forcing V acting through its jumps.
    barrier : AdaptedRegulatedProcess
        Lower obstacle L with point and interval (right) values.

    Returns
    -------
    SolutionTriple
        Y dominates the barrier everywhere, the charge components are
        nonnegative, and each charge acts only where Y touches the floor
        that produced it.
    """
    if barrier.tree is not driver.tree:
        raise ValueError("driver and barrier live on different trees")
    return backward_sweep(
        driver.tree, terminal, gen, driver, floor=barrier.right, point_floor=barrier.point
    )


def verify_solution(
    trip: SolutionTriple,
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
) -> VerificationReport:
    """Replay the dynamics and the flat-off conditions of a candidate triple.

    All quantities are recomputed from the stored fields; nothing is trusted
    from the solver that produced them.
    """
    y = trip.value
    margin = min(np.min(y.points - barrier.points), np.min(y.rights - barrier.rights))
    cont, jump = minimality_residuals(trip, barrier)
    return VerificationReport(
        dynamics_residual=dynamics_residual(trip, terminal, gen, driver),
        domination_margin=float(margin),
        minimality_continuous=cont,
        minimality_right_jump=jump,
        negative_charge=min(0.0, trip.increments.min_component()),
    )


def stopping_representation_check(
    trip: SolutionTriple,
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
) -> float:
    """Max node deviation between Y and the exhaustive stopped-reward value.

    The running reward is frozen at the solved arguments, so the stopping
    problem with reward f(s, Y_s, Z_s)ds + dV + barrier has the solution
    value as its supremum over adapted rules.  Brute-forced, so depth is
    capped at the oracle limit.
    """
    oracle = rule_value_fields(
        trip.value.tree, barrier, terminal, driver, generator_values(gen, trip)
    )
    return max(
        _sup_gap(trip.value.points, oracle.points), _sup_gap(trip.value.rights, oracle.rights)
    )


def _sup_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


# ----------------------------------------------------------------------
# reduction route


def default_lower_bound(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
) -> np.ndarray:
    """Deterministic per-interval floor of the generator, sized on the data.

    The floor at level i is the minimum of f(i, y, 0) over a lattice
    covering the barrier's point and right values and the payoff, widened by
    ``BOUND_PAD``, lowered by the z-Lipschitz constant times the largest
    representable integrand and a safety margin.  The solution may leave
    that range, so callers confirm the floor along a solution and widen it
    where it fails (see ``solve_via_reduction``).
    """
    fields = (barrier.points, barrier.rights, terminal)
    lo = min(float(np.min(a)) for a in fields) - BOUND_PAD
    hi = max(float(np.max(a)) for a in fields) + BOUND_PAD
    return _bound_rows(gen, driver.tree, lo, hi)


def _bound_rows(gen: GeneratorSpec, tree: TreeSpace, lo: float, hi: float) -> np.ndarray:
    lattice = np.linspace(lo, hi, BOUND_LATTICE)
    zcap = (hi - lo) / (2.0 * tree.sqrt_dt)
    rows = np.empty(tree.depth)
    for i in range(tree.depth):
        vals = _generator_samples(gen, i, lattice, np.array([0.0]))
        rows[i] = float(np.min(vals)) - gen.lipschitz_z * zcap - BOUND_MARGIN
    return rows


def _generator_samples(gen: GeneratorSpec, level: int, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
    # one evaluation on the y column against the z row covers the whole box;
    # a node table broadcasts its level row against the column
    return gen(level, ys[:, None], zs[None, :])


def _bound_values(bound: np.ndarray, n: int) -> np.ndarray:
    rows = np.asarray(bound, dtype=float).reshape(-1)
    if rows.shape[0] != n:
        raise ValueError(f"lower bound needs one value per interval ({n}), got {rows.shape[0]}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"lower bound must be finite, got {rows.tolist()}")
    return rows


def _check_bound_on_samples(
    gen: GeneratorSpec,
    rows: np.ndarray,
    tree: TreeSpace,
    barrier: AdaptedRegulatedProcess,
    terminal: np.ndarray,
) -> None:
    lo = min(float(np.min(barrier.points)), float(np.min(terminal))) - 1.0
    hi = max(float(np.max(barrier.points)), float(np.max(terminal))) + 1.0
    ys = np.linspace(lo, hi, 33)
    zcap = (hi - lo) / (2.0 * tree.sqrt_dt)
    zs = np.linspace(-zcap, zcap, 9)
    for i in range(tree.depth):
        vals = _generator_samples(gen, i, ys, zs)
        if float(np.min(vals)) < rows[i] - BOUND_SAMPLE_TOL:
            raise ValueError("lower-bound violation detected on samples")


def _floor_shortfall(gen: GeneratorSpec, rows: np.ndarray, trip: SolutionTriple) -> float:
    """Largest excess of the floor over f along a solution, zero within tolerance."""
    worst = 0.0
    for row, f in zip(rows, _level_views(generator_values(gen, trip), rows.shape[0])):
        worst = max(worst, float(np.max(row - f)))
    if worst <= 1e-9 * max(1.0, float(np.max(np.abs(rows)))):
        return 0.0
    return worst


def _first_floor(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    bound: np.ndarray | None,
) -> np.ndarray:
    """A supplied floor once it passes the sampled box, else the data-sized one."""
    if bound is None:
        return default_lower_bound(terminal, gen, driver, barrier)
    rows = _bound_values(bound, driver.tree.depth)
    _check_bound_on_samples(gen, rows, driver.tree, barrier, terminal)
    return rows


def _widened_floor(rows: np.ndarray, worst: float, bound: np.ndarray | None) -> np.ndarray:
    """The floor lowered by ``worst`` + 1 where f fell short of it; a supplied one is rejected."""
    if bound is not None:
        raise ValueError(f"lower-bound violation at the realized solution, by {worst:.3g}")
    return rows - (worst + 1.0)


def lower_bound_along(
    trip: SolutionTriple,
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    bound: np.ndarray | None,
) -> np.ndarray:
    """Generator floor that holds along ``trip``, by the reduction's rules.

    A supplied ``bound`` is checked on the sampled box and then along
    ``trip``; the data-sized default is widened once by its shortfall along
    ``trip`` plus one.

    Raises
    ------
    ValueError
        If a supplied floor is not finite or f falls below it on the sampled
        box or along ``trip``.
    """
    rows = _first_floor(terminal, gen, driver, barrier, bound)
    worst = _floor_shortfall(gen, rows, trip)
    return _widened_floor(rows, worst, bound) if worst else rows


def barrier_transform(
    barrier: AdaptedRegulatedProcess,
    terminal: np.ndarray,
    bound: np.ndarray,
    driver: AdaptedRegulatedProcess,
) -> AdaptedRegulatedProcess:
    """Replace the barrier by the smallest dominating reward envelope.

    The auxiliary solution X solves the unreflected equation with generator
    -bound and forcing -V, so X's jumps mirror V's and its drift absorbs the
    floor.  The envelope of barrier + X, shifted back by X, dominates the
    barrier, and at every interior node its conditional left limit
    E[lhat(t+) + V-jump | node] plus the floor times dt stays below its
    interval value.  Only that regularized barrier is returned, so X does
    not outlive the transform.

    Raises
    ------
    ValueError
        If the floor has the wrong length or a non-finite entry.
    """
    tree = barrier.tree
    n = tree.depth
    rows = _bound_values(bound, n)
    xi = np.asarray(terminal, dtype=float)
    # the auxiliary terminal takes the payoff's shape, so the sweep's leaf
    # count check covers the payoff; the envelope checks its domination
    absorber = table_generator(tree, [np.array([-r]) for r in rows], name="floor-absorber")
    aux = solve_bsde(np.zeros_like(xi), absorber, -driver).value
    return snell_envelope(barrier + aux, xi + aux.point[n]).value - aux


def solve_via_reduction(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess,
    bound: np.ndarray | None = None,
) -> SolutionTriple:
    """Reflected solve through the dominating-envelope barrier.

    Pipeline: build the regularized barrier, then run a sweep that reflects
    only on its right-limit field inside intervals and re-attaches point
    values at each step.  With a valid floor this reproduces the direct
    solution exactly.  The default floor is sized on the barrier and the
    payoff alone, so its validity is confirmed a posteriori at the realized
    solution arguments, and the floor is widened by the shortfall and the
    solve retried where it fails.

    Raises
    ------
    ValueError
        If a supplied floor is not finite, fails on the sampled box or at
        the realized arguments, or no valid floor could be established.
    """
    tree = driver.tree
    if barrier.tree is not tree:
        raise ValueError("driver and barrier live on different trees")

    rows = _first_floor(terminal, gen, driver, barrier, bound)
    for _ in range(3):
        # lhat's right-limit field is a right-continuous barrier, so it is
        # both the interval and the left-limit floor
        lhat = barrier_transform(barrier, terminal, rows, driver)
        trip = backward_sweep(tree, terminal, gen, driver, floor=lhat.right, point_floor=lhat.point)
        worst = _floor_shortfall(gen, rows, trip)
        if not worst:
            return trip
        rows = _widened_floor(rows, worst, bound)
    raise ValueError(f"lower-bound violation after widening the floor, by {worst:.3g}")


# ----------------------------------------------------------------------
# comparison


@dataclass
class ReflectedProblem:
    """Input bundle for one reflected solve."""

    terminal: np.ndarray
    gen: GeneratorSpec
    driver: AdaptedRegulatedProcess
    barrier: AdaptedRegulatedProcess


@dataclass
class ComparisonReport:
    """Outcome of an ordered-data comparison between two problems.

    ``valid`` is False when the data fail the required partial order; the
    remaining fields are then None.  ``y_violation`` is the largest amount
    by which the first solution exceeds the second anywhere (zero when the
    order holds).  For identical barriers ``dk_violation`` reports, per
    charge component, the largest amount by which the second problem's
    charge exceeds the first's (the charges shrink when the data grow).
    """

    valid: bool
    reason: str | None
    equal_barrier: bool | None = None
    y_violation: float | None = None
    dk_violation: dict[str, float] | None = None
    first: SolutionTriple | None = None
    second: SolutionTriple | None = None


def compare_solutions(first: ReflectedProblem, second: ReflectedProblem) -> ComparisonReport:
    """Solve both problems and report the order of solutions and charges.

    Requires the second problem to dominate the first: terminal values,
    driver increments (left and right jumps separately), barrier values,
    and generator values along the second solution.  Failures of these data
    preconditions yield an invalid report, not an exception.
    """
    tree = first.driver.tree
    if second.driver.tree is not tree:
        return ComparisonReport(valid=False, reason="problems live on different trees")
    if float(np.max(first.terminal - second.terminal)) > ORDER_DATA_TOL:
        return ComparisonReport(valid=False, reason="terminal values are not ordered")
    d1, d2 = first.driver, second.driver
    if float(np.max(d1.right_jumps() - d2.right_jumps())) > ORDER_DATA_TOL:
        return ComparisonReport(valid=False, reason="driver right jumps are not ordered")
    if float(np.max(d1.left_jumps() - d2.left_jumps())) > ORDER_DATA_TOL:
        return ComparisonReport(valid=False, reason="driver left jumps are not ordered")
    point_gap = first.barrier.points - second.barrier.points
    right_gap = first.barrier.rights - second.barrier.rights
    if max(np.max(point_gap), np.max(right_gap)) > ORDER_DATA_TOL:
        return ComparisonReport(valid=False, reason="barriers are not ordered")
    barrier_gap = float(max(np.max(np.abs(point_gap)), np.max(np.abs(right_gap))))

    sol1 = solve_reflected_direct(first.terminal, first.gen, first.driver, first.barrier)
    sol2 = solve_reflected_direct(second.terminal, second.gen, second.driver, second.barrier)

    gen_gap = generator_values(first.gen, sol2) - generator_values(second.gen, sol2)
    if float(np.max(gen_gap)) > ORDER_DATA_TOL:
        return ComparisonReport(
            valid=False, reason="generators are not ordered along the second solution"
        )

    violation = max(
        0.0,
        float(np.max(sol1.value.points - sol2.value.points)),
        float(np.max(sol1.value.rights - sol2.value.rights)),
    )
    if violation <= ORDER_EQUALITY_TOL * max(sol1.value.scale(), sol2.value.scale()):
        violation = 0.0

    equal = barrier_gap == 0.0
    dk = None
    if equal:
        # Sub-rounding excesses between independently rounded solves count
        # as equality; genuine order failures sit many decades higher.
        guard = ORDER_EQUALITY_TOL * max(sol1.value.scale(), sol2.value.scale())
        k1, k2 = sol1.increments, sol2.increments
        dk = {
            "interval": float(np.max(k2.intervals - k1.intervals)),
            "left": float(np.max(k2.lefts - k1.lefts)),
            "right": float(np.max(k2.rights - k1.rights)),
        }
        dk = {key: 0.0 if v <= guard else v for key, v in dk.items()}
    return ComparisonReport(
        valid=True,
        reason=None,
        equal_barrier=equal,
        y_violation=violation,
        dk_violation=dk,
        first=sol1,
        second=sol2,
    )


def solution_distance(a: SolutionTriple, b: SolutionTriple) -> dict[str, float]:
    """Sup-node gaps between two triples, per component."""
    ka, kb = a.increments, b.increments
    return {
        "y": max(_sup_gap(a.value.points, b.value.points), _sup_gap(a.value.rights, b.value.rights)),
        "z": _sup_gap(a.integrands, b.integrands),
        "k_interval": _sup_gap(ka.intervals, kb.intervals),
        "k_left": _sup_gap(ka.lefts, kb.lefts),
        "k_right": _sup_gap(ka.rights, kb.rights),
    }
