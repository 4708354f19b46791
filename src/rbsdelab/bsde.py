"""The package's one backward sweep, and the unreflected equation it solves.

The interval step is implicit in y: each level i solves the scalar equation
y = E + f(i, y, z) dt per node, whose residual is strictly increasing when
the generator's one-sided y-slope times the step stays below one, by Newton
steps on the generator's declared y-slope inside a bisection bracket.  Left
jumps of the driver are folded into the conditional-expectation input, right
jumps are added back at the point, and the integrand Z comes from the exact
one-step martingale representation.  :func:`backward_sweep` optionally
reflects on a floor inside the intervals (or penalizes below it) and on a
floor at the points; the unreflected, reflected and penalized solvers and the
Snell envelope are all calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tree_space import AdaptedRegulatedProcess, KIncrements, TreeSpace, _level_views
from .tree_space import conditional_expectation, martingale_representation

__all__ = [
    "SolverError",
    "GeneratorSpec",
    "SolutionTriple",
    "make_generator",
    "table_generator",
    "validate_generator",
    "backward_sweep",
    "solve_bsde",
    "dynamics_residual",
    "TransformedProblem",
    "exponential_transform",
]

FIXED_POINT_TOL = 1e-14


class SolverError(RuntimeError):
    """Numerical failure inside a backward sweep."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Driver f(level, y, z) on the tree, with its declared regularity constants.

    Time on the tree is the level: ``fn`` receives the int index i of the
    interval (t_i, t_{i+1}) and numpy arrays y, z of broadcastable shapes,
    and returns an array of their broadcast shape; the level's grid time is
    ``tree.time(i)``.  ``lipschitz_z`` bounds |f(i,y,z)-f(i,y,z')| by a
    multiple of |z-z'|; ``monotone_y`` bounds (y-y')(f(i,y,z)-f(i,y',z)) by a
    multiple of (y-y')**2 and may be negative.  ``dy``, if given, is the
    partial derivative of f in y at (i, y, z), as an array of y's shape or a
    scalar; the implicit step takes Newton steps on it.  ``None`` means the
    step treats the slope as zero, which makes each of its steps a
    fixed-point step: exact for drivers that ignore y.
    """

    name: str
    fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_z: float
    monotone_y: float
    dy: Callable[[int, np.ndarray, np.ndarray], np.ndarray | float] | None = None

    def __call__(self, level: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(level, y, z), dtype=float)


@dataclass
class SolutionTriple:
    """Value process, representation integrand, and reflection charges."""

    value: AdaptedRegulatedProcess
    integrand: tuple[np.ndarray, ...]
    increments: KIncrements


def make_generator(spec: str) -> GeneratorSpec:
    """Build a registry generator from its textual name.

    Supported names: ``zero``, ``constant:<c>``, ``linear:<a>,<b>`` meaning
    f = a*y + b*z, and ``monotone_cubic:<mu>`` meaning f = -y**3 + mu*y,
    evaluated as -(y*y*y) + mu*y.  The linear and cubic ones declare their
    y-slope.  Every coefficient must be a finite number.  Node-dependent
    tables are built with :func:`table_generator` instead.
    """
    name = spec.strip()
    if name == "zero":
        return GeneratorSpec("zero", lambda level, y, z: np.zeros_like(y), 0.0, 0.0)
    if name.startswith("constant:"):
        (c,) = _coefficients(name, 1)
        return GeneratorSpec(name, lambda level, y, z: np.full_like(y, c), 0.0, 0.0)
    if name.startswith("linear:"):
        a, b = _coefficients(name, 2)
        return GeneratorSpec(
            name, lambda level, y, z: a * y + b * z, abs(b), a, lambda level, y, z: a
        )
    if name.startswith("monotone_cubic:"):
        (mu,) = _coefficients(name, 1)
        return GeneratorSpec(
            name,
            lambda level, y, z: -(y * y * y) + mu * y,
            0.0,
            mu,
            lambda level, y, z: mu - 3.0 * y * y,
        )
    raise ValueError(f"unknown generator {spec!r}")


def _coefficients(name: str, count: int) -> list[float]:
    parts = name.split(":", 1)[1].split(",")
    if len(parts) != count:
        raise ValueError(f"generator {name!r} needs {count} coefficient(s), got {len(parts)}")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"generator {name!r} has a non-numeric coefficient") from None
    if not all(np.isfinite(values)):
        raise ValueError(f"generator {name!r} has a non-finite coefficient")
    return values


def table_generator(
    tree: TreeSpace, rows: list[np.ndarray], name: str = "custom-table"
) -> GeneratorSpec:
    """Frozen per-node driver given by one row per interval level.

    ``rows[i]`` holds the value of f on (t_i, t_{i+1}) at each node of level
    i, or one value for the whole level.  Evaluation at level i returns that
    row broadcast against y, as a read-only view; the values of y and z are
    ignored, so both regularity constants are zero.
    """
    frozen = []
    for i in range(tree.depth):
        row = np.asarray(rows[i], dtype=float).reshape(-1)
        if row.shape[0] not in (1, tree.n_nodes(i)):
            raise ValueError(f"table row {i} must have 1 or {tree.n_nodes(i)} entries")
        frozen.append(row)

    def fn(level: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        row = frozen[level]
        return np.broadcast_to(row, np.broadcast_shapes(row.shape, np.shape(y)))

    return GeneratorSpec(name, fn, 0.0, 0.0)


def validate_generator(
    gen: GeneratorSpec,
    rng: np.random.Generator,
    samples: int = 64,
    levels: tuple[int, ...] = (0,),
    box: float = 3.0,
    tol: float = 1e-9,
) -> None:
    """Check the declared constants on sampled triples, at levels drawn from ``levels``.

    Raises
    ------
    ValueError
        If a sampled pair violates the z-Lipschitz bound or the one-sided
        y-monotonicity bound beyond ``tol``, or a declared y-slope differs
        from a central difference of ``fn``.
    """
    for _ in range(samples):
        level = int(rng.choice(levels))
        y, y2, z, z2 = rng.uniform(-box, box, size=4)
        y_arr = np.array([y])
        fz = float(gen(level, y_arr, np.array([z]))[0])
        fz2 = float(gen(level, y_arr, np.array([z2]))[0])
        if abs(fz - fz2) > gen.lipschitz_z * abs(z - z2) + tol:
            raise ValueError(f"generator {gen.name} violates its z-Lipschitz constant")
        fy = float(gen(level, np.array([y]), np.array([z]))[0])
        fy2 = float(gen(level, np.array([y2]), np.array([z]))[0])
        if (y - y2) * (fy - fy2) > gen.monotone_y * (y - y2) ** 2 + tol:
            raise ValueError(f"generator {gen.name} violates its y-monotonicity constant")
        if gen.dy is not None:
            # the difference's own error is far below this tolerance on the box
            h = 1e-6 * (1.0 + abs(y))
            up = float(gen(level, np.array([y + h]), np.array([z]))[0])
            down = float(gen(level, np.array([y - h]), np.array([z]))[0])
            difference = (up - down) / (2.0 * h)
            declared = float(np.broadcast_to(gen.dy(level, y_arr, np.array([z])), (1,))[0])
            if abs(declared - difference) > 1e-6 * (1.0 + abs(difference)) + tol:
                raise ValueError(f"generator {gen.name} declares a wrong y-slope")


def check_contraction(gen: GeneratorSpec, tree: TreeSpace) -> None:
    if gen.monotone_y * tree.dt >= 1.0:
        raise ValueError(
            f"contraction precondition violated: monotone_y*dt = {gen.monotone_y * tree.dt:.3g} >= 1"
        )
    if gen.lipschitz_z * tree.sqrt_dt >= 1.0:
        raise ValueError(
            f"contraction precondition violated: lipschitz_z*sqrt(dt) = "
            f"{gen.lipschitz_z * tree.sqrt_dt:.3g} >= 1"
        )


def implicit_interval_step(
    gen: GeneratorSpec | None,
    level: int,
    cond: np.ndarray,
    z: np.ndarray,
    dt: float,
    floor: np.ndarray | None = None,
    penalty: float = 0.0,
) -> np.ndarray:
    """Solve y = cond + f(level, y, z) dt (+ reflection or penalty) per node.

    The residual y - cond - f(level, y, z) dt is strictly increasing, with slope
    at least 1 - max(0, monotone_y)*dt, so its root is unique and bracketed;
    :func:`_newton_root` finds it by Newton steps on the declared slope
    ``gen.dy`` inside that bracket.  With ``floor`` set, the reflected
    solution max(cond + f dt, floor) is that root clipped to the floor.  With
    a positive ``penalty`` n, the nodes whose root lies below the floor take
    the root of the smooth penalized equation
    (1 + n dt) y = cond + f dt + n dt floor instead.  If the result misses
    the residual tolerance, bisection on the full update is the last resort.
    It stops at the first round that leaves the bracket unchanged at every
    node: a round is a pure function of the bracket, so every later round
    would repeat it and the result is bit-identical to running all 130
    halvings.  With ``gen=None``, meaning f = 0, the update of ``cond`` is the
    root, bit for bit the zero generator's (cond + 0.0 turns -0.0 into +0.0).

    Raises
    ------
    SolverError
        If monotone_y*dt >= 1, or if no route reaches the residual
        tolerance; a NaN residual never does.
    """

    n_dt = penalty * dt

    def drift(values: np.ndarray) -> np.ndarray:
        return cond + (0.0 if gen is None else gen(level, values, z) * dt)

    def drift_slope(values: np.ndarray):
        return 0.0 if gen.dy is None else gen.dy(level, values, z) * dt

    def relax(values: np.ndarray) -> np.ndarray:
        return (values + n_dt * floor) / (1.0 + n_dt)

    def update(values: np.ndarray) -> np.ndarray:
        d = drift(values)
        if penalty > 0.0:
            assert floor is not None
            return np.where(d >= floor, d, relax(d))
        return d if floor is None else np.maximum(d, floor)

    if gen is None:
        return update(cond)
    slope = 1.0 - max(0.0, gen.monotone_y) * dt
    if slope <= 0.0:
        raise SolverError(f"implicit step not solvable at level {level}: monotone_y*dt >= 1")
    scale = max(1.0, float(np.max(np.abs(cond))), float(np.max(np.abs(floor))) if floor is not None else 0.0)
    # a steep generator overflows far outside the bracket, where the candidate
    # is replaced by the midpoint, so overflow must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        y = _newton_root(drift, drift_slope, cond, slope)
        if penalty > 0.0:
            relaxed = _newton_root(
                lambda v: relax(drift(v)), lambda v: drift_slope(v) / (1.0 + n_dt), y, slope
            )
            y = np.where(y < floor, relaxed, y)
        elif floor is not None:
            y = np.maximum(y, floor)
        err = float(np.max(np.abs(y - update(y))))
    if not err <= FIXED_POINT_TOL * scale:
        return _bisect_step(update, cond, slope, level, scale)
    return y


def _newton_root(update, update_slope, start: np.ndarray, slope: float) -> np.ndarray:
    """Root of y - update(y) per node: Newton steps kept inside a bisection bracket.

    ``update_slope`` is the y-derivative of ``update`` (0.0 when unknown,
    which makes each step a fixed-point step), and ``slope`` a lower bound
    on the residual's slope, so start +- (|residual|/slope + 1) brackets the
    root.  Each round moves the bracket to the current iterate by the sign
    of its residual and replaces a candidate outside the bracket (bounds
    included) by the bracket's midpoint.  Where the update's slope is zero
    the candidate is the update itself, so a flat generator ends on
    update(start) bit for bit.  The loop stops once every node's candidate
    repeats its current or its previous iterate, the last-ulp 2-cycle.
    """
    u = update(start)
    width = np.abs(start - u) / slope + 1.0
    lo = start - width
    hi = start + width
    y = prev = start
    for _ in range(130):
        # in place: fewer level-sized temporaries keep a deep sweep's peak memory down
        residual = y - u
        np.copyto(lo, y, where=residual < 0.0)
        np.copyto(hi, y, where=residual > 0.0)
        du = update_slope(y)
        candidate = np.subtract(y, np.divide(residual, 1.0 - du, out=residual), out=residual)
        np.copyto(candidate, u, where=du == 0.0)
        np.copyto(candidate, 0.5 * (lo + hi), where=~((lo <= candidate) & (candidate <= hi)))
        if np.all((candidate == y) | (candidate == prev)):
            return candidate
        prev, y = y, candidate
        u = update(y)
    return y


def _bisect_step(update, start: np.ndarray, slope: float, level: int, scale: float) -> np.ndarray:
    """Root of y - update(y) per node by bisection; ``slope`` > 0 bounds the residual's slope."""
    residual0 = start - update(start)
    width = np.abs(residual0) / slope + 1.0
    lo = start - width
    hi = start + width
    for _ in range(130):
        mid = 0.5 * (lo + hi)
        below = mid - update(mid) <= 0.0
        lo_next = np.where(below, mid, lo)
        hi_next = np.where(below, hi, mid)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            break
        lo, hi = lo_next, hi_next
    y = 0.5 * (lo + hi)
    err = float(np.max(np.abs(y - update(y))))
    if not err <= FIXED_POINT_TOL * scale:
        raise SolverError(f"implicit step failed to converge at level {level} (residual {err:.3e})")
    return y


def backward_sweep(
    tree: TreeSpace,
    terminal: np.ndarray,
    gen: GeneratorSpec | None,
    driver: AdaptedRegulatedProcess | None,
    floor: Sequence[np.ndarray] | None = None,
    point_floor: Sequence[np.ndarray] | None = None,
    penalty: float = 0.0,
) -> SolutionTriple:
    """Backward sweep from the terminal payoff with up to three floors.

    Each level takes the sibling mean and the integrand Z of the next point
    values plus the driver's left jumps, then solves the implicit interval
    step.  ``floor[i]`` constrains Y on (t_i, t_{i+1}): without a penalty Y
    is reflected on it, and the charge up to (floor - E)^+ is booked as the
    predictable left jump at t_{i+1}, the remainder as interval charge.  A
    positive ``penalty`` n replaces that reflection by the linear penalty
    n*dt*(floor - y)^+, which never reflects at left limits, so all of its
    charge is interval charge.  The driver's right jump is then added, and
    ``point_floor[i]`` (one array per level, the terminal one included)
    reflects the point value with a right-jump charge; the payoff must
    dominate its terminal row.  Without floors this is the unreflected
    equation and every charge is zero.  Each level is written into the
    arrays of the returned triple; a charge component that no floor can
    produce stays the read-only zero view of :meth:`KIncrements.zeros`.
    ``gen=None`` is the zero generator and ``driver=None`` the zero driver:
    their terms are the scalar 0.0, which adds as an array of zeros does,
    so the result is bit for bit the one that ``make_generator("zero")``
    and ``AdaptedRegulatedProcess.zeros(tree)`` give.

    Raises
    ------
    ValueError
        If the payoff has the wrong number of leaves or a non-finite entry,
        fails to dominate the terminal point floor, or the generator breaks
        the contraction precondition.
    """
    if gen is not None:
        check_contraction(gen, tree)
    n = tree.depth
    dt = tree.dt
    xi = np.asarray(terminal, dtype=float)
    if xi.shape[0] != tree.n_nodes(n):
        raise ValueError("terminal payoff has the wrong number of leaves")
    if not np.all(np.isfinite(xi)):
        raise ValueError("terminal payoff contains a non-finite entry")
    if point_floor is not None:
        gap = float(np.min(xi - point_floor[n]))
        if gap < 0.0:
            raise ValueError(f"terminal payoff fails to dominate the barrier by {-gap:.3e}")

    value = AdaptedRegulatedProcess.zeros(tree)
    integrand = _level_views(np.zeros((1 << n) - 1), n)
    zero = KIncrements.zeros(tree)
    k = KIncrements(
        tree,
        zero.intervals if floor is None else np.zeros(zero.intervals.size),
        zero.lefts if floor is None or penalty > 0.0 else np.zeros(zero.lefts.size),
        zero.rights if point_floor is None else np.zeros(zero.rights.size),
    )
    value.point[n][:] = xi
    for i in range(n - 1, -1, -1):
        w = value.point[i + 1] + (0.0 if driver is None else driver.delta_minus(i + 1))
        cond = conditional_expectation(tree, w)
        z = integrand[i]
        z[:] = martingale_representation(tree, w)
        level_floor = None if floor is None else floor[i]
        y = implicit_interval_step(gen, i, cond, z, dt, floor=level_floor, penalty=penalty)
        if level_floor is not None:
            total = np.maximum(y - cond - (0.0 if gen is None else gen(i, y, z) * dt), 0.0)
            if penalty > 0.0:
                k.interval[i][:] = total
            else:
                left = np.minimum(np.maximum(level_floor - cond, 0.0), total)
                k.left[i + 1][:] = np.repeat(left, 2)
                np.subtract(total, left, out=k.interval[i])
        value.right[i][:] = y
        up = y + (0.0 if driver is None else driver.delta_plus(i))
        if point_floor is None:
            value.point[i][:] = up
        else:
            np.maximum(point_floor[i] - up, 0.0, out=k.right[i])
            np.maximum(up, point_floor[i], out=value.point[i])
    return SolutionTriple(value=value, integrand=integrand, increments=k)


def solve_bsde(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
) -> SolutionTriple:
    """Backward sweep for the unreflected equation with driver increments.

    Parameters
    ----------
    terminal : array over leaves
    gen : GeneratorSpec
    driver : AdaptedRegulatedProcess
        Finite-variation forcing V; only its jumps act because it is constant
        on open intervals.

    Returns
    -------
    SolutionTriple
        The solution pair with identically zero charges.
    """
    return backward_sweep(driver.tree, terminal, gen, driver)


def dynamics_residual(
    trip: SolutionTriple,
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
) -> float:
    """Largest pathwise defect of the backward dynamics, terminal included.

    Replays every step from the stored fields of ``trip``: the value just
    after t_i against the next point values, the driver's jumps, the charges
    and the noise, and the point value against the right value, the driver's
    right jump and the right-jump charge.
    """
    tree = trip.value.tree
    y = trip.value
    z = trip.integrand
    k = trip.increments
    xi = np.asarray(terminal, dtype=float)

    worst = float(np.max(np.abs(y.point[tree.depth] - xi)))
    for i in range(tree.depth):
        f_val = gen(i, y.right[i], z[i])
        parent_part = f_val * tree.dt + k.interval[i]
        recon = (
            y.point[i + 1]
            + driver.delta_minus(i + 1)
            + k.left[i + 1]
            + np.repeat(parent_part, 2)
            - np.repeat(z[i], 2) * tree.sqrt_dt * tree.edge_signs(i + 1)
        )
        worst = max(worst, float(np.max(np.abs(np.repeat(y.right[i], 2) - recon))))
        point_recon = y.right[i] + driver.delta_plus(i) + k.right[i]
        worst = max(worst, float(np.max(np.abs(y.point[i] - point_recon))))
    return worst


# ----------------------------------------------------------------------
# exponential transform


@dataclass
class TransformedProblem:
    """Data and candidate solution after scaling by exp(a t).

    The candidate solution is the scaled image of the supplied one and solves
    the transformed equation up to a first-order defect in the step size; the
    identity is exact only in continuous time.
    """

    rate: float
    terminal: np.ndarray
    gen: GeneratorSpec
    driver: AdaptedRegulatedProcess
    barrier: AdaptedRegulatedProcess | None
    candidate_value: AdaptedRegulatedProcess | None
    candidate_integrand: list[np.ndarray] | None
    candidate_increments: KIncrements | None


def _time_factors(tree: TreeSpace, rate: float) -> np.ndarray:
    # exp(rate t_i) at every node of levels 0..N, heap-ordered; a field over
    # levels 0..N-1 takes the leading 2**N - 1 entries
    per_level = [float(np.exp(rate * tree.time(i))) for i in range(tree.depth + 1)]
    return np.repeat(per_level, 1 << np.arange(tree.depth + 1))


def _scale_process_by_time(
    process: AdaptedRegulatedProcess, rate: float
) -> AdaptedRegulatedProcess:
    factors = _time_factors(process.tree, rate)
    return AdaptedRegulatedProcess(
        process.tree, process.points * factors, process.rights * factors[: process.rights.size]
    )


def _scale_driver(driver: AdaptedRegulatedProcess, rate: float) -> AdaptedRegulatedProcess:
    """Scale each driver jump by the exponential factor at its own instant."""
    tree = driver.tree
    point: list[np.ndarray] = [driver.point[0].copy()]
    right: list[np.ndarray] = []
    for i in range(tree.depth):
        e_i = float(np.exp(rate * tree.time(i)))
        right.append(point[i] + e_i * driver.delta_plus(i))
        e_next = float(np.exp(rate * tree.time(i + 1)))
        point.append(np.repeat(right[i], 2) + e_next * driver.delta_minus(i + 1))
    return AdaptedRegulatedProcess.from_levels(tree, point, right)


def _scale_increments(k: KIncrements, rate: float) -> KIncrements:
    factors = _time_factors(k.tree, rate)
    short = factors[: k.rights.size]
    return KIncrements(k.tree, k.intervals * short, k.lefts * factors, k.rights * short)


def exponential_transform(
    rate: float,
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess | None = None,
    solution: SolutionTriple | None = None,
) -> TransformedProblem:
    """Map a problem and optionally its solution through y -> exp(a t) y.

    The transformed generator is exp(a t) f(i, exp(-a t) y, exp(-a t) z) - a y
    at level i with t = ``tree.time(i)``, which keeps the z-Lipschitz constant and shifts the y-monotonicity
    constant and the y-slope down by ``rate``.  Driver jumps scale by the
    factor at their own instant; barrier interval values scale by the factor
    at the interval's left end.  The components of ``solution`` are scaled
    the same way (increments of the reflecting process by the factor at the
    instant they charge).  The scaled candidate solves the transformed
    problem up to a first-order defect in the step size.
    """
    tree = driver.tree
    a = float(rate)
    horizon_factor = float(np.exp(a * tree.grid.horizon))
    xi_t = np.asarray(terminal, dtype=float) * horizon_factor

    base_fn = gen.fn
    base_dy = gen.dy

    def transformed_fn(level: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        e = np.exp(a * tree.time(level))
        return e * np.asarray(base_fn(level, y / e, z / e), dtype=float) - a * y

    def transformed_dy(level: int, y: np.ndarray, z: np.ndarray):
        if base_dy is None:
            return -a
        e = np.exp(a * tree.time(level))
        return base_dy(level, y / e, z / e) - a

    gen_t = GeneratorSpec(
        name=f"expshift[{a:g}]:{gen.name}",
        fn=transformed_fn,
        lipschitz_z=gen.lipschitz_z,
        monotone_y=gen.monotone_y - a,
        dy=transformed_dy,
    )
    driver_t = _scale_driver(driver, a)
    barrier_t = _scale_process_by_time(barrier, a) if barrier is not None else None

    value_t = integrand_t = increments_t = None
    if solution is not None:
        value_t = _scale_process_by_time(solution.value, a)
        integrand_t = [
            solution.integrand[i] * float(np.exp(a * tree.time(i))) for i in range(tree.depth)
        ]
        increments_t = _scale_increments(solution.increments, a)
    return TransformedProblem(
        rate=a,
        terminal=xi_t,
        gen=gen_t,
        driver=driver_t,
        barrier=barrier_t,
        candidate_value=value_t,
        candidate_integrand=integrand_t,
        candidate_increments=increments_t,
    )
