"""The package's one backward sweep, and the unreflected equation it solves.

The interval step is implicit in y: each level solves the scalar fixed point
y = E + f(t, y, z) dt per node, which is contractive when the generator's
y-variation over a step stays below one.  Left jumps of the driver are folded
into the conditional-expectation input, right jumps are added back at the
point, and the integrand Z comes from the exact one-step martingale
representation.  :func:`backward_sweep` optionally reflects on a floor
inside the intervals (or penalizes below it) and on a floor at the points;
the unreflected, reflected and penalized solvers and the Snell envelope are
all calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tree_space import AdaptedRegulatedProcess, KIncrements, TreeSpace

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
FIXED_POINT_MAX_ITER = 100


class SolverError(RuntimeError):
    """Numerical failure inside a backward sweep."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Driver f(t, y, z) with its declared regularity constants.

    ``fn`` must accept scalar t and numpy arrays y, z of a common shape and
    return an array of that shape.  ``lipschitz_z`` bounds |f(t,y,z)-f(t,y,z')|
    by a multiple of |z-z'|; ``monotone_y`` bounds (y-y')(f(t,y,z)-f(t,y',z))
    by a multiple of (y-y')**2 and may be negative.
    """

    name: str
    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_z: float
    monotone_y: float

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, y, z), dtype=float)


@dataclass
class SolutionTriple:
    """Value process, representation integrand, and reflection charges."""

    value: AdaptedRegulatedProcess
    integrand: list[np.ndarray]
    increments: KIncrements


def make_generator(spec: str) -> GeneratorSpec:
    """Build a registry generator from its textual name.

    Supported names: ``zero``, ``constant:<c>``, ``linear:<a>,<b>`` meaning
    f = a*y + b*z, and ``monotone_cubic:<mu>`` meaning f = -y**3 + mu*y.
    Node-dependent tables are built with :func:`table_generator` instead.
    """
    name = spec.strip()
    if name == "zero":
        return GeneratorSpec("zero", lambda t, y, z: np.zeros_like(y), 0.0, 0.0)
    if name.startswith("constant:"):
        c = float(name.split(":", 1)[1])
        return GeneratorSpec(name, lambda t, y, z: np.full_like(y, c), 0.0, 0.0)
    if name.startswith("linear:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError(f"linear generator needs two coefficients, got {spec!r}")
        a, b = float(parts[0]), float(parts[1])
        return GeneratorSpec(name, lambda t, y, z: a * y + b * z, abs(b), a)
    if name.startswith("monotone_cubic:"):
        mu = float(name.split(":", 1)[1])
        return GeneratorSpec(name, lambda t, y, z: -(y ** 3) + mu * y, 0.0, mu)
    raise ValueError(f"unknown generator {spec!r}")


def table_generator(
    tree: TreeSpace, rows: list[np.ndarray], name: str = "custom-table"
) -> GeneratorSpec:
    """Frozen per-node driver given by one row per interval level.

    ``rows[i]`` holds the interval value of f on (t_i, t_{i+1}) per node (a
    scalar row broadcasts).  Evaluation ignores y and z, so both regularity
    constants are zero.  The lookup keys on t, which must be a grid time.
    """
    dt = tree.dt
    frozen = []
    for i in range(tree.depth):
        row = np.asarray(rows[i], dtype=float).reshape(-1)
        if row.shape[0] == 1:
            row = np.full(tree.n_nodes(i), row[0])
        if row.shape[0] != tree.n_nodes(i):
            raise ValueError(f"table row {i} must have {tree.n_nodes(i)} entries")
        frozen.append(row)

    def fn(t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        level = int(round(t / dt))
        if not 0 <= level < len(frozen) or abs(level * dt - t) > 1e-9:
            raise ValueError(f"table generator evaluated off-grid at t={t}")
        row = frozen[level]
        if np.shape(y) != row.shape:
            raise ValueError("table generator evaluated with a mismatched level array")
        return row.copy()

    return GeneratorSpec(name, fn, 0.0, 0.0)


def validate_generator(
    gen: GeneratorSpec,
    rng: np.random.Generator,
    samples: int = 64,
    t_values: tuple[float, ...] = (0.0,),
    box: float = 3.0,
    tol: float = 1e-9,
) -> None:
    """Check the declared constants on sampled triples.

    Raises
    ------
    ValueError
        If a sampled pair violates the z-Lipschitz bound or the one-sided
        y-monotonicity bound beyond ``tol``.
    """
    for _ in range(samples):
        t = float(rng.choice(t_values))
        y, y2, z, z2 = rng.uniform(-box, box, size=4)
        y_arr = np.array([y])
        fz = float(gen(t, y_arr, np.array([z]))[0])
        fz2 = float(gen(t, y_arr, np.array([z2]))[0])
        if abs(fz - fz2) > gen.lipschitz_z * abs(z - z2) + tol:
            raise ValueError(f"generator {gen.name} violates its z-Lipschitz constant")
        fy = float(gen(t, np.array([y]), np.array([z]))[0])
        fy2 = float(gen(t, np.array([y2]), np.array([z]))[0])
        if (y - y2) * (fy - fy2) > gen.monotone_y * (y - y2) ** 2 + tol:
            raise ValueError(f"generator {gen.name} violates its y-monotonicity constant")


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
    gen: GeneratorSpec,
    t: float,
    cond: np.ndarray,
    z: np.ndarray,
    dt: float,
    floor: np.ndarray | None = None,
    penalty: float = 0.0,
) -> np.ndarray:
    """Solve y = cond + f(t, y, z) dt (+ reflection or penalty) per node.

    With ``floor`` set, the update is clipped to the floor, giving the
    reflected solution max(cond + f dt, floor).  With a positive ``penalty``
    n, the linear penalty n*dt*(floor - y)^+ is absorbed in closed form.
    Fixed-point iteration handles the contractive case; when the local slope
    of f in y is too steep for that, the solver falls back to bisection on
    the residual y - update(y), which is strictly increasing with slope at
    least 1 - max(0, monotone_y)*dt, so the root is unique and bracketed.
    Bisection stops at the first round that leaves the bracket unchanged at
    every node: a round is a pure function of the bracket, so every later
    round would repeat it and the result is bit-identical to running all
    130 halvings.

    Raises
    ------
    SolverError
        If neither route reaches the residual tolerance; a NaN residual
        never does.
    """

    def update(values: np.ndarray) -> np.ndarray:
        drift = cond + gen(t, values, z) * dt
        if penalty > 0.0:
            assert floor is not None
            relaxed = (drift + penalty * dt * floor) / (1.0 + penalty * dt)
            return np.where(drift >= floor, drift, relaxed)
        if floor is not None:
            return np.maximum(drift, floor)
        return drift

    start = cond.copy()
    scale = max(1.0, float(np.max(np.abs(cond))), float(np.max(np.abs(floor))) if floor is not None else 0.0)
    y = start
    prev_err = np.inf
    for round_ in range(FIXED_POINT_MAX_ITER):
        # divergence here is expected for steep generators and triggers the
        # bisection fallback, so overflow must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            y_next = update(y)
        if not np.all(np.isfinite(y_next)):
            break
        err = float(np.max(np.abs(y_next - y)))
        y = y_next
        if err <= FIXED_POINT_TOL * scale:
            return y
        if round_ >= 8 and err >= prev_err:
            break
        prev_err = err
    return _bisect_step(update, gen, start, dt, t, scale)


def _bisect_step(update, gen: GeneratorSpec, start: np.ndarray, dt: float, t: float, scale: float) -> np.ndarray:
    slope = 1.0 - max(0.0, gen.monotone_y) * dt
    if slope <= 0.0:
        raise SolverError(f"implicit step not solvable at t={t:.6g}: monotone_y*dt >= 1")
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
        raise SolverError(f"implicit step failed to converge at t={t:.6g} (residual {err:.3e})")
    return y


def backward_sweep(
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    floor: list[np.ndarray] | None = None,
    point_floor: list[np.ndarray] | None = None,
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
    equation and every charge is zero.

    Raises
    ------
    ValueError
        If the payoff has the wrong number of leaves, fails to dominate the
        terminal point floor, or the generator breaks the contraction
        precondition.
    """
    tree = driver.tree
    check_contraction(gen, tree)
    n = tree.depth
    dt = tree.dt
    xi = np.asarray(terminal, dtype=float)
    if xi.shape[0] != tree.n_nodes(n):
        raise ValueError("terminal payoff has the wrong number of leaves")
    if point_floor is not None:
        gap = float(np.min(xi - point_floor[n]))
        if gap < 0.0:
            raise ValueError(f"terminal payoff fails to dominate the barrier by {-gap:.3e}")

    point: list[np.ndarray | None] = [None] * (n + 1)
    right: list[np.ndarray | None] = [None] * n
    integrand: list[np.ndarray | None] = [None] * n
    k = KIncrements.zeros(tree)
    point[n] = xi.copy()
    for i in range(n - 1, -1, -1):
        w = point[i + 1] + driver.delta_minus(i + 1)
        cond = w.reshape(-1, 2).mean(axis=1)
        z = (w[1::2] - w[0::2]) / (2.0 * tree.sqrt_dt)
        t = tree.time(i)
        level_floor = None if floor is None else floor[i]
        y = implicit_interval_step(gen, t, cond, z, dt, floor=level_floor, penalty=penalty)
        if level_floor is not None:
            total = np.maximum(y - cond - gen(t, y, z) * dt, 0.0)
            if penalty > 0.0:
                k.interval[i] = total
            else:
                left = np.minimum(np.maximum(level_floor - cond, 0.0), total)
                k.left[i + 1] = np.repeat(left, 2)
                k.interval[i] = total - left
        integrand[i] = z
        right[i] = y
        up = y + driver.delta_plus(i)
        if point_floor is None:
            point[i] = up
        else:
            k.right[i] = np.maximum(point_floor[i] - up, 0.0)
            point[i] = np.maximum(up, point_floor[i])
    value = AdaptedRegulatedProcess(tree, point, right)
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
    return backward_sweep(terminal, gen, driver)


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
        t = tree.time(i)
        f_val = np.asarray(gen(t, y.right[i], z[i]), dtype=float)
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


def _scale_process_by_time(
    process: AdaptedRegulatedProcess, rate: float
) -> AdaptedRegulatedProcess:
    tree = process.tree
    factors = [float(np.exp(rate * tree.time(i))) for i in range(tree.depth + 1)]
    point = [process.point[i] * factors[i] for i in range(tree.depth + 1)]
    right = [process.right[i] * factors[i] for i in range(tree.depth)]
    return AdaptedRegulatedProcess(tree, point, right)


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
    return AdaptedRegulatedProcess(tree, point, right)


def _scale_increments(k: KIncrements, rate: float) -> KIncrements:
    tree = k.tree
    factor = [float(np.exp(rate * tree.time(i))) for i in range(tree.depth + 1)]
    interval = [k.interval[i] * factor[i] for i in range(tree.depth)]
    left = [k.left[i] * factor[i] for i in range(tree.depth + 1)]
    right = [k.right[i] * factor[i] for i in range(tree.depth)]
    return KIncrements(tree, interval, left, right)


def exponential_transform(
    rate: float,
    terminal: np.ndarray,
    gen: GeneratorSpec,
    driver: AdaptedRegulatedProcess,
    barrier: AdaptedRegulatedProcess | None = None,
    solution: SolutionTriple | None = None,
) -> TransformedProblem:
    """Map a problem and optionally its solution through y -> exp(a t) y.

    The transformed generator is exp(a t) f(t, exp(-a t) y, exp(-a t) z) - a y,
    which keeps the z-Lipschitz constant and shifts the y-monotonicity
    constant down by ``rate``.  Driver jumps scale by the factor at their own
    instant; barrier interval values scale by the factor at the interval's
    left end.  The components of ``solution`` are scaled the same way
    (increments of the reflecting process by the factor at the instant they
    charge).  The scaled candidate solves
    the transformed problem up to a first-order defect in the step size.
    """
    tree = driver.tree
    a = float(rate)
    horizon_factor = float(np.exp(a * tree.grid.horizon))
    xi_t = np.asarray(terminal, dtype=float) * horizon_factor

    base_fn = gen.fn

    def transformed_fn(t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        e = np.exp(a * t)
        return e * np.asarray(base_fn(t, y / e, z / e), dtype=float) - a * y

    gen_t = GeneratorSpec(
        name=f"expshift[{a:g}]:{gen.name}",
        fn=transformed_fn,
        lipschitz_z=gen.lipschitz_z,
        monotone_y=gen.monotone_y - a,
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
