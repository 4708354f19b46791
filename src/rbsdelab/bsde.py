"""The package's one backward sweep, and the unreflected equation it solves.

The interval step is implicit in y: each level i solves the scalar equation
y = E + f(i, y, z) dt per node, whose residual is strictly increasing when
the generator's one-sided y-slope times the step stays below one, by Newton
steps on the generator's declared y-slope inside a bisection bracket, started
at the closed-form root for a generator declared cubic in y, or in closed
form for a generator declared affine in y.  Left jumps of the driver are
folded into the conditional-expectation input, right jumps are added back at
the point, and the integrand Z comes from the exact one-step martingale
representation.  :func:`backward_sweep` optionally
reflects on a floor inside the intervals (or penalizes below it) and on a
floor at the points; the unreflected, reflected and penalized solvers and the
Snell envelope are all calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tree_space import AdaptedRegulatedProcess, KIncrements, TreeSpace, _heap_array, _level_views
from .tree_space import conditional_expectation, martingale_representation

__all__ = [
    "SolverError",
    "GeneratorSpec",
    "SolutionTriple",
    "generator_values",
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
    fixed-point step: exact for drivers that ignore y.  ``affine`` declares
    f(i, y, z) = f(i, 0, z) + dy(i, z) y, so that ``dy`` does not depend on
    y, and f does not depend on y at all when ``dy`` is ``None``; the
    implicit step then evaluates f once and takes its root in closed form.
    ``cubic`` declares f(i, y, z) = cubic y**3 + f(i, 0, z) + dy(i, 0, z) y
    with a coefficient cubic <= 0 that depends on nothing; a nonzero one
    needs ``dy`` and excludes ``affine``.  The implicit step then starts its
    Newton steps at the closed-form root of that cubic.
    """

    name: str
    fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_z: float
    monotone_y: float
    dy: Callable[[int, np.ndarray, np.ndarray], np.ndarray | float] | None = None
    affine: bool = False
    cubic: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.cubic) and self.cubic <= 0.0):
            raise ValueError(f"generator {self.name} declares cubic = {self.cubic!r}, not <= 0")
        if self.cubic != 0.0 and self.affine:
            raise ValueError(f"generator {self.name} cannot be declared both affine and cubic")
        if self.cubic != 0.0 and self.dy is None:
            raise ValueError(f"generator {self.name} is declared cubic but has no dy")

    def __call__(self, level: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(level, y, z), dtype=float)


@dataclass
class SolutionTriple:
    """Value process Y, representation integrand Z, and reflection charges K.

    ``integrands`` holds Z(t_i) over levels 0..N-1 heap-ordered like every
    adapted field, node k of level i at 2**i - 1 + k, used as given;
    ``integrand`` is its tuple of per-level views.
    """

    value: AdaptedRegulatedProcess
    integrands: np.ndarray
    increments: KIncrements
    integrand: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.value.tree.depth
        self.integrands = _heap_array(self.integrands, n, "integrand")
        self.integrand = _level_views(self.integrands, n)


def generator_values(gen: GeneratorSpec, trip: SolutionTriple) -> np.ndarray:
    """f(i, Y(t_i+), Z(t_i)) at every interval node, heap-ordered like ``trip.integrands``.

    One generator call per level, written through a level view.
    """
    n = trip.value.tree.depth
    values = np.empty((1 << n) - 1)
    for i, level in enumerate(_level_views(values, n)):
        level[:] = gen(i, trip.value.right[i], trip.integrand[i])
    return values


def make_generator(spec: str) -> GeneratorSpec:
    """Build a registry generator from its textual name.

    Supported names: ``zero``, ``constant:<c>``, ``linear:<a>,<b>`` meaning
    f = a*y + b*z, and ``monotone_cubic:<mu>`` meaning f = -y**3 + mu*y,
    evaluated as -(y*y*y) + mu*y.  The linear and cubic ones declare their
    y-slope; all but the cubic are declared affine, and the cubic is declared
    cubic with coefficient -1.  Every coefficient
    must be a finite number.  Node-dependent tables are built with
    :func:`table_generator` instead.
    """
    name = spec.strip()
    if name == "zero":
        return GeneratorSpec("zero", lambda level, y, z: np.zeros_like(y), 0.0, 0.0, affine=True)
    if name.startswith("constant:"):
        (c,) = _coefficients(name, 1)
        return GeneratorSpec(name, lambda level, y, z: np.full_like(y, c), 0.0, 0.0, affine=True)
    if name.startswith("linear:"):
        a, b = _coefficients(name, 2)
        return GeneratorSpec(
            name, lambda level, y, z: a * y + b * z, abs(b), a, lambda level, y, z: a, affine=True
        )
    if name.startswith("monotone_cubic:"):
        (mu,) = _coefficients(name, 1)
        return GeneratorSpec(
            name,
            lambda level, y, z: -(y * y * y) + mu * y,
            0.0,
            mu,
            lambda level, y, z: mu - 3.0 * y * y,
            cubic=-1.0,
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
    ignored, so both regularity constants are zero and the driver is
    declared affine (flat).
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

    return GeneratorSpec(name, fn, 0.0, 0.0, affine=True)


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
        y-monotonicity bound beyond ``tol``, a declared y-slope differs
        from a central difference of ``fn``, or an affine or cubic
        declaration fails: a flat driver's value, an affine driver's y-slope
        or a cubic driver's f - f(0) - dy(0) y - cubic y**3 moves with y.
    """

    def at(fn, level: int, y: float, z: float) -> float:
        return float(np.broadcast_to(fn(level, np.array([y]), np.array([z])), (1,))[0])

    for _ in range(samples):
        level = int(rng.choice(levels))
        y, y2, z, z2 = rng.uniform(-box, box, size=4)
        fy, fy2 = at(gen, level, y, z), at(gen, level, y2, z)
        if abs(fy - at(gen, level, y, z2)) > gen.lipschitz_z * abs(z - z2) + tol:
            raise ValueError(f"generator {gen.name} violates its z-Lipschitz constant")
        if (y - y2) * (fy - fy2) > gen.monotone_y * (y - y2) ** 2 + tol:
            raise ValueError(f"generator {gen.name} violates its y-monotonicity constant")
        if gen.affine and gen.dy is None and abs(fy - fy2) > tol:
            raise ValueError(f"generator {gen.name} is declared flat but depends on y")
        if gen.dy is not None:
            # the difference's own error is far below this tolerance on the box
            h = 1e-6 * (1.0 + abs(y))
            difference = (at(gen, level, y + h, z) - at(gen, level, y - h, z)) / (2.0 * h)
            declared = at(gen.dy, level, y, z)
            if abs(declared - difference) > 1e-6 * (1.0 + abs(difference)) + tol:
                raise ValueError(f"generator {gen.name} declares a wrong y-slope")
            if gen.affine and abs(declared - at(gen.dy, level, y2, z)) > tol:
                raise ValueError(f"generator {gen.name} is declared affine but its y-slope moves")
        if gen.cubic != 0.0:
            # f - f(0) - dy(0) y - cubic y**3 at y minus the same at y2
            b = at(gen.dy, level, 0.0, z)
            moved = fy - fy2 - b * (y - y2) - gen.cubic * (y**3 - y2**3)
            if abs(moved) > 1e-12 * (abs(fy) + abs(fy2)) + tol:
                raise ValueError(f"generator {gen.name} declares a wrong cubic coefficient")


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
) -> tuple[np.ndarray, np.ndarray | float]:
    """Solve y = cond + f(level, y, z) dt (+ reflection or penalty) per node.

    The residual y - cond - f(level, y, z) dt is strictly increasing, with slope
    at least 1 - max(0, monotone_y)*dt, so its root is unique and bracketed;
    :func:`_newton_root` finds it by Newton steps on the declared slope
    ``gen.dy`` inside that bracket.  With ``floor`` set, the reflected
    solution max(cond + f dt, floor) is that root clipped to the floor.  With
    a positive ``penalty`` n, the nodes whose root lies below the floor take
    the root of the smooth penalized equation
    (1 + n dt) y = cond + f dt + n dt floor instead.  A generator declared
    ``affine`` is evaluated once, at ``cond``, and both roots are taken in
    closed form: the update itself where the slope is zero, which is where
    the Newton steps end for a flat generator, bit for bit.  For a generator
    declared ``cubic`` the Newton steps start at the closed-form roots of
    its cubic, which f and ``dy`` at y = 0 determine.  If the result
    misses the residual tolerance, bisection on the full update is the last
    resort.  With ``gen=None``, meaning f = 0, the update of ``cond`` is the
    root, bit for bit the zero generator's (cond + 0.0 turns -0.0 into +0.0).

    Returns
    -------
    y, f
        The root and f(level, y, z) evaluated there by the residual check,
        so the caller need not evaluate the generator again; f is the
        scalar 0.0 for ``gen=None``.

    Raises
    ------
    SolverError
        If monotone_y*dt >= 1, or if no route reaches the residual
        tolerance; a NaN residual never does.
    """

    n_dt = penalty * dt

    def drift(values: np.ndarray) -> np.ndarray:
        return cond + gen(level, values, z) * dt

    def drift_slope(values: np.ndarray):
        return 0.0 if gen.dy is None else gen.dy(level, values, z) * dt

    def relax(values: np.ndarray) -> np.ndarray:
        return (values + n_dt * floor) / (1.0 + n_dt)

    # project may overwrite d, and residual_at works in place: with f kept
    # for the caller, fewer temporaries keep a deep sweep's peak memory down
    def project(d: np.ndarray) -> np.ndarray:
        if penalty > 0.0:
            assert floor is not None
            return np.where(d >= floor, d, relax(d))
        return d if floor is None else np.maximum(d, floor, out=d)

    def residual_at(values: np.ndarray) -> tuple[np.ndarray, float]:
        f = gen(level, values, z)
        gap = np.multiply(f, dt, out=np.empty_like(values))
        gap += cond
        gap = project(gap)
        np.subtract(values, gap, out=gap)
        return f, float(np.abs(gap, out=gap).max())

    if gen is None:
        return project(cond + 0.0), 0.0
    slope = 1.0 - max(0.0, gen.monotone_y) * dt
    if slope <= 0.0:
        raise SolverError(f"implicit step not solvable at level {level}: monotone_y*dt >= 1")
    scale = max(1.0, float(np.abs(cond).max()))
    if floor is not None:
        scale = max(scale, float(np.abs(floor).max()))
    # a steep generator overflows far outside the bracket, where the candidate
    # is replaced by the midpoint, so overflow must not warn; a slope declared
    # wrongly may divide by zero, which the residual check then rejects
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if gen.affine:
            y, relaxed = _affine_roots(drift(cond), drift_slope(cond), cond, floor, n_dt)
        else:
            start, relaxed_start = cond, None
            if gen.cubic != 0.0:
                start, relaxed_start = _cubic_seeds(
                    gen.cubic * dt, drift, drift_slope, cond, floor, n_dt
                )
            y = _newton_root(drift, drift_slope, start, slope)
            if penalty > 0.0:
                relaxed = _newton_root(
                    lambda v: relax(drift(v)),
                    lambda v: drift_slope(v) / (1.0 + n_dt),
                    y if relaxed_start is None else relaxed_start,
                    slope,
                )
        if penalty > 0.0:
            y = np.where(y < floor, relaxed, y)
        elif floor is not None:
            y = np.maximum(y, floor)
        f, err = residual_at(y)
    if not err <= FIXED_POINT_TOL * scale:
        y = _bisect_step(lambda v: project(drift(v)), cond, slope)
        f, err = residual_at(y)
        if not err <= FIXED_POINT_TOL * scale:
            raise SolverError(
                f"implicit step failed to converge at level {level} (residual {err:.3e})"
            )
    return y, f


def _affine_roots(u: np.ndarray, du, start: np.ndarray, floor: np.ndarray | None, n_dt: float):
    """Closed-form roots for the update u + du (y - start), plain and penalized.

    The root of y = u + du (y - start) is one Newton step from ``start``.
    For ``n_dt`` > 0, (1 + n_dt) y = u + du (y - start) + n_dt floor is
    solved directly: a Newton step from the first root loses the digits of
    a root much smaller than ``start``.  Where du is zero both come from u,
    as the Newton steps of :func:`_newton_root` do for a flat update.
    """
    flat = du == 0.0
    y = np.where(flat, u, start - (start - u) / (1.0 - du))
    if n_dt == 0.0:
        return y, None
    exact = (u - du * start + n_dt * floor) / (1.0 + n_dt - du)
    return y, np.where(flat, (u + n_dt * floor) / (1.0 + n_dt), exact)


def _cubic_seeds(a_dt: float, update, update_slope, start: np.ndarray, floor, n_dt: float):
    """Closed-form roots of y = update(y) for an update cubic in y, plain and penalized.

    ``update`` and ``update_slope`` are evaluated once, at y = 0, which
    gives the update as u0 + b_dt y + a_dt y**3 with ``a_dt`` < 0.  The
    plain root solves -a_dt y**3 + (1 - b_dt) y - u0 = 0, the penalized one
    -a_dt y**3 + (1 + n_dt - b_dt) y - (u0 + n_dt floor) = 0 (``None`` for
    ``n_dt`` = 0).  Divided by -a_dt each is y**3 + p y + q = 0, whose one
    real root for p > 0 is -2 r sinh(asinh(1.5 q / (p r)) / 3) with
    r = sqrt(p / 3).  Each seed is rounded to 27 significant bits: the last
    bits of sinh and asinh differ between numpy builds, Newton steps from
    starts one ulp apart can stop one ulp apart, and one Newton step
    restores the bits dropped.  Where a seed is not finite it is ``start``.
    """
    zero = np.zeros_like(start)
    u0, b_dt = update(zero), update_slope(zero)

    def root(linear, constant):
        p = linear / -a_dt
        q = constant / a_dt
        r = np.sqrt(p / 3.0)
        y = -2.0 * r * np.sinh(np.arcsinh(1.5 * q / (p * r)) / 3.0)
        split = y * 67108865.0  # 2**26 + 1: Veltkamp's split keeps the high 27 bits
        y = split - (split - y)
        return np.where(np.isfinite(y), y, start)

    relaxed = None if n_dt == 0.0 else root(1.0 + n_dt - b_dt, u0 + n_dt * floor)
    return root(1.0 - b_dt, u0), relaxed


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
        inside = (lo <= candidate) & (candidate <= hi)
        if not inside.all():
            np.copyto(candidate, 0.5 * (lo + hi), where=~inside)
        if ((candidate == y) | (candidate == prev)).all():
            return candidate
        prev, y = y, candidate
        u = update(y)
    return y


def _bisect_step(update, start: np.ndarray, slope: float) -> np.ndarray:
    """Root of y - update(y) per node by bisection; ``slope`` > 0 bounds the residual's slope.

    It stops at the first round that leaves the bracket unchanged at every
    node: a round is a pure function of the bracket, so every later round
    would repeat it and the result is bit-identical to running all 130
    halvings.
    """
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
    return 0.5 * (lo + hi)


def backward_sweep(
    tree: TreeSpace,
    terminal: np.ndarray,
    gen: GeneratorSpec | None,
    driver: AdaptedRegulatedProcess | None,
    floor: np.ndarray | None = None,
    point_floor: np.ndarray | None = None,
    penalty: float = 0.0,
) -> SolutionTriple:
    """Backward sweep from the terminal payoff with up to three floors.

    Each level takes the sibling mean and the integrand Z of the next point
    values plus the driver's left jumps, then solves the implicit interval
    step.  The floors are heap-ordered like every field: ``floor`` over the
    intervals constrains Y on (t_i, t_{i+1}).  Without a penalty Y is
    reflected on it, and the charge up to (floor - E)^+ is booked as the
    predictable left jump at t_{i+1}, the remainder as interval charge.  A
    positive ``penalty`` n replaces that reflection by the linear penalty
    n*dt*(floor - y)^+, which never reflects at left limits, so all of its
    charge is interval charge.  The driver's right jump is then added, and
    ``point_floor`` over the points, the terminal level included, reflects
    the point value with a right-jump charge; the payoff must dominate its
    terminal level.  Without floors this is the unreflected equation and
    every charge is zero.  Each level is written into the arrays of the
    returned triple; a charge component that no floor can produce stays the
    read-only zero view of :meth:`KIncrements.zeros`.
    ``gen=None`` is the zero generator and ``driver=None`` the zero driver:
    their terms are the scalar 0.0, which adds as an array of zeros does,
    so the result is bit for bit the one that ``make_generator("zero")``
    and ``AdaptedRegulatedProcess.zeros(tree)`` give.

    Raises
    ------
    ValueError
        If the payoff has the wrong number of leaves or a non-finite entry,
        fails to dominate the terminal point floor, a floor has the wrong
        number of heap-ordered entries or a NaN or +inf entry (-inf is a
        floor that does not bind), or the generator breaks the contraction
        precondition.
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
    if floor is not None:
        floor = _level_views(_heap_array(floor, n, "floor", floor=True), n)
    if point_floor is not None:
        point_floor = _level_views(_heap_array(point_floor, n + 1, "point floor", floor=True), n + 1)
    if point_floor is not None:
        gap = float(np.min(xi - point_floor[n]))
        if gap < 0.0:
            raise ValueError(f"terminal payoff fails to dominate the barrier by {-gap:.3e}")

    value = AdaptedRegulatedProcess.zeros(tree)
    integrands = np.zeros((1 << n) - 1)
    integrand = _level_views(integrands, n)
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
        y, f = implicit_interval_step(gen, i, cond, z, dt, floor=level_floor, penalty=penalty)
        if level_floor is not None:
            total = np.maximum(y - cond - f * dt, 0.0)
            if penalty > 0.0:
                k.interval[i][:] = total
            else:
                left = np.minimum(np.maximum(level_floor - cond, 0.0), total)
                k.left[i + 1][:] = np.repeat(left, 2)
                np.subtract(total, left, out=k.interval[i])
        # the next level's step is where a deep sweep peaks; f must not live through it
        del f
        value.right[i][:] = y
        up = y + (0.0 if driver is None else driver.delta_plus(i))
        if point_floor is None:
            value.point[i][:] = up
        else:
            np.maximum(point_floor[i] - up, 0.0, out=k.right[i])
            np.maximum(up, point_floor[i], out=value.point[i])
    return SolutionTriple(value=value, integrands=integrands, increments=k)


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
    f = _level_views(generator_values(gen, trip), tree.depth)

    worst = float(np.max(np.abs(y.point[tree.depth] - xi)))
    for i in range(tree.depth):
        parent_part = f[i] * tree.dt + k.interval[i]
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

    The candidate is the scaled image of the supplied solution and solves
    the transformed equation up to a first-order defect in the step size; the
    identity is exact only in continuous time.
    """

    terminal: np.ndarray
    gen: GeneratorSpec
    driver: AdaptedRegulatedProcess
    barrier: AdaptedRegulatedProcess | None
    candidate: SolutionTriple | None


def _time_factors(tree: TreeSpace, rate: float) -> np.ndarray:
    # exp(rate t_i) at every node of levels 0..N, heap-ordered
    per_level = [float(np.exp(rate * tree.time(i))) for i in range(tree.depth + 1)]
    return np.repeat(per_level, 1 << np.arange(tree.depth + 1))


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
    at level i with t = ``tree.time(i)``, which keeps the z-Lipschitz constant
    and the affine declaration and shifts the y-monotonicity constant and the
    y-slope down by ``rate``.  It declares no cubic coefficient: the image of
    cubic y**3 is cubic exp(-2 a t) y**3, which moves with the level.  Driver
    jumps scale by the factor at their own instant; barrier interval values
    scale by the factor at the interval's left end.  The components of
    ``solution`` are scaled the same way (increments of the reflecting
    process by the factor at the instant they charge).  The scaled candidate
    solves the transformed problem up to a first-order defect in the step
    size.
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
        affine=gen.affine,
    )
    # every field of levels 0..N-1 takes the leading 2**N - 1 factors
    factors = _time_factors(tree, a)
    short = factors[: (1 << tree.depth) - 1]

    def scaled(process: AdaptedRegulatedProcess) -> AdaptedRegulatedProcess:
        return AdaptedRegulatedProcess(tree, process.points * factors, process.rights * short)

    candidate = None
    if solution is not None:
        k = solution.increments
        candidate = SolutionTriple(
            scaled(solution.value),
            solution.integrands * short,
            KIncrements(tree, k.intervals * short, k.lefts * factors, k.rights * short),
        )
    return TransformedProblem(
        terminal=xi_t,
        gen=gen_t,
        driver=_scale_driver(driver, a),
        barrier=None if barrier is None else scaled(barrier),
        candidate=candidate,
    )
