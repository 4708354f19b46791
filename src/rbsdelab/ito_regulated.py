"""Pathwise change-of-variables checks for discretized regulated paths.

A path is sampled three times around each grid instant: the point value, the
value just after (right jump applied), and the value just before the next
point (continuous increment applied).  Left jumps close the interval.  The
second-order expansion of f along such a path splits into Stieltjes sums
with left-endpoint integrands, a squared-increment surrogate for the
continuous quadratic variation, and two jump-correction series, one for each
jump side.  The identities here are exact for quadratic f and products, and
first-order accurate otherwise; the module computes each displayed term
separately and reports the unexplained remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid_path import TimeGrid

__all__ = [
    "DiscreteSemimartingalePath",
    "SmoothFunctionSpec",
    "make_function",
    "check_consistency",
    "ito_residual",
    "product_residual",
    "power_residual",
    "power_jump_terms",
    "jump_term_bounds",
    "cor4_inequality_check",
    "random_path",
    "random_path_away_from_zero",
    "serialize_path_csv",
    "parse_path_csv",
]

DIMENSION_CAP = 3
CONSISTENCY_TOL = 1e-6


@dataclass
class DiscreteSemimartingalePath:
    """Vector path with continuous increments and two-sided jumps.

    ``cont[i]`` moves the path across the open interval (t_i, t_{i+1});
    ``left_jumps[i]`` is applied on arrival at t_i (zero at i = 0);
    ``right_jumps[i]`` immediately after t_i (zero at i = steps).  The three
    samples around instant i are point, point + right jump, and the next
    left limit.
    """

    grid: TimeGrid
    x0: np.ndarray
    cont: np.ndarray
    left_jumps: np.ndarray
    right_jumps: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.steps
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        d = self.x0.shape[0]
        if not 1 <= d <= DIMENSION_CAP:
            raise ValueError(f"dimension must be between 1 and {DIMENSION_CAP}, got {d}")
        self.cont = np.asarray(self.cont, dtype=float).reshape(n, d)
        self.left_jumps = np.asarray(self.left_jumps, dtype=float).reshape(n + 1, d)
        self.right_jumps = np.asarray(self.right_jumps, dtype=float).reshape(n + 1, d)
        for name in ("x0", "cont", "left_jumps", "right_jumps"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(self.left_jumps[0] != 0.0):
            raise ValueError("no left jump can occur at time zero")
        if np.any(self.right_jumps[n] != 0.0):
            raise ValueError("no right jump can occur at the horizon")

    @property
    def dimension(self) -> int:
        return self.x0.shape[0]

    def _samples(self) -> np.ndarray:
        """Left-limit, point and right values per instant, shape (steps+1, 3, d).

        One running sum over the interleaved increments x0, dminus_0,
        dplus_0, c_0, dminus_1, dplus_1, c_1, ...: the additions of a
        step-by-step walk, in its order.  The two jumps that must be zero,
        dminus_0 and dplus_N, enter as -0.0, which leaves any value bit for
        bit as it is; so the point at 0 is x0 and the right value at the
        horizon is the terminal point.
        """
        n = self.grid.steps
        steps = np.empty((n + 1, 3, self.dimension))
        steps[0, 0] = self.x0
        steps[1:, 0] = self.cont
        steps[:, 1] = self.left_jumps
        steps[:, 2] = self.right_jumps
        steps[0, 1] = steps[n, 2] = -0.0
        return np.cumsum(steps.reshape(-1, self.dimension), axis=0).reshape(steps.shape)

    def sample_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point, right, and left-limit values, each of shape (steps+1, d).

        The left-limit row 0 repeats the initial value; the right row at the
        horizon repeats the terminal point.
        """
        samples = self._samples()
        return samples[:, 1], samples[:, 2], samples[:, 0]

    def min_abs(self) -> float:
        return float(np.min(np.linalg.norm(self._samples(), axis=2)))

    def max_abs(self) -> float:
        return float(np.max(np.linalg.norm(self._samples(), axis=2)))


@dataclass
class SmoothFunctionSpec:
    """Twice differentiable test function with explicit derivatives.

    The callbacks are batched: for an (n, d) array of points, ``fn`` returns
    the n values, ``grad`` the (n, d) gradients and ``hess`` the (n, d, d)
    Hessians.  The methods take any array of d-vectors, a single one
    included, and return those shapes.
    """

    name: str
    dimension: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    def _points(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(-1, self.dimension)

    def value(self, x: np.ndarray) -> np.ndarray:
        pts = self._points(x)
        return np.asarray(self.fn(pts), dtype=float).reshape(pts.shape[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        pts = self._points(x)
        return np.asarray(self.grad(pts), dtype=float).reshape(pts.shape)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        pts = self._points(x)
        return np.asarray(self.hess(pts), dtype=float).reshape(pts.shape + (self.dimension,))


def _diagonal(rows: np.ndarray) -> np.ndarray:
    # (n, d) -> (n, d, d), one diagonal matrix per row
    return rows[:, :, None] * np.eye(rows.shape[1])


def make_function(spec: str, dimension: int) -> SmoothFunctionSpec:
    """Registry of smooth test functions.

    Supported names: ``quadratic``, ``cubic``, ``sin_sum``, ``power:<p>``
    (the p-th power of the euclidean norm).  The norm power's gradient
    p |x|^{p-1} sgn(x) and Hessian p |x|^{p-2} ((p-2) sgn sgn^T + I) read
    zero at the origin, by the convention sgn(0) = 0.
    """
    name = spec.strip()
    d = int(dimension)
    if not 1 <= d <= DIMENSION_CAP:
        raise ValueError(f"dimension must be between 1 and {DIMENSION_CAP}, got {d}")
    if name == "quadratic":
        # symmetric, so x @ a is a @ x row by row
        a = np.eye(d) + 0.3 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        b = 0.5 * (1.0 + np.arange(d))
        return SmoothFunctionSpec(
            name,
            d,
            lambda x: 0.5 * np.sum((x @ a) * x, axis=1) + x @ b,
            lambda x: x @ a + b,
            lambda x: np.broadcast_to(a, (x.shape[0], d, d)),
        )
    if name == "cubic":
        w = 1.0 + 0.5 * np.arange(d)
        return SmoothFunctionSpec(
            name,
            d,
            lambda x: np.sum(w * x ** 3, axis=1) / 6.0 + 0.5 * np.sum(x ** 2, axis=1),
            lambda x: w * x ** 2 / 2.0 + x,
            lambda x: _diagonal(w * x + 1.0),
        )
    if name == "sin_sum":
        k = 1.0 + np.arange(d)
        return SmoothFunctionSpec(
            name,
            d,
            lambda x: np.sum(np.sin(k * x), axis=1),
            lambda x: k * np.cos(k * x),
            lambda x: _diagonal(-(k ** 2) * np.sin(k * x)),
        )
    if name.startswith("power:"):
        p = float(name.split(":", 1)[1])

        def grad(x: np.ndarray) -> np.ndarray:
            _, r, s = _polar(x)
            return p * r[:, None] ** (p - 1.0) * s

        def hess(x: np.ndarray) -> np.ndarray:
            live, r, s = _polar(x)
            outer = s[:, :, None] * s[:, None, :]
            curved = p * r[:, None, None] ** (p - 2.0) * ((p - 2.0) * outer + np.eye(d))
            return np.where(live[:, None, None], curved, 0.0)

        return SmoothFunctionSpec(name, d, lambda x: np.linalg.norm(x, axis=1) ** p, grad, hess)
    raise ValueError(f"unknown smooth function {spec!r}")


def check_consistency(
    spec: SmoothFunctionSpec, points: np.ndarray, tol: float = CONSISTENCY_TOL
) -> None:
    """Validate the declared derivatives by central finite differences.

    Raises
    ------
    ValueError
        If a sampled gradient or Hessian entry disagrees with the finite
        difference beyond ``tol`` times a local scale.
    """
    pts = spec._points(points)
    hg = 1e-6
    hh = 1e-4
    g = spec.gradient(pts)
    h = spec.hessian(pts)
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(g), axis=1), np.max(np.abs(h), axis=(1, 2))))
    f0 = spec.value(pts)
    for j, e in enumerate(np.eye(spec.dimension)):
        fd = (spec.value(pts + hg * e) - spec.value(pts - hg * e)) / (2.0 * hg)
        fd2 = (spec.value(pts + hh * e) - 2.0 * f0 + spec.value(pts - hh * e)) / (hh * hh)
        for label, err in (("gradient", fd - g[:, j]), ("hessian", fd2 - h[:, j, j])):
            bad = np.abs(err) > tol * scale
            if np.any(bad):
                raise ValueError(
                    f"{label} of {spec.name} disagrees with finite differences at "
                    f"{pts[np.argmax(bad)]}"
                )


def _defect(values: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """values[i] - values[0] less the running total of the per-step terms.

    ``terms`` has one row per step; the total adds them one by one, row by
    row, as a step-by-step walk would.  The defect at time 0 is zero.
    """
    per_step = terms.shape[1]
    running = np.cumsum(terms.reshape(-1))[per_step - 1 :: per_step]
    res = np.zeros(values.shape[0])
    res[1:] = values[1:] - values[0] - running
    return res


def ito_residual(path: DiscreteSemimartingalePath, f: SmoothFunctionSpec) -> np.ndarray:
    """Unexplained part of the second-order expansion, one value per grid time.

    The expansion uses left-endpoint Stieltjes sums for the continuous part,
    squared continuous increments for the quadratic-variation surrogate,
    second-order remainders at left jumps, and raw differences at right
    jumps.  Exact for polynomials of degree two.
    """
    if f.dimension != path.dimension:
        raise ValueError("function and path dimensions differ")
    n = path.grid.steps
    point, right, left = path.sample_values()
    c = path.cont
    dm = path.left_jumps[1:]
    f_point = f.value(point)
    f_left = f.value(left[1:])
    atoms = np.sum(f.gradient(left[1:]) * dm, axis=1)
    curvature = np.einsum("ij,ijk,ik->i", c, f.hessian(right[:n]), c)
    terms = np.column_stack(
        [
            f.value(right[:n]) - f_point[:n],
            np.sum(f.gradient(right[:n]) * c, axis=1) + 0.5 * curvature,
            atoms,
            f_point[1:] - f_left - atoms,
        ]
    )
    return _defect(f_point, terms)


def product_residual(
    path1: DiscreteSemimartingalePath, path2: DiscreteSemimartingalePath
) -> np.ndarray:
    """Defect of the integration-by-parts identity for two scalar paths.

    The bracket pairs matched continuous increments and matched left jumps;
    right jumps enter as raw product differences.  Algebraically exact, so
    the returned array is zero to rounding.
    """
    if path1.dimension != 1 or path2.dimension != 1:
        raise ValueError("the product identity applies to scalar paths")
    if path1.grid.steps != path2.grid.steps:
        raise ValueError("paths live on different grids")
    n = path1.grid.steps
    p1, r1, l1 = (a[:, 0] for a in path1.sample_values())
    p2, r2, l2 = (a[:, 0] for a in path2.sample_values())
    c1, c2 = path1.cont[:, 0], path2.cont[:, 0]
    d1, d2 = path1.left_jumps[1:, 0], path2.left_jumps[1:, 0]
    terms = np.column_stack(
        [
            r1[:n] * r2[:n] - p1[:n] * p2[:n],
            r1[:n] * c2 + r2[:n] * c1 + c1 * c2,
            l1[1:] * d2 + l2[1:] * d1 + d1 * d2,
        ]
    )
    return _defect(p1 * p2, terms)


def _polar(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each row of x is nonzero, its norm and its direction sgn(x).

    At the origin the norm reads 1.0, so that every power of it stays
    finite, and the direction is zero: the convention sgn(0) = 0.
    """
    r = np.linalg.norm(x, axis=1)
    live = r > 0.0
    r = np.where(live, r, 1.0)
    return live, r, x / r[:, None]


def _power_grad_dot(x: np.ndarray, p: float, delta: np.ndarray) -> np.ndarray:
    # p |x|^{p-1} <sgn(x), delta> row by row, with the convention sgn(0) = 0.
    live, r, s = _polar(x)
    return np.where(live, p * r ** (p - 1.0) * np.sum(s * delta, axis=1), 0.0)


def power_residual(path: DiscreteSemimartingalePath, p: float, margin: float = 0.0) -> np.ndarray:
    """Expansion defect for the p-th power of the norm, p in [1, 2].

    It is :func:`ito_residual` of ``make_function("power:<p>")``.  For p = 1
    the defect's continuous part estimates the increasing process that the
    identity asserts to exist without naming; it is reported, not asserted,
    beyond nonnegativity and monotonicity.

    Parameters
    ----------
    margin : float
        For p < 2 a positive margin asserts the path stays at least this
        far from the origin, where the power function loses smoothness.

    Raises
    ------
    ValueError
        If p is outside [1, 2], or the margin assertion fails.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"power must lie in [1, 2], got {p}")
    if p < 2.0 and margin > 0.0 and path.min_abs() < margin:
        raise ValueError("path approaches the origin closer than the requested margin")
    return ito_residual(path, make_function(f"power:{float(p)!r}", path.dimension))


def _power_steps(path: DiscreteSemimartingalePath, p: float) -> tuple[np.ndarray, ...]:
    """Per-step table of the norm power along the path, p in [1, 2].

    The right values at t_0..t_{n-1}; the powers at the points, at those
    right values and at the left limits at t_1..t_n; the right jump's
    gradient part and convex correction at t_i; the left jump's gradient
    atom and convex correction at t_{i+1}.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"power must lie in [1, 2], got {p}")
    n = path.grid.steps
    point, right, left = path.sample_values()
    powers = np.linalg.norm(point, axis=1) ** p
    right_powers = np.linalg.norm(right[:n], axis=1) ** p
    left_powers = np.linalg.norm(left[1:], axis=1) ** p
    gplus = _power_grad_dot(point[:n], p, path.right_jumps[:n])
    atoms = _power_grad_dot(left[1:], p, path.left_jumps[1:])
    jplus = right_powers - powers[:n] - gplus
    jminus = powers[1:] - left_powers - atoms
    return right[:n], powers, right_powers, left_powers, gplus, jplus, atoms, jminus


def power_jump_terms(path: DiscreteSemimartingalePath, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Convex jump corrections of the norm-power expansion, per instant.

    Entry i of the first array is the left-jump correction at t_{i+1}; of
    the second, the right-jump correction at t_i.  Both are gradient
    subtracted and nonnegative by convexity, so their running sums are the
    two increasing jump series.
    """
    *_, jplus, _, jminus = _power_steps(path, p)
    return jminus, jplus


def _segment_samples(a: np.ndarray, b: np.ndarray, count: int = 9) -> np.ndarray:
    # ``count`` evenly spaced points on each segment a[i] -> b[i], stacked
    ts = np.linspace(0.0, 1.0, count)[None, :, None]
    return (a[:, None, :] * (1.0 - ts) + b[:, None, :] * ts).reshape(-1, a.shape[1])


def jump_term_bounds(
    path: DiscreteSemimartingalePath, f: SmoothFunctionSpec
) -> dict[str, float]:
    """Jump-correction totals and their curvature bounds.

    The left-jump corrections are bounded by half the largest Hessian norm
    along the jump segments times the summed squared left jumps; the
    right-jump differences by the largest gradient norm times the summed
    absolute right jumps.
    """
    n = path.grid.steps
    point, right, left = path.sample_values()
    dp = path.right_jumps[:n]
    dm = path.left_jumps[1:]
    f_point = f.value(point)
    gm = f.gradient(left[1:])
    jminus = f_point[1:] - f.value(left[1:]) - np.sum(gm * dm, axis=1)
    grads = f.gradient(_segment_samples(point[:n], right[:n]))
    hessians = f.hessian(_segment_samples(left[1:], point[1:]))
    grad_sup = float(np.max(np.linalg.norm(grads, axis=1)))
    hess_sup = float(np.max(np.linalg.norm(hessians, ord=2, axis=(1, 2))))
    return {
        "jminus_total": float(np.sum(np.abs(jminus))),
        "jminus_bound": 0.5 * hess_sup * float(np.sum(dm * dm)),
        "jplus_total": float(np.sum(np.abs(f.value(right[:n]) - f_point[:n]))),
        "jplus_bound": grad_sup * float(np.sum(np.linalg.norm(dp, axis=1))),
    }


def cor4_inequality_check(
    path: DiscreteSemimartingalePath,
    p: float,
    t: int | None = None,
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """Tail-form one-sided bound on the norm power, checked pathwise.

    From any grid time onward, the current power plus the tail interval
    curvature and the tail jump corrections must stay below the terminal
    power less the tail gradient sums.  The interval curvature is the
    gradient-subtracted power increment minus its orthogonal surrogate
    part, so the slack equals the dropped orthogonal contribution and is
    nonnegative pathwise.  Returns the smallest slack over the requested
    times (all of them when ``t`` is None) and whether it clears ``-tol``
    at path scale.
    """
    n = path.grid.steps
    if t is not None and not 0 <= int(t) <= n:
        raise ValueError(f"time index {int(t)} outside the grid")
    right, powers, right_powers, left_powers, gplus, jplus, atoms, jminus = _power_steps(path, p)
    c = path.cont
    lin = _power_grad_dot(right, p, c)
    # right[i] + c[i] is left[i + 1] bit for bit
    gap = left_powers - right_powers - lin
    live, r, s = _polar(right)
    along = np.sum(s * c, axis=1)
    weight = np.where(live, r ** (p - 2.0), 0.0)
    c2 = np.sum(c * c, axis=1)
    bracket = gap - 0.5 * p * (2.0 - p) * weight * (c2 - along * along)

    # tails[k, tau] sums row k of the terms over the steps from tau onward
    tails = np.zeros((6, n + 1))
    terms = np.stack([bracket, jminus, jplus, lin, atoms, gplus])
    tails[:, :n] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    lhs = powers + tails[0] + tails[1] + tails[2]
    rhs = powers[n] - tails[3] - tails[4] - tails[5]
    slack = rhs - lhs if t is None else rhs[int(t)] - lhs[int(t)]
    worst = float(np.min(slack))
    scale = max(1.0, float(np.max(powers)))
    return bool(worst >= -tol * scale), worst


# ----------------------------------------------------------------------
# path generation and serialization


def random_path(
    grid: TimeGrid,
    dimension: int,
    rng: np.random.Generator,
    x0: np.ndarray | None = None,
    cont_sigma: float = 0.3,
    jump_scale: float = 0.5,
    jump_rate: float = 0.25,
    jump_stride: int = 1,
) -> DiscreteSemimartingalePath:
    """Draw a path with diffusive interval increments and sparse jumps.

    Jumps are only placed at indices divisible by ``jump_stride``, which
    keeps jump locations shared across nested refinements of the grid.
    """
    n = grid.steps
    d = int(dimension)
    dt = grid.dt
    start = (
        rng.uniform(0.5, 1.5, size=d) if x0 is None else np.asarray(x0, dtype=float)
    )
    cont = cont_sigma * np.sqrt(dt) * rng.standard_normal((n, d))
    left = np.zeros((n + 1, d))
    right = np.zeros((n + 1, d))
    for i in range(n + 1):
        if jump_stride > 0 and i % jump_stride != 0:
            continue
        if i > 0 and rng.uniform() < jump_rate:
            left[i] = rng.uniform(-jump_scale, jump_scale, size=d)
        if i < n and rng.uniform() < jump_rate:
            right[i] = rng.uniform(-jump_scale, jump_scale, size=d)
    return DiscreteSemimartingalePath(grid, start, cont, left, right)


def random_path_away_from_zero(
    grid: TimeGrid,
    dimension: int,
    rng: np.random.Generator,
    margin: float,
    tries: int = 200,
    **kwargs,
) -> DiscreteSemimartingalePath:
    """Rejection-sample a random path staying outside the margin ball."""
    for _ in range(tries):
        path = random_path(grid, dimension, rng, **kwargs)
        if path.min_abs() >= margin:
            return path
    raise ValueError(f"no path stayed {margin} away from the origin in {tries} draws")


def serialize_path_csv(path: DiscreteSemimartingalePath) -> str:
    """One row per grid time with increments, jumps, and the point value.

    The point-value columns are redundant; the parser uses them to confirm
    the reconstruction.
    """
    n = path.grid.steps
    d = path.dimension
    point, _, _ = path.sample_values()
    cols = ["index", "time"]
    for group in ("c", "dminus", "dplus", "x"):
        cols += [f"{group}_{k}" for k in range(d)]
    # the interval increment column reads 0 at the horizon
    cont = np.vstack([path.cont, np.zeros((1, d))])
    table = np.column_stack([path.grid.times(), cont, path.left_jumps, path.right_jumps, point])
    template = "%d" + ",%.17g" * (1 + 4 * d) + "\n"
    rows = zip(range(n + 1), *table.T.tolist())
    return ",".join(cols) + "\n" + "".join(map(template.__mod__, rows))


def parse_path_csv(grid: TimeGrid, text: str) -> DiscreteSemimartingalePath:
    """Load a path written by :func:`serialize_path_csv`.

    Raises
    ------
    ValueError
        On a malformed table or when the stored point values disagree with
        the reconstruction from the increments.
    """
    lines = [line for line in text.strip().splitlines() if line]
    if len(lines) != grid.steps + 2:
        raise ValueError(
            f"expected header plus {grid.steps + 1} rows, got {len(lines)} lines"
        )
    header = lines[0].split(",")
    if len(header) < 6 or (len(header) - 2) % 4 != 0:
        raise ValueError("malformed path header")
    d = (len(header) - 2) // 4
    rows = [line.split(",") for line in lines[1:]]
    for i, cells in enumerate(rows):
        if len(cells) != len(header):
            raise ValueError(f"row {i} has {len(cells)} cells, expected {len(header)}")
    table = np.array([[float(v) for v in cells[2:]] for cells in rows])
    cont, left, right, stored = (table[:, k * d : (k + 1) * d] for k in range(4))
    path = DiscreteSemimartingalePath(grid, stored[0], cont[: grid.steps], left, right)
    point, _, _ = path.sample_values()
    if float(np.max(np.abs(point - stored))) > 1e-12 * max(1.0, path.max_abs()):
        raise ValueError("stored point values disagree with the reconstructed path")
    return path
