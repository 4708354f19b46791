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
    "PowerResidual",
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
        for name, arr in (
            ("x0", self.x0),
            ("cont", self.cont),
            ("left_jumps", self.left_jumps),
            ("right_jumps", self.right_jumps),
        ):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(self.left_jumps[0] != 0.0):
            raise ValueError("no left jump can occur at time zero")
        if np.any(self.right_jumps[n] != 0.0):
            raise ValueError("no right jump can occur at the horizon")

    @property
    def dimension(self) -> int:
        return self.x0.shape[0]

    def sample_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point, right, and left-limit values, each of shape (steps+1, d).

        The left-limit row 0 repeats the initial value; the right row at the
        horizon repeats the terminal point.
        """
        n = self.grid.steps
        d = self.dimension
        point = np.empty((n + 1, d))
        right = np.empty((n + 1, d))
        left = np.empty((n + 1, d))
        point[0] = self.x0
        left[0] = self.x0
        for i in range(n):
            right[i] = point[i] + self.right_jumps[i]
            left[i + 1] = right[i] + self.cont[i]
            point[i + 1] = left[i + 1] + self.left_jumps[i + 1]
        right[n] = point[n]
        return point, right, left

    def min_abs(self) -> float:
        point, right, left = self.sample_values()
        values = np.concatenate([point, right, left])
        return float(np.min(np.linalg.norm(values, axis=1)))

    def max_abs(self) -> float:
        point, right, left = self.sample_values()
        values = np.concatenate([point, right, left])
        return float(np.max(np.linalg.norm(values, axis=1)))


@dataclass
class SmoothFunctionSpec:
    """Twice differentiable test function with explicit derivatives."""

    name: str
    dimension: int
    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    def value(self, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float).reshape(
            self.dimension
        )

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess(np.asarray(x, dtype=float)), dtype=float).reshape(
            self.dimension, self.dimension
        )


def make_function(spec: str, dimension: int) -> SmoothFunctionSpec:
    """Registry of smooth test functions.

    Supported names: ``quadratic``, ``cubic``, ``sin_sum``, ``power:<p>``
    (the p-th power of the euclidean norm, valid away from the origin).
    """
    name = spec.strip()
    d = int(dimension)
    if not 1 <= d <= DIMENSION_CAP:
        raise ValueError(f"dimension must be between 1 and {DIMENSION_CAP}, got {d}")
    if name == "quadratic":
        a = np.eye(d) + 0.3 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        b = 0.5 * (1.0 + np.arange(d))
        return SmoothFunctionSpec(
            name,
            d,
            lambda x: 0.5 * float(x @ a @ x) + float(b @ x),
            lambda x: a @ x + b,
            lambda x: a.copy(),
        )
    if name == "cubic":
        w = 1.0 + 0.5 * np.arange(d)
        return SmoothFunctionSpec(
            name,
            d,
            lambda x: float(np.sum(w * x ** 3) / 6.0 + 0.5 * np.sum(x ** 2)),
            lambda x: w * x ** 2 / 2.0 + x,
            lambda x: np.diag(w * x + 1.0),
        )
    if name == "sin_sum":
        k = 1.0 + np.arange(d)
        return SmoothFunctionSpec(
            name,
            d,
            lambda x: float(np.sum(np.sin(k * x))),
            lambda x: k * np.cos(k * x),
            lambda x: np.diag(-(k ** 2) * np.sin(k * x)),
        )
    if name.startswith("power:"):
        p = float(name.split(":", 1)[1])

        def fn(x: np.ndarray) -> float:
            return float(np.linalg.norm(x) ** p)

        def grad(x: np.ndarray) -> np.ndarray:
            r = float(np.linalg.norm(x))
            return p * r ** (p - 2.0) * x

        def hess(x: np.ndarray) -> np.ndarray:
            r = float(np.linalg.norm(x))
            return p * r ** (p - 4.0) * ((p - 2.0) * np.outer(x, x) + r * r * np.eye(d))

        return SmoothFunctionSpec(name, d, fn, grad, hess)
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
    pts = np.asarray(points, dtype=float).reshape(-1, spec.dimension)
    hg = 1e-6
    hh = 1e-4
    for x in pts:
        g = spec.gradient(x)
        h = spec.hessian(x)
        scale = max(1.0, float(np.max(np.abs(g))), float(np.max(np.abs(h))))
        for j in range(spec.dimension):
            e = np.zeros(spec.dimension)
            e[j] = 1.0
            fd = (spec.value(x + hg * e) - spec.value(x - hg * e)) / (2.0 * hg)
            if abs(fd - g[j]) > tol * scale:
                raise ValueError(
                    f"gradient of {spec.name} disagrees with finite differences at {x}"
                )
            fd2 = (
                spec.value(x + hh * e) - 2.0 * spec.value(x) + spec.value(x - hh * e)
            ) / (hh * hh)
            if abs(fd2 - h[j, j]) > tol * scale:
                raise ValueError(
                    f"hessian of {spec.name} disagrees with finite differences at {x}"
                )


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
    res = np.zeros(n + 1)
    running = 0.0
    f0 = f.value(point[0])
    for i in range(n):
        running += f.value(right[i]) - f.value(point[i])
        c = path.cont[i]
        g = f.gradient(right[i])
        h = f.hessian(right[i])
        running += float(g @ c) + 0.5 * float(c @ h @ c)
        dm = path.left_jumps[i + 1]
        gm = f.gradient(left[i + 1])
        running += float(gm @ dm)
        running += f.value(point[i + 1]) - f.value(left[i + 1]) - float(gm @ dm)
        res[i + 1] = f.value(point[i + 1]) - f0 - running
    return res


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
    res = np.zeros(n + 1)
    running = 0.0
    start = p1[0] * p2[0]
    for i in range(n):
        running += r1[i] * r2[i] - p1[i] * p2[i]
        c1 = path1.cont[i, 0]
        c2 = path2.cont[i, 0]
        running += r1[i] * c2 + r2[i] * c1 + c1 * c2
        d1 = path1.left_jumps[i + 1, 0]
        d2 = path2.left_jumps[i + 1, 0]
        running += l1[i + 1] * d2 + l2[i + 1] * d1 + d1 * d2
        res[i + 1] = p1[i + 1] * p2[i + 1] - start - running
    return res


def _norm_sgn(x: np.ndarray) -> tuple[float, np.ndarray]:
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 0.0, np.zeros_like(x)
    return r, x / r


def _power_grad_dot(x: np.ndarray, p: float, delta: np.ndarray) -> float:
    # p |x|^{p-1} <sgn(x), delta>, with the convention sgn(0) = 0.
    r, s = _norm_sgn(x)
    if r == 0.0:
        return 0.0
    return p * r ** (p - 1.0) * float(s @ delta)


@dataclass
class PowerResidual:
    """Residual series of the norm-power expansion.

    For p = 1 the unexplained continuous part estimates the increasing
    process that the identity asserts to exist without naming; it is
    reported, not asserted, beyond nonnegativity and monotonicity.
    """

    p: float
    residual: np.ndarray
    local_time_estimate: np.ndarray | None


def power_residual(
    path: DiscreteSemimartingalePath, p: float, margin: float = 0.0
) -> PowerResidual:
    """Expansion defect for the p-th power of the norm, p in [1, 2].

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
    n = path.grid.steps
    point, right, left = path.sample_values()
    jminus, jplus = power_jump_terms(path, p)
    res = np.zeros(n + 1)
    running = 0.0
    start = float(np.linalg.norm(point[0])) ** p
    for i in range(n):
        # right jump at t_i: explicit gradient part plus convex remainder
        running += _power_grad_dot(point[i], p, path.right_jumps[i])
        running += jplus[i]
        # open interval: gradient sum and quadratic-variation surrogate
        c = path.cont[i]
        running += _power_grad_dot(right[i], p, c)
        r, s = _norm_sgn(right[i])
        if r > 0.0:
            c2 = float(c @ c)
            qform = float(s @ c) ** 2
            running += 0.5 * p * r ** (p - 2.0) * ((2.0 - p) * (c2 - qform) + (p - 1.0) * c2)
        # left jump at t_{i+1}: gradient atom plus convex remainder
        running += _power_grad_dot(left[i + 1], p, path.left_jumps[i + 1])
        running += jminus[i]
        res[i + 1] = float(np.linalg.norm(point[i + 1])) ** p - start - running
    local = res.copy() if p == 1.0 else None
    return PowerResidual(p=float(p), residual=res, local_time_estimate=local)


def power_jump_terms(
    path: DiscreteSemimartingalePath, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Convex jump corrections of the norm-power expansion, per instant.

    Entry i of the first array is the left-jump correction at t_{i+1}; of
    the second, the right-jump correction at t_i.  Both are gradient
    subtracted and nonnegative by convexity, so their running sums are the
    two increasing jump series.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"power must lie in [1, 2], got {p}")
    n = path.grid.steps
    point, right, left = path.sample_values()
    jminus = np.zeros(n)
    jplus = np.zeros(n)
    for i in range(n):
        jplus[i] = (
            float(np.linalg.norm(right[i])) ** p
            - float(np.linalg.norm(point[i])) ** p
            - _power_grad_dot(point[i], p, path.right_jumps[i])
        )
        jminus[i] = (
            float(np.linalg.norm(point[i + 1])) ** p
            - float(np.linalg.norm(left[i + 1])) ** p
            - _power_grad_dot(left[i + 1], p, path.left_jumps[i + 1])
        )
    return jminus, jplus


def _segment_samples(a: np.ndarray, b: np.ndarray, count: int = 9) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, count)[:, None]
    return a[None, :] * (1.0 - ts) + b[None, :] * ts


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
    jminus_total = 0.0
    jplus_total = 0.0
    sq_left = 0.0
    abs_right = 0.0
    hess_sup = 0.0
    grad_sup = 0.0
    for i in range(n):
        dp = path.right_jumps[i]
        jplus_total += abs(f.value(right[i]) - f.value(point[i]))
        abs_right += float(np.linalg.norm(dp))
        for x in _segment_samples(point[i], right[i]):
            grad_sup = max(grad_sup, float(np.linalg.norm(f.gradient(x))))
        dm = path.left_jumps[i + 1]
        gm = f.gradient(left[i + 1])
        jminus_total += abs(
            f.value(point[i + 1]) - f.value(left[i + 1]) - float(gm @ dm)
        )
        sq_left += float(dm @ dm)
        for x in _segment_samples(left[i + 1], point[i + 1]):
            hess_sup = max(hess_sup, float(np.linalg.norm(f.hessian(x), ord=2)))
    return {
        "jminus_total": jminus_total,
        "jminus_bound": 0.5 * hess_sup * sq_left,
        "jplus_total": jplus_total,
        "jplus_bound": grad_sup * abs_right,
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
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"power must lie in [1, 2], got {p}")
    n = path.grid.steps
    point, right, left = path.sample_values()
    powers = np.array([float(np.linalg.norm(point[i])) ** p for i in range(n + 1)])
    jminus, jplus = power_jump_terms(path, p)

    gplus = np.zeros(n)
    lin = np.zeros(n)
    bracket = np.zeros(n)
    atoms = np.zeros(n)
    for i in range(n):
        gplus[i] = _power_grad_dot(point[i], p, path.right_jumps[i])
        c = path.cont[i]
        lin[i] = _power_grad_dot(right[i], p, c)
        gap = (
            float(np.linalg.norm(right[i] + c)) ** p
            - float(np.linalg.norm(right[i])) ** p
            - lin[i]
        )
        r, s = _norm_sgn(right[i])
        ortho = 0.0
        if r > 0.0:
            c2 = float(c @ c)
            ortho = 0.5 * p * (2.0 - p) * r ** (p - 2.0) * (c2 - float(s @ c) ** 2)
        bracket[i] = gap - ortho
        atoms[i] = _power_grad_dot(left[i + 1], p, path.left_jumps[i + 1])

    indices = range(n + 1) if t is None else [int(t)]
    scale = max(1.0, float(np.max(powers)))
    worst = np.inf
    for tau in indices:
        if not 0 <= tau <= n:
            raise ValueError(f"time index {tau} outside the grid")
        lhs = (
            powers[tau]
            + float(np.sum(bracket[tau:]))
            + float(np.sum(jminus[tau:]))
            + float(np.sum(jplus[tau:]))
        )
        rhs = (
            powers[n]
            - float(np.sum(lin[tau:]))
            - float(np.sum(atoms[tau:]))
            - float(np.sum(gplus[tau:]))
        )
        worst = min(worst, rhs - lhs)
    return bool(worst >= -tol * scale), float(worst)


# ----------------------------------------------------------------------
# path generation and serialization


def random_path(
    grid: TimeGrid,
    dimension: int,
    rng: np.random.Generator,
    x0: np.ndarray | None = None,
    cont_sigma: float = 0.3,
    cont_drift: float = 0.0,
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
    cont = cont_sigma * np.sqrt(dt) * rng.standard_normal((n, d)) + cont_drift * dt
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
    lines = [",".join(cols)]
    times = path.grid.times()
    for i in range(n + 1):
        c_row = path.cont[i] if i < n else np.zeros(d)
        cells = [str(i), "%.17g" % times[i]]
        for row in (c_row, path.left_jumps[i], path.right_jumps[i], point[i]):
            cells += ["%.17g" % v for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
    n = grid.steps
    cont = np.zeros((n, d))
    left = np.zeros((n + 1, d))
    right = np.zeros((n + 1, d))
    stored = np.zeros((n + 1, d))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {i} has {len(cells)} cells, expected {len(header)}")
        values = [float(v) for v in cells[2:]]
        if i < n:
            cont[i] = values[0:d]
        left[i] = values[d : 2 * d]
        right[i] = values[2 * d : 3 * d]
        stored[i] = values[3 * d : 4 * d]
    path = DiscreteSemimartingalePath(grid, stored[0], cont, left, right)
    point, _, _ = path.sample_values()
    if float(np.max(np.abs(point - stored))) > 1e-12 * max(1.0, path.max_abs()):
        raise ValueError("stored point values disagree with the reconstructed path")
    return path
