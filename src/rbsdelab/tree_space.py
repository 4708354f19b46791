"""Exact finite filtered probability space on a full binary tree.

Level i holds 2**i nodes; node k at level i has children 2k and 2k + 1 at
level i + 1, reached with probability one half each.  The edge into child
2k + 1 carries the noise increment +sqrt(dt), the edge into child 2k carries
-sqrt(dt).  Adapted processes are stored heap-ordered, node k of level i at
flat index 2**i - 1 + k, with one view per level; within a level a parent
value sits at index k while its children sit at 2k and 2k + 1.  Sibling
averaging is conditional expectation and the sibling difference determines
the unique martingale representation integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid_path import TimeGrid

__all__ = [
    "DEPTH_CAP",
    "ORACLE_DEPTH_CAP",
    "TreeSpace",
    "AdaptedRegulatedProcess",
    "KIncrements",
    "StoppingRule",
    "build_tree",
    "conditional_expectation",
    "martingale_representation",
    "enumerate_stopping_rules",
    "count_stopping_rules",
    "expected_reward",
    "rule_value_fields",
]

DEPTH_CAP = 20
ORACLE_DEPTH_CAP = 4

MARTINGALE_TOL = 1e-10


@dataclass(frozen=True)
class TreeSpace:
    """Full binary tree of depth N over a uniform time grid."""

    grid: TimeGrid

    @property
    def depth(self) -> int:
        return self.grid.steps

    @property
    def dt(self) -> float:
        return self.grid.dt

    @property
    def sqrt_dt(self) -> float:
        return float(np.sqrt(self.grid.dt))

    def n_nodes(self, level: int) -> int:
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} out of range for depth {self.depth}")
        return 1 << level

    def time(self, level: int) -> float:
        return level * self.dt

    def edge_signs(self, level: int) -> np.ndarray:
        """Sign of the noise increment on the edge into each node at ``level``."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"level {level} out of range for edges")
        signs = np.empty(1 << level)
        signs[0::2] = -1.0
        signs[1::2] = 1.0
        return signs

    def node_probability(self, level: int) -> float:
        return 0.5 ** level

    def expectation(self, values: np.ndarray) -> float:
        """Unconditional expectation of a level array (all nodes equally likely)."""
        return float(np.mean(np.asarray(values, dtype=float)))

    def brownian(self) -> list[np.ndarray]:
        """Noise path values per level, starting from zero at the root."""
        levels = [np.zeros(1)]
        for i in range(1, self.depth + 1):
            levels.append(np.repeat(levels[-1], 2) + self.sqrt_dt * self.edge_signs(i))
        return levels


def build_tree(grid: TimeGrid, depth_cap: int = DEPTH_CAP) -> TreeSpace:
    """Construct the tree space for ``grid``.

    Raises
    ------
    ValueError
        If the grid has more than ``depth_cap`` steps; storage is 2**N.
    """
    if grid.steps > depth_cap:
        raise ValueError(f"depth {grid.steps} exceeds cap {depth_cap}")
    return TreeSpace(grid=grid)


def _level_views(flat: np.ndarray, levels: int) -> tuple[np.ndarray, ...]:
    """Views of the first ``levels`` levels of a heap-ordered array."""
    return tuple(flat[(1 << i) - 1 : (2 << i) - 1] for i in range(levels))


def _heap_array(values, levels: int, label: str) -> np.ndarray:
    flat = np.asarray(values, dtype=float)
    size = (1 << levels) - 1
    if flat.shape != (size,):
        raise ValueError(f"{label} must have {size} heap-ordered entries, got shape {flat.shape}")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{label} contains a non-finite entry")
    return flat


def _pack_levels(tree: TreeSpace, arrays, count: int, label: str) -> np.ndarray:
    if len(arrays) != count:
        raise ValueError(f"{label} must have {count} level arrays, got {len(arrays)}")
    rows = [np.asarray(a, dtype=float).reshape(-1) for a in arrays]
    for i, row in enumerate(rows):
        if row.shape[0] != tree.n_nodes(i):
            raise ValueError(f"{label} level {i} must have {tree.n_nodes(i)} entries, got {row.shape[0]}")
    return np.concatenate(rows)


@dataclass
class AdaptedRegulatedProcess:
    """Adapted ladlag process: a point value and a right value per node.

    ``point[i][k]`` is the value at time t_i in node k; ``right[i][k]`` is the
    value just after t_i, constant on the open interval (t_i, t_{i+1}) along
    that branch.  Both are known at the node itself.  There is no right value
    at the terminal level.

    Storage is heap-ordered: ``points`` and ``rights`` are flat arrays, used
    as given, with node k of level i at index 2**i - 1 + k, and ``point`` and
    ``right`` are tuples of per-level views into them.
    """

    tree: TreeSpace
    points: np.ndarray
    rights: np.ndarray
    point: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    right: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.tree.depth
        self.points = _heap_array(self.points, n + 1, "point")
        self.rights = _heap_array(self.rights, n, "right")
        self.point = _level_views(self.points, n + 1)
        self.right = _level_views(self.rights, n)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_levels(cls, tree: TreeSpace, point, right) -> "AdaptedRegulatedProcess":
        """Pack one array per level (point: N + 1 of them, right: N)."""
        return cls(
            tree,
            _pack_levels(tree, point, tree.depth + 1, "point"),
            _pack_levels(tree, right, tree.depth, "right"),
        )

    @classmethod
    def constant(cls, tree: TreeSpace, value: float) -> "AdaptedRegulatedProcess":
        n = tree.depth
        return cls(tree, np.full((2 << n) - 1, float(value)), np.full((1 << n) - 1, float(value)))

    @classmethod
    def zeros(cls, tree: TreeSpace) -> "AdaptedRegulatedProcess":
        return cls.constant(tree, 0.0)

    # ------------------------------------------------------------------
    # jumps

    def delta_plus(self, level: int) -> np.ndarray:
        """Right jump at t_level per node; zero at the terminal level."""
        if level == self.tree.depth:
            return np.zeros(self.tree.n_nodes(level))
        return self.right[level] - self.point[level]

    def delta_minus(self, level: int) -> np.ndarray:
        """Left jump at t_level per node at that level; zero at the root level."""
        if level == 0:
            return np.zeros(1)
        return self.point[level] - np.repeat(self.right[level - 1], 2)

    # ------------------------------------------------------------------
    # arithmetic used by the barrier transform

    def _combine(self, other, op) -> "AdaptedRegulatedProcess":
        if isinstance(other, AdaptedRegulatedProcess):
            if other.tree.grid != self.tree.grid:
                raise ValueError("processes live on different trees")
            return AdaptedRegulatedProcess(
                self.tree, op(self.points, other.points), op(self.rights, other.rights)
            )
        return AdaptedRegulatedProcess(self.tree, op(self.points, other), op(self.rights, other))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return AdaptedRegulatedProcess(self.tree, -self.points, -self.rights)

    def __mul__(self, factor: float):
        return AdaptedRegulatedProcess(self.tree, self.points * factor, self.rights * factor)

    __rmul__ = __mul__

    def copy(self) -> "AdaptedRegulatedProcess":
        return AdaptedRegulatedProcess(self.tree, self.points.copy(), self.rights.copy())

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.points)), np.max(np.abs(self.rights))))

    def scale(self) -> float:
        return max(1.0, self.max_abs())


@dataclass
class KIncrements:
    """Increment storage for an increasing regulated process K with K(0) = 0.

    ``interval[i]`` is the charge accrued on (t_i, t_{i+1}), known at the
    level-i node; ``left[i]`` (for i >= 1) is the left jump at t_i, stored at
    level i and equal across siblings because it is decided one instant
    before the noise; ``right[i]`` is the right jump at t_i.  ``left[0]`` is
    identically zero and kept only to align indices.  The three components
    are stored heap-ordered like :class:`AdaptedRegulatedProcess`, in
    ``intervals``, ``lefts`` and ``rights``, with per-level views.
    """

    tree: TreeSpace
    intervals: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    interval: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    left: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    right: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.tree.depth
        self.intervals = _heap_array(self.intervals, n, "interval")
        self.lefts = _heap_array(self.lefts, n + 1, "left")
        self.rights = _heap_array(self.rights, n, "right")
        self.interval = _level_views(self.intervals, n)
        self.left = _level_views(self.lefts, n + 1)
        self.right = _level_views(self.rights, n)

    @classmethod
    def from_levels(cls, tree: TreeSpace, interval, left, right) -> "KIncrements":
        """Pack one array per level (interval and right: N of them, left: N + 1)."""
        return cls(
            tree,
            _pack_levels(tree, interval, tree.depth, "interval"),
            _pack_levels(tree, left, tree.depth + 1, "left"),
            _pack_levels(tree, right, tree.depth, "right"),
        )

    @classmethod
    def zeros(cls, tree: TreeSpace) -> "KIncrements":
        # read-only zero-stride views: an all-zero charge takes no memory,
        # and the components can share one view because writing into it raises
        zero = np.broadcast_to(0.0, (2 << tree.depth) - 1)
        short = zero[: (1 << tree.depth) - 1]
        return cls(tree, short, zero, short)

    def _components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.intervals, self.lefts, self.rights

    def max_component(self) -> float:
        return float(max(np.max(np.abs(a)) for a in self._components()))

    def min_component(self) -> float:
        return float(min(np.min(a) for a in self._components()))

    def cumulative(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Running K at points and right limits: K(t_i) and K(t_i+) per node.

        K(t_i) includes the left jump at t_i but not the right jump there;
        K(t_i+) adds the right jump.
        """
        n = self.tree.depth
        at_point: list[np.ndarray] = [np.zeros(1)]
        at_right: list[np.ndarray] = []
        for i in range(n):
            at_right.append(at_point[i] + self.right[i])
            nxt = np.repeat(at_right[i] + self.interval[i], 2) + self.left[i + 1]
            at_point.append(nxt)
        return at_point, at_right

    def total_mass_expectation(self) -> float:
        """E[K(T)], the mean accumulated charge."""
        at_point, _ = self.cumulative()
        return float(np.mean(at_point[-1]))

    def dominates(self, other: "KIncrements", tol: float = 0.0) -> bool:
        """Componentwise measure ordering dK >= d(other) at every node."""
        return all(
            bool(np.all(mine - theirs >= -tol))
            for mine, theirs in zip(self._components(), other._components())
        )


@dataclass(frozen=True)
class StoppingRule:
    """Adapted absorbing stopping prescription on the tree.

    ``plan`` is a nested tuple rooted at one node of level ``from_level``:
    ``("point",)`` stops at the grid point, ``("after",)`` stops just inside
    the following open interval and collects right values, and
    ``("cont", down_plan, up_plan)`` continues with one sub-plan per child.
    Nodes at the terminal level must stop at the point, where the terminal
    payoff replaces the barrier.
    """

    from_level: int
    plan: tuple

    def mode(self) -> str:
        return self.plan[0]


def conditional_expectation(tree: TreeSpace, child_values: np.ndarray) -> np.ndarray:
    """One-step conditional expectation: the mean of each sibling pair.

    ``child_values`` is a level array for some level 1..N; the result is the
    parent-level array.
    """
    values = np.asarray(child_values, dtype=float)
    n = values.shape[0]
    level = n.bit_length() - 1
    if values.ndim != 1 or n != 1 << level or not 1 <= level <= tree.depth:
        raise ValueError(f"array of size {n} does not match a child level of depth {tree.depth}")
    # equal to reshape(-1, 2).mean(axis=1) bit for bit, at a tenth of its cost
    return (values[0::2] + values[1::2]) / 2.0


def martingale_representation(
    tree: TreeSpace,
    child_values: np.ndarray,
    parent_values: np.ndarray | None = None,
    tol: float = MARTINGALE_TOL,
) -> np.ndarray:
    """Integrand Z reproducing a one-step martingale increment exactly.

    With children (down, up) of a parent m, the unique Z with
    up = m + Z*sqrt(dt) and down = m - Z*sqrt(dt) is the halved sibling
    difference over sqrt(dt).  If ``parent_values`` is supplied it is checked
    against the sibling mean; a residual above ``tol`` (scaled) means the
    input was not a martingale increment and is rejected.
    """
    values = np.asarray(child_values, dtype=float)
    mean = conditional_expectation(tree, values)
    if parent_values is not None:
        parent = np.asarray(parent_values, dtype=float)
        if parent.shape != mean.shape:
            raise ValueError("parent level does not match the child level")
        scale = max(1.0, float(np.max(np.abs(values))))
        residual = float(np.max(np.abs(parent - mean)))
        if residual > tol * scale:
            raise ValueError(
                f"not a martingale increment: reconstruction residual {residual:.3e}"
            )
    return (values[1::2] - values[0::2]) / (2.0 * tree.sqrt_dt)


# ----------------------------------------------------------------------
# stopping-rule enumeration and brute-force reward evaluation


@lru_cache(maxsize=None)
def _plans_for_depth(remaining: int) -> tuple:
    """All nested plans for a subtree with ``remaining`` levels below it."""
    if remaining == 0:
        return (("point",),)
    below = _plans_for_depth(remaining - 1)
    plans = [("point",), ("after",)]
    for down in below:
        for up in below:
            plans.append(("cont", down, up))
    return tuple(plans)


def count_stopping_rules(remaining: int) -> int:
    """Closed-form rule count: r(0) = 1 at the bottom, r = 2 + r_below**2."""
    count = 1
    for _ in range(remaining):
        count = 2 + count * count
    return count


def enumerate_stopping_rules(tree: TreeSpace, from_level: int = 0) -> list[StoppingRule]:
    """Exhaustive duplicate-free enumeration of adapted absorbing rules.

    Rules are rooted at a single node of ``from_level``.  The subtree depth
    is capped because the count grows doubly exponentially.
    """
    if not 0 <= from_level <= tree.depth:
        raise ValueError(f"from_level {from_level} out of range")
    remaining = tree.depth - from_level
    if remaining > ORACLE_DEPTH_CAP:
        raise ValueError(
            f"rule enumeration capped at subtree depth {ORACLE_DEPTH_CAP}, got {remaining}"
        )
    return [StoppingRule(from_level, plan) for plan in _plans_for_depth(remaining)]


def expected_reward(
    tree: TreeSpace,
    rule: StoppingRule,
    running: AdaptedRegulatedProcess | None,
    barrier: AdaptedRegulatedProcess,
    terminal: np.ndarray,
    driver: AdaptedRegulatedProcess | None = None,
    node: int = 0,
) -> float:
    """Expected stopped reward of one rule, conditional on ``node``.

    Accumulates the running integrand (its interval value times dt) and every
    driver increment crossed strictly before the stop, then adds the stopped
    payoff: the barrier point value when stopping at a grid point, the barrier
    right value plus the driver right jump when stopping just after one, and
    the terminal payoff at the final level.  Stopping just after t_i collects
    the driver right jump at t_i but no interval accrual, matching a stopping
    time that shrinks to the left end of the open interval.
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape[0] != tree.n_nodes(tree.depth):
        raise ValueError("terminal payoff has the wrong number of leaves")
    g_right = (running if running is not None else AdaptedRegulatedProcess.zeros(tree)).right
    dt = tree.dt

    def dplus_v(level: int) -> np.ndarray:
        return driver.delta_plus(level) if driver is not None else np.zeros(tree.n_nodes(level))

    def dminus_v(level: int) -> np.ndarray:
        return driver.delta_minus(level) if driver is not None else np.zeros(tree.n_nodes(level))

    def value(level: int, k: int, plan: tuple) -> float:
        mode = plan[0]
        if mode == "point":
            if level == tree.depth:
                return float(terminal[k])
            return float(barrier.point[level][k])
        if mode == "after":
            return float(dplus_v(level)[k] + barrier.right[level][k])
        acc = float(dplus_v(level)[k] + g_right[level][k] * dt)
        children = 0.0
        for b in (0, 1):
            child = 2 * k + b
            children += 0.5 * (
                float(dminus_v(level + 1)[child]) + value(level + 1, child, plan[1 + b])
            )
        return acc + children

    if rule.from_level == tree.depth and rule.plan != ("point",):
        raise ValueError("terminal-level rules must stop at the point")
    return value(rule.from_level, node, rule.plan)


def rule_value_fields(
    tree: TreeSpace,
    barrier: AdaptedRegulatedProcess,
    terminal: np.ndarray,
    driver: AdaptedRegulatedProcess | None = None,
    running_right: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-node supremum of expected stopped rewards over all rules.

    Evaluates every enumerated plan at every node by backward sweep over the
    plan graph and maximizes at the end, without any interleaved reflection
    logic.  Returns the point-value field (sup over all plans, terminal row
    equal to the terminal payoff) and the right-value field (sup over plans
    that do not stop at the current point, minus the driver right jump that a
    time strictly after t_i no longer collects).

    This is the brute-force side of the envelope and representation checks,
    so the subtree depth is capped.
    """
    if tree.depth > ORACLE_DEPTH_CAP:
        raise ValueError(f"brute-force evaluation capped at depth {ORACLE_DEPTH_CAP}")
    terminal = np.asarray(terminal, dtype=float)
    dt = tree.dt
    if running_right is None:
        running_right = [np.zeros(tree.n_nodes(i)) for i in range(tree.depth)]

    point_sup: list[np.ndarray | None] = [None] * (tree.depth + 1)
    right_sup: list[np.ndarray | None] = [None] * tree.depth
    point_sup[tree.depth] = terminal.copy()

    # values[j] is the reward of plan j at every node of the current level
    values = terminal[np.newaxis, :]
    for level in range(tree.depth - 1, -1, -1):
        dplus_v = driver.delta_plus(level) if driver is not None else 0.0
        dminus_v = (
            driver.delta_minus(level + 1)
            if driver is not None
            else np.zeros(tree.n_nodes(level + 1))
        )
        down = values[:, 0::2] + dminus_v[0::2]
        up = values[:, 1::2] + dminus_v[1::2]
        n_plans = values.shape[0]
        n_nodes = tree.n_nodes(level)
        cont = 0.5 * (down[:, np.newaxis, :] + up[np.newaxis, :, :])
        cont = cont.reshape(n_plans * n_plans, n_nodes)
        cont += dplus_v + running_right[level] * dt
        stop_point = barrier.point[level][np.newaxis, :]
        stop_after = (dplus_v + barrier.right[level])[np.newaxis, :]
        values = np.concatenate([stop_point, stop_after, cont], axis=0)
        point_sup[level] = values.max(axis=0)
        right_sup[level] = values[1:].max(axis=0) - dplus_v
    return point_sup, right_sup
