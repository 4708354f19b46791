"""Randomized and configured problem instances for the solvers.

Every stochastic draw flows through one numpy Generator supplied by the
caller, so a fixed seed pins the full suite.  Builders keep instances
well-posed by construction: terminal payoffs dominate the barrier, slope
and Lipschitz constants stay inside the contraction margins for any grid
with horizon one, and paired instances preserve the orderings the
comparison tools require.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

from .grid_path import TimeGrid
from .tree_space import AdaptedRegulatedProcess, TreeSpace, build_tree
from .bsde import GeneratorSpec, make_generator, table_generator

__all__ = [
    "DEFAULT_HORIZON",
    "Scenario",
    "make_tree",
    "random_process",
    "random_terminal",
    "random_generator",
    "shifted_generator",
    "level_shifted_generator",
    "random_scenario",
    "snell_scenario",
    "representation_scenario",
    "cadlag_scenario",
    "interval_table_scenario",
    "refinable_scenario",
    "ordered_pair",
    "equal_barrier_pair",
    "perturbation_pair",
    "load_config",
    "scenario_from_config",
    "parse_level_rows",
]

DEFAULT_HORIZON = 1.0


@dataclass
class Scenario:
    """One reflected-equation instance: data, not solutions."""

    name: str
    tree: TreeSpace
    terminal: np.ndarray
    gen: GeneratorSpec
    driver: AdaptedRegulatedProcess
    barrier: AdaptedRegulatedProcess
    bound: np.ndarray | None = None

    def scale(self) -> float:
        return max(
            1.0,
            float(np.max(np.abs(self.terminal))),
            self.barrier.max_abs(),
            self.driver.max_abs(),
        )


def make_tree(depth: int, horizon: float = DEFAULT_HORIZON) -> TreeSpace:
    return build_tree(TimeGrid(horizon=horizon, steps=depth))


def random_process(
    tree: TreeSpace,
    rng: np.random.Generator,
    spread: float = 1.0,
    jump_rate: float = 0.6,
    jump_scale: float = 0.8,
    cadlag: bool = False,
) -> AdaptedRegulatedProcess:
    """Adapted regulated process with independent node draws.

    Point values are uniform around zero; right values add a sparse
    jump unless ``cadlag`` forces them equal to the point values.  Left
    jumps arise implicitly from the independent draws at the next level.
    """
    point = [rng.uniform(-spread, spread, tree.n_nodes(i)) for i in range(tree.depth + 1)]
    right = []
    for i in range(tree.depth):
        if cadlag:
            right.append(point[i].copy())
            continue
        n = tree.n_nodes(i)
        mask = rng.uniform(size=n) < jump_rate
        right.append(point[i] + mask * rng.uniform(-jump_scale, jump_scale, n))
    return AdaptedRegulatedProcess.from_levels(tree, point, right)


def random_terminal(
    tree: TreeSpace,
    rng: np.random.Generator,
    barrier: AdaptedRegulatedProcess,
    spread: float = 1.0,
    margin: float = 0.0,
) -> np.ndarray:
    """Terminal payoff dominating the barrier, often binding when margin is 0."""
    draw = rng.uniform(-spread, spread, tree.n_nodes(tree.depth))
    return np.maximum(draw, barrier.point[tree.depth]) + margin


def random_generator(
    rng: np.random.Generator,
    allow_z: bool = True,
    nonpositive_slope: bool = False,
    nonzero: bool = False,
) -> GeneratorSpec:
    """Registry draw with constants inside the contraction margins.

    Slopes stay within [-0.75, 0.75] and z-coefficients within [-0.5, 0.5],
    valid for any step size up to one.  ``nonpositive_slope`` restricts to
    drivers that never increase in y, ``allow_z=False`` to z-free ones.
    """
    kinds = ["constant", "linear", "monotone_cubic"] + ([] if nonzero else ["zero"])
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "zero":
        return make_generator("zero")
    if kind == "constant":
        c = float(rng.uniform(0.05, 0.6)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        return make_generator(f"constant:{c!r}")
    if kind == "linear":
        a = float(rng.uniform(-0.75, 0.0 if nonpositive_slope else 0.75))
        b = float(rng.uniform(-0.5, 0.5)) if allow_z else 0.0
        if nonzero and abs(a) < 0.05 and abs(b) < 0.05:
            a = -0.5
        return make_generator(f"linear:{a!r},{b!r}")
    mu = 0.0 if nonpositive_slope else float(rng.uniform(0.0, 0.5))
    return make_generator(f"monotone_cubic:{mu!r}")


def shifted_generator(gen: GeneratorSpec, shift: float) -> GeneratorSpec:
    """The same driver raised by a constant; constants, y-slope and declarations unchanged."""
    s = float(shift)

    def fn(level, y, z):
        return gen(level, y, z) + s

    return replace(gen, name=f"{gen.name}+{s!r}", fn=fn)


def level_shifted_generator(
    tree: TreeSpace, gen: GeneratorSpec, deltas: np.ndarray
) -> GeneratorSpec:
    """The driver plus a deterministic offset per interval level; declarations unchanged."""
    offs = np.asarray(deltas, dtype=float).reshape(-1)
    if offs.shape[0] != tree.depth:
        raise ValueError(f"need one offset per interval ({tree.depth}), got {offs.shape[0]}")

    def fn(level, y, z):
        return gen(level, y, z) + offs[level]

    return replace(gen, name=f"{gen.name}+table", fn=fn)


def random_scenario(
    rng: np.random.Generator,
    depth: int,
    horizon: float = DEFAULT_HORIZON,
    name: str = "scenario",
    gen: GeneratorSpec | None = None,
    cadlag: bool = False,
) -> Scenario:
    tree = make_tree(depth, horizon)
    barrier = random_process(tree, rng, cadlag=cadlag)
    driver = random_process(tree, rng, spread=0.5, jump_rate=0.5, jump_scale=0.5, cadlag=cadlag)
    if gen is None:
        gen = random_generator(rng)
    terminal = random_terminal(tree, rng, barrier)
    return Scenario(name, tree, terminal, gen, driver, barrier)


def snell_scenario(rng: np.random.Generator, depth: int, name: str = "snell") -> Scenario:
    """Pure optimal stopping: no driver term, no forcing."""
    tree = make_tree(depth)
    barrier = random_process(tree, rng)
    terminal = random_terminal(tree, rng, barrier)
    return Scenario(
        name,
        tree,
        terminal,
        make_generator("zero"),
        AdaptedRegulatedProcess.zeros(tree),
        barrier,
    )


def representation_scenario(
    rng: np.random.Generator, depth: int, name: str = "representation"
) -> Scenario:
    """Instance with a forcing term and a driver that both matter."""
    scenario = random_scenario(
        rng, depth, name=name, gen=random_generator(rng, nonzero=True)
    )
    return scenario


def cadlag_scenario(rng: np.random.Generator, depth: int, name: str = "cadlag") -> Scenario:
    """Right-continuous barrier and forcing: the classical special case."""
    return random_scenario(rng, depth, name=name, cadlag=True)


def interval_table_scenario(
    rng: np.random.Generator, depth: int, name: str = "interval-table"
) -> Scenario:
    """Driver given by a deterministic per-interval table, with its own
    exact floor attached; the floor equals the table, so floor-based
    reductions introduce no slack."""
    tree = make_tree(depth)
    rows = rng.uniform(-0.5, 0.5, depth)
    gen = table_generator(tree, [np.array([v]) for v in rows], name="interval-table")
    barrier = random_process(tree, rng)
    driver = random_process(tree, rng, spread=0.5, jump_rate=0.5, jump_scale=0.5)
    terminal = random_terminal(tree, rng, barrier)
    return Scenario(name, tree, terminal, gen, driver, barrier, bound=rows)


def _quarter_jump(t: float, horizon: float, down: float, up: float) -> float:
    quarter = horizon / 4.0
    for mult, size in ((1, down), (2, up), (3, down)):
        if abs(t - mult * quarter) < 1e-12:
            return size
    return 0.0


def refinable_scenario(depth: int, horizon: float = DEFAULT_HORIZON) -> Scenario:
    """Deterministic family consistent across refinements.

    Every component is a function of time and the running noise value, with
    jumps pinned to quarter multiples of the horizon, so depths 4, 8, 16
    discretize one and the same problem.
    """
    if depth % 4 != 0:
        raise ValueError("refinable instances need a depth divisible by 4")
    tree = make_tree(depth, horizon)
    noise = tree.brownian()
    times = tree.grid.times()
    point = []
    right = []
    vpoint = []
    vright = []
    for i in range(depth + 1):
        t = times[i]
        base = 0.5 * np.sin(2.0 * np.pi * t / horizon) + 0.4 * noise[i]
        base = base - 0.5 * (t >= 0.5 * horizon)
        point.append(base)
        vbase = 0.2 * np.cos(2.0 * np.pi * t / horizon) + 0.3 * (t >= 0.75 * horizon)
        vpoint.append(np.full(tree.n_nodes(i), vbase))
        if i < depth:
            right.append(base + _quarter_jump(t, horizon, -0.6, 0.3))
            vright.append(vpoint[i] + _quarter_jump(t, horizon, -0.4, 0.2))
    barrier = AdaptedRegulatedProcess.from_levels(tree, point, right)
    driver = AdaptedRegulatedProcess.from_levels(tree, vpoint, vright)
    terminal = np.maximum(0.3 * noise[depth] + 0.2, barrier.point[depth])
    return Scenario(
        f"refinable-{depth}",
        tree,
        terminal,
        make_generator("linear:-0.5,0.3"),
        driver,
        barrier,
    )


def _lifted_process(
    process: AdaptedRegulatedProcess, rng: np.random.Generator, lift: float
) -> AdaptedRegulatedProcess:
    point = process.points + rng.uniform(0.0, lift, process.points.size)
    right = process.rights + rng.uniform(0.0, lift, process.rights.size)
    return AdaptedRegulatedProcess(process.tree, point, right)


def ordered_pair(
    rng: np.random.Generator, depth: int, name: str = "ordered"
) -> tuple[Scenario, Scenario]:
    """Two instances ordered in every compared input, same forcing.

    At least one of terminal, barrier, or driver is lifted; the driver lift
    is a constant so the z-free ordering hypotheses stay intact when they
    are wanted downstream.
    """
    first = random_scenario(rng, depth, name=f"{name}-low", gen=random_generator(rng, allow_z=False))
    which = int(rng.integers(1, 8))
    barrier = first.barrier
    if which & 1:
        barrier = _lifted_process(first.barrier, rng, 0.8)
    gen = first.gen
    if which & 2:
        gen = shifted_generator(first.gen, float(rng.uniform(0.05, 0.6)))
    terminal = first.terminal.copy()
    if which & 4:
        terminal = terminal + rng.uniform(0.0, 1.0, terminal.shape[0])
    terminal = np.maximum(terminal, barrier.point[depth])
    second = Scenario(f"{name}-high", first.tree, terminal, gen, first.driver, barrier)
    return first, second


def equal_barrier_pair(
    rng: np.random.Generator, depth: int, name: str = "equal-barrier"
) -> tuple[Scenario, Scenario]:
    """Identical data except a z-free forcing raised by a constant."""
    gen = random_generator(rng, allow_z=False)
    first = random_scenario(rng, depth, name=f"{name}-low", gen=gen)
    second = Scenario(
        f"{name}-high",
        first.tree,
        first.terminal,
        shifted_generator(gen, float(rng.uniform(0.05, 0.6))),
        first.driver,
        first.barrier,
    )
    return first, second


def perturbation_pair(
    rng: np.random.Generator, depth: int, name: str = "perturbed"
) -> tuple[Scenario, Scenario]:
    """A base instance and a bounded perturbation of it.

    The forcing offset is a deterministic interval table, the terminal
    offset a constant, and the barrier offset an arbitrary bounded process;
    the driver is shared.  The base terminal gets enough headroom that the
    perturbed one still dominates the perturbed barrier.  Slopes are kept
    nonpositive so one-sided comparison arguments apply with no growth
    factor.
    """
    tree = make_tree(depth)
    gen = random_generator(rng, nonpositive_slope=True)
    barrier = random_process(tree, rng)
    driver = random_process(tree, rng, spread=0.5, jump_rate=0.5, jump_scale=0.5)
    deltas = rng.uniform(-0.3, 0.3, depth)
    shift = float(rng.uniform(-0.4, 0.4))
    pert_scale = float(rng.uniform(0.05, 0.25))
    barrier2 = AdaptedRegulatedProcess(
        tree,
        barrier.points + rng.uniform(-pert_scale, pert_scale, barrier.points.size),
        barrier.rights + rng.uniform(-pert_scale, pert_scale, barrier.rights.size),
    )
    headroom = abs(shift) + pert_scale
    terminal = random_terminal(tree, rng, barrier, margin=headroom)
    first = Scenario(f"{name}-base", tree, terminal, gen, driver, barrier)
    second = Scenario(
        f"{name}-shifted",
        tree,
        terminal + shift,
        level_shifted_generator(tree, gen, deltas),
        driver,
        barrier2,
    )
    return first, second


# ----------------------------------------------------------------------
# configuration files


def parse_level_rows(text: str, tree: TreeSpace, levels: int, key: str) -> list[np.ndarray]:
    """Interpret ``a;b,c;...`` as one row per level, scalars broadcasting.

    ``levels`` is the number of rows expected, starting at level 0; ``key``
    names the config key in every error.
    """
    chunks = [chunk.strip() for chunk in text.split(";")]
    if len(chunks) != levels:
        raise ValueError(f"{key} expects {levels} level rows separated by ';', got {len(chunks)}")
    rows = []
    for i, chunk in enumerate(chunks):
        values = _floats(chunk, f"{key} level row {i}")
        if values.shape[0] == 1:
            values = np.full(tree.n_nodes(i), values[0])
        if values.shape[0] != tree.n_nodes(i):
            raise ValueError(
                f"{key} level row {i} needs 1 or {tree.n_nodes(i)} entries, got {values.shape[0]}"
            )
        rows.append(values)
    return rows


def _floats(text: str, key: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise ValueError(f"{key} is not numeric: {text!r}") from exc


def _parse_leaves(text: str, tree: TreeSpace) -> np.ndarray:
    values = _floats(text, "terminal")
    if values.shape[0] == 1:
        values = np.full(tree.n_nodes(tree.depth), values[0])
    if values.shape[0] != tree.n_nodes(tree.depth):
        raise ValueError(
            f"terminal needs 1 or {tree.n_nodes(tree.depth)} entries, got {values.shape[0]}"
        )
    return values


def scenario_from_config(
    section: configparser.SectionProxy, tree: TreeSpace, name: str = "configured"
) -> Scenario:
    """Build one explicit scenario from a config section.

    Recognized keys: ``generator``, ``barrier_point``, ``barrier_right``,
    ``driver_point``, ``driver_right``, ``terminal``, ``bound``.  Missing
    driver rows default to zero; missing right rows default to the point
    rows (right continuity).
    """

    def level_rows(key: str, levels: int) -> list[np.ndarray]:
        return parse_level_rows(section[key], tree, levels, key)

    gen = make_generator(section.get("generator", "zero"))
    if "barrier_point" not in section:
        raise ValueError("scenario section needs barrier_point")
    bpoint = level_rows("barrier_point", tree.depth + 1)
    if "barrier_right" in section:
        bright = level_rows("barrier_right", tree.depth)
    else:
        bright = [row.copy() for row in bpoint[:-1]]
    barrier = AdaptedRegulatedProcess.from_levels(tree, bpoint, bright)
    if "driver_point" in section:
        vpoint = level_rows("driver_point", tree.depth + 1)
        if "driver_right" in section:
            vright = level_rows("driver_right", tree.depth)
        else:
            vright = [row.copy() for row in vpoint[:-1]]
        driver = AdaptedRegulatedProcess.from_levels(tree, vpoint, vright)
    else:
        driver = AdaptedRegulatedProcess.zeros(tree)
    if "terminal" not in section:
        raise ValueError("scenario section needs terminal")
    terminal = _parse_leaves(section["terminal"], tree)
    bound = None
    if "bound" in section:
        bound = _floats(section["bound"], "bound")
    return Scenario(name, tree, terminal, gen, driver, barrier, bound=bound)


_KINDS = ("solve", "penalize", "ito-check", "oracle-check", "compare")


def load_config(path: str) -> configparser.ConfigParser:
    """Read and validate an experiment config.

    Raises
    ------
    configparser.Error
        On malformed syntax (the parser reports the offending line).
    ValueError
        On missing sections or an unknown experiment kind.
    """
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle, source=path)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    kind = parser["experiment"].get("kind", "")
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown kind {kind!r}, expected one of {_KINDS}")
    return parser
