"""Batch experiment runner: configs in, deterministic CSV artifacts out.

Every run is a pure function of the config file and the seed; floats are
printed with seventeen significant digits and files are written atomically,
so repeated runs produce byte-identical artifacts.  The exit status is zero
exactly when every asserted invariant of the run passed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np

from .grid_path import TimeGrid
from .tree_space import ORACLE_DEPTH_CAP
from .bsde import SolverError
from .snell import brute_force_snell, minimality_residuals, snell_envelope
from .rbsde import (
    ReflectedProblem,
    compare_solutions,
    solution_distance,
    solve_reflected_direct,
    solve_via_reduction,
    stopping_representation_check,
    verify_solution,
)
from .penalization import ConvergenceStudy, convergence_study
from .ito_regulated import (
    cor4_inequality_check,
    ito_residual,
    make_function,
    power_jump_terms,
    product_residual,
    random_path,
    serialize_path_csv,
)
from .scenarios import (
    equal_barrier_pair,
    load_config,
    make_tree,
    ordered_pair,
    random_scenario,
    representation_scenario,
    scenario_from_config,
    snell_scenario,
)

__all__ = ["main", "run_experiment", "emit_convergence_table", "fit_rate"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

RESIDUAL_TOL = 1e-10
CHARGE_TOL = 1e-12
ROUTE_TOL = 1e-9
EXACTNESS_TOL = 1e-12
SLACK_TOL = 1e-10


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _write_atomic(path: str, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` to ``path`` atomically.

    ``parts`` is consumed while the file is written.  If writing or the
    iterable raises, the temporary file is removed and ``path`` is untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(parts)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _scenario_rng(seed: int, index: int) -> np.random.Generator:
    # Seeding on the pair keeps scenarios independent of worker scheduling.
    return np.random.default_rng([int(seed), int(index)])


def _map_ordered(fn, items, jobs: int) -> Iterator:
    """Yield ``fn(item)`` for every item, in input order, as results arrive.

    At most ``jobs`` items are started and not yet yielded, so finished
    results never pile up behind a slow earlier one; the memory held at once
    does not depend on how the workers happen to be scheduled.
    """
    if jobs <= 1:
        yield from map(fn, items)
        return
    items = iter(items)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque(pool.submit(fn, item) for item in islice(items, jobs))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result


def fit_rate(levels, gaps) -> float | None:
    """Decay order of ``gaps`` against ``levels`` by log-log least squares.

    Returns None when fewer than two positive gaps are available.
    """
    xs = []
    ys = []
    for level, gap in zip(levels, gaps):
        if gap > 0.0:
            xs.append(float(level))
            ys.append(float(gap))
    if len(xs) < 2:
        return None
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return float(-slope)


def emit_convergence_table(study: ConvergenceStudy) -> str:
    """Fixed-schema CSV for a penalization study."""
    if not study.rows:
        raise ValueError("empty study")
    lines = [",".join(study.header())]
    for row in study.rows:
        n, *rest = row.values()
        lines.append(",".join([str(int(n))] + [_fmt(v) for v in rest]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# experiment kinds


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


_POINT_ROW = ",%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
# No right value, integrand, interval charge or right jump after the horizon.
_TERMINAL_ROW = ",%.17g,,,,%.17g,\n"
_BLOCK_ROWS = 4096


def _solution_rows(name: str, sol) -> Iterator[str]:
    """The ``results.csv`` rows of one solution, one text part per block of rows.

    Each level is formatted column-wise in blocks of at most ``_BLOCK_ROWS``
    nodes: a block's slice of the columns becomes Python floats at once,
    and the level's one ``%`` template renders every node of it.  Only one
    block's text exists at a time, whatever the depth.
    """
    tree = sol.value.tree
    times = tree.grid.times()
    value, k = sol.value, sol.increments
    for level in range(tree.depth + 1):
        if level == tree.depth:
            columns = (value.point[level], k.left[level])
            cells = _TERMINAL_ROW
        else:
            columns = (
                value.point[level],
                value.right[level],
                sol.integrand[level],
                k.interval[level],
                k.left[level],
                k.right[level],
            )
            cells = _POINT_ROW
        prefix = f"{name},{level},".replace("%", "%%")
        template = prefix + "%d," + _fmt(times[level]) + cells
        for start in range(0, tree.n_nodes(level), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = zip(range(start, block.stop), *(column[block].tolist() for column in columns))
            yield "".join(map(template.__mod__, rows))


def _run_solve(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    method = exp.get("method", "both")
    if method not in ("direct", "reduction", "both"):
        raise ValueError(f"unknown method {method!r}")
    depth = exp.getint("depth", 3)
    horizon = exp.getfloat("horizon", 1.0)
    configured = "scenario" in cfg
    count = 1 if configured else exp.getint("count", 12)

    def work(index: int):
        # Each worker builds the scenario it solves, so a batch never holds
        # more instances than there are workers.
        if configured:
            tree = make_tree(depth, horizon)
            scenario = scenario_from_config(cfg["scenario"], tree, name="configured-000")
        else:
            rng = _scenario_rng(seed, index)
            scenario = random_scenario(rng, depth, horizon, name=f"random-{index:03d}")
        data = (scenario.terminal, scenario.gen, scenario.driver, scenario.barrier)
        try:
            gap = None
            if method == "reduction":
                sol = solve_via_reduction(*data, bound=scenario.bound)
            else:
                sol = solve_reflected_direct(*data)
                if method == "both":
                    other = solve_via_reduction(*data, bound=scenario.bound)
                    gap = max(solution_distance(sol, other).values())
            report = verify_solution(sol, *data)
        except (SolverError, ValueError) as exc:
            raise RuntimeError(f"scenario {scenario.name}: {exc}") from exc
        scale = max(scenario.scale(), sol.value.scale()) * tol_scale
        ok = (
            report.dynamics_residual <= RESIDUAL_TOL * scale
            and abs(report.minimality_continuous) <= RESIDUAL_TOL * scale
            and abs(report.minimality_right_jump) <= RESIDUAL_TOL * scale
            and report.domination_margin >= -CHARGE_TOL * scale
            and report.negative_charge >= -CHARGE_TOL * scale
            and (gap is None or gap <= ROUTE_TOL * scale)
        )
        summary = ",".join(
            [
                scenario.name,
                _fmt(scale),
                _fmt(report.dynamics_residual),
                _fmt(report.domination_margin),
                _fmt(report.minimality_continuous),
                _fmt(report.minimality_right_jump),
                _fmt(report.negative_charge),
                "" if gap is None else _fmt(gap),
                _status(ok),
            ]
        )
        return scenario.name, ok, sol, summary

    outcomes = []

    def parts():
        # Rows are formatted here, by the writer, one block at a time, so the
        # text held at once does not depend on the workers' timing.
        yield "scenario,level,node,time,y_point,y_right,z,k_interval,k_left,k_right\n"
        for name, ok, sol, summary in _map_ordered(work, range(count), jobs):
            outcomes.append((ok, summary))
            yield from _solution_rows(name, sol)

    _write_atomic(os.path.join(out_dir, "results.csv"), parts())
    summary_header = (
        "scenario,scale,dynamics_residual,domination_margin,minimality_continuous,"
        "minimality_right_jump,negative_charge,route_gap,status"
    )
    summary = [summary_header] + [entry for _, entry in outcomes]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(summary) + "\n"])
    return all(ok for ok, _ in outcomes)


def _run_oracle(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    depth = exp.getint("depth", 3)
    if depth > ORACLE_DEPTH_CAP:
        raise ValueError(f"oracle checks are capped at depth {ORACLE_DEPTH_CAP}")
    count = exp.getint("count", 20)

    def work(index: int):
        rng = _scenario_rng(seed, index)
        if index % 2 == 0:
            scenario = snell_scenario(rng, depth, name=f"envelope-{index:03d}")
            envelope = snell_envelope(scenario.barrier, scenario.terminal)
            oracle = brute_force_snell(scenario.barrier, scenario.terminal)
            cont, jump = minimality_residuals(envelope, scenario.barrier)
            dev = max(
                float(np.max(np.abs(envelope.value.points - oracle.points))),
                float(np.max(np.abs(envelope.value.rights - oracle.rights))),
                abs(cont),
                abs(jump),
            )
            check = "envelope"
        else:
            scenario = representation_scenario(rng, depth, name=f"stopped-{index:03d}")
            sol = solve_reflected_direct(
                scenario.terminal, scenario.gen, scenario.driver, scenario.barrier
            )
            dev = stopping_representation_check(
                sol, scenario.terminal, scenario.gen, scenario.driver, scenario.barrier
            )
            check = "representation"
        threshold = RESIDUAL_TOL * scenario.scale() * tol_scale
        ok = dev <= threshold
        row = ",".join([scenario.name, check, _fmt(dev), _fmt(threshold), _status(ok)])
        return ok, row

    results = list(_map_ordered(work, range(count), jobs))
    lines = ["scenario,check,deviation,threshold,status"] + [row for _, row in results]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _ in results)


def _run_penalize(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    depth = exp.getint("depth", 4)
    horizon = exp.getfloat("horizon", 1.0)
    mode = exp.get("mode", "modified")
    levels = [int(tok) for tok in exp.get("levels", "1,2,4,8,16,32,64").split(",")]
    configured = "scenario" in cfg
    count = 1 if configured else exp.getint("count", 1)
    cadlag = not configured and exp.getboolean("cadlag", False)

    def work(index: int):
        if configured:
            tree = make_tree(depth, horizon)
            scenario = scenario_from_config(cfg["scenario"], tree, name="configured-000")
        else:
            rng = _scenario_rng(seed, index)
            scenario = random_scenario(rng, depth, horizon, name=f"study-{index:03d}", cadlag=cadlag)
        try:
            study = convergence_study(
                scenario.terminal,
                scenario.gen,
                scenario.driver,
                scenario.barrier,
                levels,
                mode=mode,
                bound=scenario.bound,
            )
        except (SolverError, ValueError) as exc:
            raise RuntimeError(f"scenario {scenario.name}: {exc}") from exc
        table = emit_convergence_table(study)
        worst_mono = max(row.monotonicity_violation for row in study.rows)
        gaps = [row.sup_gap_y for row in study.rows]
        rate = fit_rate(levels, gaps)
        ok = worst_mono <= RESIDUAL_TOL * scenario.scale() * tol_scale
        summary = ",".join(
            [
                scenario.name,
                str(int(levels[-1])),
                _fmt(gaps[-1]),
                _fmt(worst_mono),
                "" if rate is None else _fmt(rate),
                _status(ok),
            ]
        )
        return ok, table, summary

    results = list(_map_ordered(work, range(count), jobs))
    for index, (_, table, _) in enumerate(results):
        _write_atomic(os.path.join(out_dir, f"study_{index:03d}.csv"), [table])
    lines = ["scenario,final_n,final_sup_gap_Y,monotonicity_violation,rate,status"]
    lines += [summary for _, _, summary in results]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _, _ in results)


def _run_ito(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    steps = exp.getint("steps", 16)
    count = exp.getint("paths", 20)
    dimension = exp.getint("dimension", 1)
    powers = [float(tok) for tok in exp.get("powers", "1,1.5,2").split(",")]
    grid = TimeGrid(horizon=exp.getfloat("horizon", 1.0), steps=steps)
    quad = make_function("quadratic", dimension)

    def work(index: int):
        rng = _scenario_rng(seed, index)
        path = random_path(grid, dimension, rng)
        partner = random_path(grid, dimension, rng)
        name = f"path-{index:03d}"
        rows = []
        ok = True

        def add(check: str, value: float, passed: bool) -> None:
            nonlocal ok
            ok = ok and passed
            rows.append(",".join([name, check, _fmt(value), _status(passed)]))

        quad_res = float(np.max(np.abs(ito_residual(path, quad))))
        add("quadratic_residual", quad_res, quad_res <= EXACTNESS_TOL * tol_scale)
        if dimension == 1:
            prod_res = float(np.max(np.abs(product_residual(path, partner))))
            add("product_residual", prod_res, prod_res <= EXACTNESS_TOL * tol_scale)
        for p in powers:
            holds, slack = cor4_inequality_check(path, p, tol=SLACK_TOL * tol_scale)
            add(f"tail_bound_p{p:g}", slack, holds)
            jminus, jplus = power_jump_terms(path, p)
            worst = float(min(np.min(jminus), np.min(jplus)))
            add(f"jump_terms_p{p:g}", worst, worst >= -EXACTNESS_TOL * tol_scale)
        return ok, serialize_path_csv(path), rows

    results = list(_map_ordered(work, range(count), jobs))
    for index, (_, path_csv, _) in enumerate(results):
        _write_atomic(os.path.join(out_dir, f"path_{index:03d}.csv"), [path_csv])
    lines = ["path,check,value,status"]
    for _, _, rows in results:
        lines.extend(rows)
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _, _ in results)


def _run_compare(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    depth = exp.getint("depth", 4)
    count = exp.getint("count", 25)

    def work(index: int):
        rng = _scenario_rng(seed, index)
        if index % 2 == 0:
            first, second = ordered_pair(rng, depth, name=f"pair-{index:03d}")
        else:
            first, second = equal_barrier_pair(rng, depth, name=f"pair-{index:03d}")
        try:
            report = compare_solutions(
                ReflectedProblem(first.terminal, first.gen, first.driver, first.barrier),
                ReflectedProblem(second.terminal, second.gen, second.driver, second.barrier),
            )
        except (SolverError, ValueError) as exc:
            raise RuntimeError(f"pair {index}: {exc}") from exc
        scale = max(first.scale(), second.scale()) * tol_scale
        if not report.valid:
            row = ",".join(
                [f"pair-{index:03d}", "invalid", report.reason or "", "", "", "", "", _status(False)]
            )
            return False, row
        ok = report.y_violation <= RESIDUAL_TOL * scale
        dk = report.dk_violation or {}
        if report.equal_barrier:
            ok = ok and all(v <= RESIDUAL_TOL * scale for v in dk.values())
        row = ",".join(
            [
                f"pair-{index:03d}",
                "equal-barrier" if report.equal_barrier else "ordered",
                "",
                _fmt(report.y_violation),
                _fmt(dk.get("interval", 0.0)),
                _fmt(dk.get("left", 0.0)),
                _fmt(dk.get("right", 0.0)),
                _status(ok),
            ]
        )
        return ok, row

    results = list(_map_ordered(work, range(count), jobs))
    lines = ["pair,kind,reason,y_violation,dk_interval,dk_left,dk_right,status"]
    lines += [row for _, row in results]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _ in results)


_RUNNERS = {
    "solve": _run_solve,
    "penalize": _run_penalize,
    "ito-check": _run_ito,
    "oracle-check": _run_oracle,
    "compare": _run_compare,
}


def run_experiment(
    config_path: str,
    out_dir: str,
    seed: int | None = None,
    jobs: int = 1,
    tolerance_scale: float = 1.0,
    verb: str | None = None,
) -> int:
    """Execute one configured experiment and write its artifacts.

    Returns the process exit status: zero when every asserted invariant
    passed, one otherwise.  Config and numerical errors raise, as do a
    worker count below one and a tolerance scale that is not a finite
    positive number.
    """
    if int(jobs) < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0.0):
        raise ValueError(f"tolerance scale must be finite and positive, got {tolerance_scale}")
    cfg = load_config(config_path)
    kind = cfg["experiment"]["kind"]
    if verb is not None and verb != kind:
        raise ValueError(f"config kind {kind!r} does not match the verb {verb!r}")
    if seed is None:
        seed = cfg["experiment"].getint("seed", 0)
    os.makedirs(out_dir, exist_ok=True)
    ok = _RUNNERS[kind](cfg, out_dir, int(seed), int(jobs), float(tolerance_scale))
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbsdelab",
        description="Reflected-equation laboratory: deterministic batch experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("solve", "reflected solves with verification reports"),
        ("penalize", "penalization convergence studies"),
        ("ito-check", "pathwise change-of-variables checks"),
        ("oracle-check", "envelope and stopped-reward brute-force checks"),
        ("compare", "ordered-pair solution comparisons"),
    ):
        cmd = sub.add_parser(verb, help=text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out-dir", default="results", help="artifact directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel scenario workers")
        cmd.add_argument(
            "--tolerance-scale",
            type=float,
            default=1.0,
            help="multiplier on every pass/fail threshold",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(
            args.config,
            args.out_dir,
            seed=args.seed,
            jobs=args.jobs,
            tolerance_scale=args.tolerance_scale,
            verb=args.verb,
        )
    except (ValueError, RuntimeError, OSError, configparser.Error, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
