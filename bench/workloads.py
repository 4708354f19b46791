"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

A workload is built once per process from ``(seed, inputs_dir,
config_seeds)``; building it is the input generation counted in
``setup_s``.  ``pick_seeds(seed)`` chooses the config seeds beforehand (see
:func:`mixed_seed`), so that their scan is not counted as set-up.  :meth:`run_pass` runs
one pass into a fresh, empty ``out_dir`` and returns the seconds spent in
the program under test (checks and digests excluded) and one :class:`Op`
per operation: one CLI verb invocation or one library solve.  An operation
fails when it raises, exits nonzero or fails its correctness check; its
digest lets the caller check that repeated passes write identical bytes.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from rbsdelab import cli, rbsde, scenarios
from rbsdelab.bsde import make_generator


CANDIDATES = 12
STEEP_SCALE = 30.0


class Op(NamedTuple):
    name: str
    ok: bool
    digest: str


# ----------------------------------------------------------------------
# helpers


def tree_digest(root: str) -> str:
    """sha256 over every file below ``root``: relative path, size, bytes."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            digest.update(os.path.getsize(path).to_bytes(8, "little"))
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest()


def tree_size(root: str) -> tuple[int, int]:
    """(bytes, files) below ``root``."""
    size = files = 0
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            size += os.path.getsize(os.path.join(dirpath, filename))
            files += 1
    return size, files


def solution_digest(trip) -> str:
    """sha256 over the float64 bytes of Y, Z and the three K components."""
    digest = hashlib.sha256()
    k = trip.increments
    for group in (trip.value.point, trip.value.right, trip.integrand, k.interval, k.left, k.right):
        for level in group:
            digest.update(np.ascontiguousarray(level, dtype=np.float64).tobytes())
    return digest.hexdigest()


def summary_passes(out_dir: str) -> bool:
    """Every row of the verb's ``summary.csv`` has status ``pass``."""
    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    return (
        header.rsplit(",", 1)[-1] == "status"
        and bool(rows)
        and all(row.rsplit(",", 1)[-1] == "pass" for row in rows)
    )


def mixed_seed(seed: int, kinds, cubic: int) -> int:
    """The config seed, of ``CANDIDATES`` derived from ``seed``, for which
    ``kinds(config_seed)`` names a count of monotone_cubic generators closest
    to ``cubic`` (the first on ties).

    A cubic instance costs several times a linear one, so a free mix makes
    the pass time depend on the seed by more than any useful bound; fixing
    the mix at its expected share keeps every other draw random.  Scanning a
    fixed number of candidates keeps the scan's cost independent of the seed.
    """

    def miss(candidate: int) -> int:
        return abs(sum(name.startswith("monotone_cubic:") for name in kinds(candidate)) - cubic)

    return min((1000 * seed + k for k in range(CANDIDATES)), key=miss)


def scenario_kinds(depth: int, count: int):
    """Generators of the random instances the solve and penalize verbs build."""
    return lambda seed: [
        scenarios.random_scenario(cli._scenario_rng(seed, i), depth).gen.name
        for i in range(count)
    ]


def pair_kinds(count: int):
    """Generators of the compare verb's pairs: both pair builders draw it first."""
    return lambda seed: [
        scenarios.random_generator(cli._scenario_rng(seed, i), allow_z=False).name
        for i in range(count)
    ]


def _write_config(path: str, verb: str, seed: int, body: dict) -> None:
    lines = ["[experiment]", f"kind = {verb}", f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in body.items()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# workloads


class CliWorkload:
    """A fixed list of CLI verb invocations, each into its own directory."""

    jobs = 1

    def __init__(self, runs: list[tuple[str, str, int, dict]], inputs_dir: str) -> None:
        self.runs = []
        for label, verb, config_seed, body in runs:
            path = os.path.join(inputs_dir, f"{label}.ini")
            _write_config(path, verb, config_seed, body)
            self.runs.append((label, verb, path))
        self.config_seeds = {label: config_seed for label, _, config_seed, _ in runs}

    def run_pass(self, out_dir: str, jobs: int) -> tuple[float, list[Op]]:
        elapsed = 0.0
        codes = []
        for label, verb, config in self.runs:
            target = os.path.join(out_dir, label)
            os.mkdir(target)
            argv = [verb, "--config", config, "--out-dir", target, "--jobs", str(jobs)]
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
            elapsed += time.perf_counter() - start
            codes.append(code)
        ops = []
        for (label, _, _), code in zip(self.runs, codes):
            target = os.path.join(out_dir, label)
            ok = code == cli.EXIT_OK and summary_passes(target)
            ops.append(Op(label, ok, tree_digest(target)))
        return elapsed, ops


class SolveDeep(CliWorkload):
    name = "solve-deep"
    expected_dominant = "cli"
    jobs = 2

    @staticmethod
    def pick_seeds(seed: int, depth: int = 16, count: int = 8) -> dict[str, int]:
        return {"solve": mixed_seed(seed, scenario_kinds(depth, count), count // 4)}

    def __init__(
        self,
        seed: int,
        inputs_dir: str,
        config_seeds: dict[str, int],
        depth: int = 16,
        count: int = 8,
    ) -> None:
        body = {"depth": depth, "count": count, "method": "both"}
        super().__init__([("solve", "solve", config_seeds["solve"], body)], inputs_dir)


class LabChecks(CliWorkload):
    name = "lab-checks"
    expected_dominant = "bsde"

    @staticmethod
    def pick_seeds(
        seed: int,
        penalize_depth: int = 14,
        penalize_count: int = 4,
        compare_count: int = 200,
        **_sizes,
    ) -> dict[str, int]:
        kinds = scenario_kinds(penalize_depth, penalize_count)
        return {
            "penalize": mixed_seed(seed, kinds, penalize_count // 4),
            "compare": mixed_seed(seed, pair_kinds(compare_count), compare_count // 4),
        }

    def __init__(
        self,
        seed: int,
        inputs_dir: str,
        config_seeds: dict[str, int],
        penalize_depth: int = 14,
        penalize_count: int = 4,
        penalize_levels: int = 13,
        oracle_count: int = 400,
        compare_count: int = 200,
        ito_steps: int = 256,
        ito_paths: int = 24,
    ) -> None:
        penalize_seed = config_seeds["penalize"]
        compare_seed = config_seeds["compare"]
        levels = ",".join(str(2 ** k) for k in range(penalize_levels))
        penalize = {"depth": penalize_depth, "count": penalize_count, "levels": levels}
        super().__init__(
            [
                ("penalize-modified", "penalize", penalize_seed, {**penalize, "mode": "modified"}),
                (
                    "penalize-classic",
                    "penalize",
                    penalize_seed,
                    {**penalize, "mode": "classic_vs_transformed"},
                ),
                ("oracle-check", "oracle-check", seed, {"depth": 4, "count": oracle_count}),
                ("compare", "compare", compare_seed, {"depth": 8, "count": compare_count}),
                (
                    "ito-check",
                    "ito-check",
                    seed,
                    {"steps": ito_steps, "paths": ito_paths, "dimension": 3, "powers": "1,1.5,2"},
                ),
            ],
            inputs_dir,
        )


class SweepSteep:
    """Library solves of steep cubic generators; no CSV.

    Each instance is a random scenario with its data (terminal, barrier,
    driver) scaled by ``STEEP_SCALE``.  At that size |f_y| dt = |3y^2 - mu| dt
    is large enough that the fixed-point iteration of the implicit step
    stalls at nearly every level and the bisection fallback runs.  At the
    unscaled size a fallback happens at a few random levels, and whether one
    lands on a deep level set the pass time anywhere between 2.4 s and 3.1 s
    across six seeds (four depth-18 instances).
    """

    name = "sweep-steep"
    expected_dominant = "bsde"
    jobs = 1

    @staticmethod
    def pick_seeds(seed: int, **_sizes) -> dict[str, int]:
        return {}

    def __init__(
        self,
        seed: int,
        inputs_dir: str,
        config_seeds: dict[str, int],
        depth: int = 16,
        count: int = 4,
    ) -> None:
        rng = np.random.default_rng([seed, 18])
        self.instances = []
        for i in range(count):
            gen = make_generator(f"monotone_cubic:{float(rng.uniform(0.0, 0.5))!r}")
            base = scenarios.random_scenario(rng, depth, gen=gen)
            self.instances.append(
                scenarios.Scenario(
                    f"steep-{i}",
                    base.tree,
                    base.terminal * STEEP_SCALE,
                    gen,
                    base.driver * STEEP_SCALE,
                    base.barrier * STEEP_SCALE,
                )
            )
        self.config_seeds = {}

    def run_pass(self, out_dir: str, jobs: int) -> tuple[float, list[Op]]:
        elapsed = 0.0
        ops = []
        for sc in self.instances:
            start = time.perf_counter()
            try:
                direct = rbsde.solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)
                reduced = rbsde.solve_via_reduction(
                    sc.terminal, sc.gen, sc.driver, sc.barrier, bound=sc.bound
                )
                report = rbsde.verify_solution(direct, sc.terminal, sc.gen, sc.driver, sc.barrier)
                gap = max(rbsde.solution_distance(direct, reduced).values())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                elapsed += time.perf_counter() - start
                ops += [Op(f"{sc.name}/direct", False, ""), Op(f"{sc.name}/reduction", False, "")]
                continue
            elapsed += time.perf_counter() - start
            # the CLI's own pass rule for a solve, at the scenario's scale
            tol = max(sc.scale(), direct.value.scale())
            verified = (
                report.dynamics_residual <= cli.RESIDUAL_TOL * tol
                and abs(report.minimality_continuous) <= cli.RESIDUAL_TOL * tol
                and abs(report.minimality_right_jump) <= cli.RESIDUAL_TOL * tol
                and report.domination_margin >= -cli.CHARGE_TOL * tol
                and report.negative_charge >= -cli.CHARGE_TOL * tol
            )
            ops.append(Op(f"{sc.name}/direct", verified, solution_digest(direct)))
            ops.append(
                Op(f"{sc.name}/reduction", gap <= cli.ROUTE_TOL * tol, solution_digest(reduced))
            )
        return elapsed, ops


WORKLOADS = {w.name: w for w in (SolveDeep, SweepSteep, LabChecks)}
