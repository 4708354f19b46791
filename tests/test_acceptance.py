"""Release gate for the whole laboratory.

Each test is one numbered check and prints a single verdict line with the
worst observed figure, so the verbose run doubles as the sign-off record.
Scenario streams are cached at module level: the contact check replays the
exact solves produced by the oracle and agreement checks instead of a fresh
sample.
"""

import textwrap
import time

import numpy as np

from rbsdelab.bsde import exponential_transform
from rbsdelab.cli import run_experiment
from rbsdelab.grid_path import TimeGrid
from rbsdelab.ito_regulated import (
    DiscreteSemimartingalePath,
    cor4_inequality_check,
    ito_residual,
    make_function,
    power_jump_terms,
    power_residual,
    product_residual,
    random_path,
    random_path_away_from_zero,
)
from rbsdelab.penalization import convergence_study, sigma_array, step_one_barrier
from rbsdelab.rbsde import (
    ReflectedProblem,
    compare_solutions,
    solution_distance,
    solve_reflected_direct,
    solve_via_reduction,
    stopping_representation_check,
    verify_solution,
)
from rbsdelab.scenarios import (
    cadlag_scenario,
    equal_barrier_pair,
    interval_table_scenario,
    ordered_pair,
    perturbation_pair,
    random_scenario,
    refinable_scenario,
    representation_scenario,
    snell_scenario,
)
from rbsdelab.snell import brute_force_snell, minimality_residuals, snell_envelope

from conftest import sup_gap

SEED = 20260825
PENALTY_LEVELS = [2 ** j for j in range(13)]

_SNELL_CASES: list = []
_REPRESENTATION_CASES: list = []
_AGREEMENT_CASES: list = []


def _report(num: int, passed: bool, label: str, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {num:02d} {verdict} {label} ({detail})"
    print(line)
    assert passed, line


def _snell_cases():
    if not _SNELL_CASES:
        rng = np.random.default_rng(SEED + 1)
        for index in range(100):
            sc = snell_scenario(rng, 1 + index % 4, name=f"snell-{index:03d}")
            _SNELL_CASES.append((sc, snell_envelope(sc.barrier, sc.terminal)))
    return _SNELL_CASES


def _representation_cases():
    if not _REPRESENTATION_CASES:
        rng = np.random.default_rng(SEED + 2)
        for index in range(50):
            sc = representation_scenario(rng, 1 + index % 4, name=f"repr-{index:03d}")
            trip = solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)
            _REPRESENTATION_CASES.append((sc, trip))
    return _REPRESENTATION_CASES


def _agreement_cases():
    if not _AGREEMENT_CASES:
        rng = np.random.default_rng(SEED + 3)
        for index in range(100):
            depth = 1 + index % 8
            if index % 5 == 4:
                sc = interval_table_scenario(rng, depth, name=f"table-{index:03d}")
            else:
                sc = random_scenario(rng, depth, name=f"agree-{index:03d}")
            direct = solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)
            reduced = solve_via_reduction(
                sc.terminal, sc.gen, sc.driver, sc.barrier, bound=sc.bound
            )
            _AGREEMENT_CASES.append((sc, direct, reduced))
    return _AGREEMENT_CASES


def test_criterion_01_envelope_matches_exhaustive_oracle():
    start = time.perf_counter()
    worst = 0.0
    for sc, dec in _snell_cases():
        oracle = brute_force_snell(sc.barrier, sc.terminal)
        scale = max(dec.value.scale(), oracle.scale())
        worst = max(worst, sup_gap(dec.value, oracle) / scale)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 60.0,
        "backward envelope equals the exhaustive stopping oracle",
        f"100 scenarios, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_solution_solves_the_stopping_problem():
    worst = 0.0
    for sc, trip in _representation_cases():
        dev = stopping_representation_check(
            trip, sc.terminal, sc.gen, sc.driver, sc.barrier
        )
        worst = max(worst, dev / trip.value.scale())
    _report(
        2,
        worst <= 1e-10,
        "reflected solves equal the frozen-reward stopping values",
        f"50 scenarios, worst deviation {worst:.2e}",
    )


def test_criterion_03_direct_and_reduction_routes_agree():
    worst = 0.0
    for _, direct, reduced in _agreement_cases():
        dist = solution_distance(direct, reduced)
        scale = max(direct.value.scale(), reduced.value.scale())
        worst = max(worst, max(dist.values()) / scale)
    _report(
        3,
        worst <= 1e-9,
        "direct and reduction routes agree on all five components",
        f"100 scenarios, worst gap {worst:.2e}",
    )


def test_criterion_04_charges_act_only_on_contact():
    worst_cont = 0.0
    worst_jump = 0.0
    for sc, dec in _snell_cases():
        cont, jump = minimality_residuals(dec, sc.barrier)
        scale = dec.value.scale()
        worst_cont = max(worst_cont, abs(cont) / scale)
        worst_jump = max(worst_jump, abs(jump) / scale)
    reflected = [(sc, trip) for sc, trip in _representation_cases()]
    reflected += [(sc, direct) for sc, direct, _ in _agreement_cases()]
    for sc, trip in reflected:
        report = verify_solution(trip, sc.terminal, sc.gen, sc.driver, sc.barrier)
        scale = trip.value.scale()
        worst_cont = max(worst_cont, abs(report.minimality_continuous) / scale)
        worst_jump = max(worst_jump, abs(report.minimality_right_jump) / scale)

    # right-continuous specialization: no right charges at all, so the
    # whole flat-off residual sits in the interval pairing
    rng = np.random.default_rng(SEED + 4)
    cadlag_ok = True
    for index in range(25):
        sc = cadlag_scenario(rng, 1 + index % 6, name=f"cadlag-{index:03d}")
        trip = solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)
        report = verify_solution(trip, sc.terminal, sc.gen, sc.driver, sc.barrier)
        if any(np.any(r != 0.0) for r in trip.increments.right):
            cadlag_ok = False
        if report.minimality_right_jump != 0.0:
            cadlag_ok = False
        if abs(report.minimality_continuous) > 1e-10 * trip.value.scale():
            cadlag_ok = False
    _report(
        4,
        worst_cont <= 1e-10 and worst_jump <= 1e-10 and cadlag_ok,
        "charges act only on barrier contact, right charges vanish when cadlag",
        f"250 solves, worst residuals {worst_cont:.2e}/{worst_jump:.2e}",
    )


def test_criterion_05_penalty_approximations_converge_monotonically():
    rng = np.random.default_rng(SEED + 5)
    eps = np.finfo(float).eps
    failures = []
    worst_final = 0.0
    for index in range(20):
        sc = random_scenario(rng, 1 + index % 6, name=f"penalty-{index:03d}")
        study = convergence_study(
            sc.terminal, sc.gen, sc.driver, sc.barrier, PENALTY_LEVELS
        )
        scale = study.reference.value.scale()
        slack = 1e-12 * scale
        gaps = [row.sup_gap_y for row in study.rows]
        worst_final = max(worst_final, gaps[-1] / scale)

        if any(row.monotonicity_violation != 0.0 for row in study.rows):
            failures.append((index, "ordering"))
        if gaps[-1] > 1e-2 * scale:
            failures.append((index, "final gap"))
        # strict decrease until the gap sits at rounding level
        floor = 100.0 * eps * scale
        if not all(b < a or a <= floor for a, b in zip(gaps, gaps[1:])):
            failures.append((index, "value decrease"))
        # the integrand gap may rise while the penalty barely bites, then
        # falls monotonically; demand an early peak and a minimal final gap
        l1 = [row.l1_gap_z for row in study.rows]
        peak = int(np.argmax(l1))
        tail_falls = all(b <= a + slack for a, b in zip(l1[peak:], l1[peak + 1 :]))
        if peak > 4 or not tail_falls or l1[-1] > min(l1) + slack:
            failures.append((index, "integrand decrease"))
        arrays = [sigma_array(sc.barrier, sc.driver, n) for n in PENALTY_LEVELS]
        if not all(b.contains(a) for a, b in zip(arrays, arrays[1:])):
            failures.append((index, "detection nesting"))
        # one mid-strength level solves the reflected problem exactly once
        # the barrier is stepped down to what the penalty enforced
        mid = study.solutions[6]
        stepped = step_one_barrier(mid, sc.barrier)
        report = verify_solution(
            mid, sc.terminal, sc.gen, sc.driver, stepped
        )
        if report.max_residual() > 1e-10 * scale:
            failures.append((index, "stepped-barrier solve"))
        if report.domination_margin < -1e-10 * scale:
            failures.append((index, "stepped-barrier domination"))
    _report(
        5,
        not failures,
        "penalty approximations increase to the solution from below",
        f"20 scenarios x 13 strengths, worst final gap {worst_final:.2e}, "
        f"failures {failures!r}",
    )


def test_criterion_06_classic_penalty_reaches_right_limits():
    rng = np.random.default_rng(SEED + 6)
    failures = []
    worst_final = 0.0
    for index in range(10):
        sc = interval_table_scenario(rng, 2 + index % 5, name=f"classic-{index:03d}")
        study = convergence_study(
            sc.terminal,
            sc.gen,
            sc.driver,
            sc.barrier,
            PENALTY_LEVELS,
            mode="classic_vs_transformed",
            bound=sc.bound,
        )
        scale = study.reference.value.scale()
        gaps = [row.sup_gap_y for row in study.rows]
        worst_final = max(worst_final, gaps[-1] / scale)
        if any(row.monotonicity_violation != 0.0 for row in study.rows):
            failures.append((index, "ordering"))
        if gaps[-1] > 1e-2 * scale:
            failures.append((index, "final gap"))
    _report(
        6,
        not failures,
        "uncorrected penalties against the regularized barrier reach the right limits",
        f"10 scenarios, worst final gap {worst_final:.2e}, failures {failures!r}",
    )


def test_criterion_07_order_preserved_under_ordered_data():
    rng = np.random.default_rng(SEED + 7)
    invalid = 0
    y_worst = 0.0
    dk_worst = 0.0
    for index in range(200):
        lo, hi = ordered_pair(rng, 1 + index % 5, name=f"ordered-{index:03d}")
        report = compare_solutions(
            ReflectedProblem(lo.terminal, lo.gen, lo.driver, lo.barrier),
            ReflectedProblem(hi.terminal, hi.gen, hi.driver, hi.barrier),
        )
        if not report.valid:
            invalid += 1
            continue
        y_worst = max(y_worst, report.y_violation)
    for index in range(100):
        lo, hi = equal_barrier_pair(rng, 1 + index % 5, name=f"shared-{index:03d}")
        report = compare_solutions(
            ReflectedProblem(lo.terminal, lo.gen, lo.driver, lo.barrier),
            ReflectedProblem(hi.terminal, hi.gen, hi.driver, hi.barrier),
        )
        if not report.valid or not report.equal_barrier:
            invalid += 1
            continue
        y_worst = max(y_worst, report.y_violation)
        dk_worst = max(dk_worst, max(report.dk_violation.values()))
    _report(
        7,
        invalid == 0 and y_worst == 0.0 and dk_worst == 0.0,
        "ordered data order the values, shared barriers reverse the charges",
        f"300 pairs, invalid {invalid}, violations {y_worst:.2e}/{dk_worst:.2e}",
    )


def _coarsen(path: DiscreteSemimartingalePath, factor: int) -> DiscreteSemimartingalePath:
    """Same trajectory on a grid coarsened by ``factor``.

    Interval increments add up group by group; jumps sit on stride-aligned
    indices by construction, so slicing keeps every one of them.
    """
    steps = path.grid.steps // factor
    cont = path.cont.reshape(steps, factor, path.dimension).sum(axis=1)
    return DiscreteSemimartingalePath(
        TimeGrid(path.grid.horizon, steps),
        path.x0,
        cont,
        path.left_jumps[::factor].copy(),
        path.right_jumps[::factor].copy(),
    )


def test_criterion_08_pathwise_expansions_are_exact_and_consistent():
    rng = np.random.default_rng(SEED + 8)
    grid16 = TimeGrid(1.0, 16)

    exact_worst = 0.0
    saw_left = saw_right = False
    cor_failures = 0
    jump_min = 0.0
    for index in range(200):
        dimension = 1 + index % 3
        path = random_path(grid16, dimension, rng, jump_rate=0.4)
        saw_left |= bool(np.any(path.left_jumps != 0.0))
        saw_right |= bool(np.any(path.right_jumps != 0.0))
        quad = make_function("quadratic", dimension)
        exact_worst = max(exact_worst, float(np.max(np.abs(ito_residual(path, quad)))))
        if dimension == 1:
            other = random_path(grid16, 1, rng, jump_rate=0.4)
            exact_worst = max(
                exact_worst, float(np.max(np.abs(product_residual(path, other))))
            )
        exact_worst = max(
            exact_worst, float(np.max(np.abs(power_residual(path, 2.0).residual)))
        )
        for p in (1.0, 1.5, 2.0):
            ok, _ = cor4_inequality_check(path, p, tol=1e-10)
            if not ok:
                cor_failures += 1
            jminus, jplus = power_jump_terms(path, p)
            jump_min = min(jump_min, float(np.min(jminus)), float(np.min(jplus)))

    # refinement study on nested grids sharing one underlying trajectory;
    # the sup-residual scales like a random walk of third-order step
    # errors, so a few dozen paths are needed for a stable slope
    rng = np.random.default_rng(SEED + 88)
    draws = 60
    sizes = np.array([64.0, 128.0, 256.0])
    fine_grid = TimeGrid(1.0, 256)
    slopes = []
    for spec, dimension in (("cubic", 1), ("sin_sum", 3)):
        sups = np.zeros(3)
        fn = make_function(spec, dimension)
        for _ in range(draws):
            fine = random_path(
                fine_grid,
                dimension,
                rng,
                cont_sigma=0.25,
                jump_scale=0.4,
                jump_rate=0.5,
                jump_stride=16,
            )
            for j, factor in enumerate((4, 2, 1)):
                sups[j] += float(np.max(np.abs(ito_residual(_coarsen(fine, factor), fn))))
        slopes.append(-np.polyfit(np.log(sizes), np.log(sups / draws), 1)[0])
    sups = np.zeros(3)
    for _ in range(draws):
        fine = random_path_away_from_zero(
            fine_grid,
            2,
            rng,
            margin=0.4,
            x0=np.array([1.5, 1.2]),
            cont_sigma=0.15,
            jump_scale=0.2,
            jump_rate=0.5,
            jump_stride=16,
        )
        for j, factor in enumerate((4, 2, 1)):
            res = power_residual(_coarsen(fine, factor), 1.5, margin=0.3).residual
            sups[j] += float(np.max(np.abs(res)))
    slopes.append(-np.polyfit(np.log(sizes), np.log(sups / draws), 1)[0])

    ok = (
        exact_worst <= 1e-12
        and saw_left
        and saw_right
        and cor_failures == 0
        and jump_min >= -1e-12
        and all(0.75 <= s <= 1.25 for s in slopes)
    )
    _report(
        8,
        ok,
        "second-order expansions exact, tail bounds hold, defects decay at first order",
        f"exactness {exact_worst:.2e}, tail failures {cor_failures}, "
        f"slopes {[round(float(s), 3) for s in slopes]}",
    )


def test_criterion_09_exponential_scaling_commutes_with_solving():
    gaps = []
    for depth in (4, 8, 16):
        sc = refinable_scenario(depth)
        trip = solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)
        moved = exponential_transform(
            1.0, sc.terminal, sc.gen, sc.driver, barrier=sc.barrier, solution=trip
        )
        direct = solve_reflected_direct(
            moved.terminal, moved.gen, moved.driver, moved.barrier
        )
        gaps.append(sup_gap(moved.candidate.value, direct.value))
    slope = -np.polyfit(np.log([4.0, 8.0, 16.0]), np.log(gaps), 1)[0]
    _report(
        9,
        0.7 <= slope <= 1.3,
        "scaled solutions approach the solutions of the scaled problems",
        f"gaps {[round(float(g), 4) for g in gaps]}, slope {float(slope):.3f}",
    )


def test_criterion_10_solution_stable_under_data_perturbation():
    rng = np.random.default_rng(SEED + 10)
    violations = 0
    worst_excess = -np.inf
    for index in range(100):
        pair = perturbation_pair(rng, 1 + index % 5, name=f"stable-{index:03d}")
        assert len(pair) == 2
        base, shifted = pair
        trip_a = solve_reflected_direct(
            base.terminal, base.gen, base.driver, base.barrier
        )
        trip_b = solve_reflected_direct(
            shifted.terminal, shifted.gen, shifted.driver, shifted.barrier
        )
        value_gap = sup_gap(trip_a.value, trip_b.value)

        tree = base.tree
        barrier_gap = sup_gap(base.barrier, shifted.barrier)
        terminal_gap = float(np.mean(np.abs(base.terminal - shifted.terminal)))
        forcing_gap = 0.0
        for i in range(tree.depth):
            zeros = np.zeros(tree.n_nodes(i))
            diff = base.gen(i, zeros, zeros) - shifted.gen(i, zeros, zeros)
            forcing_gap += float(np.mean(np.abs(diff))) * tree.dt
        excess = value_gap - (barrier_gap + forcing_gap + terminal_gap + 1e-10)
        worst_excess = max(worst_excess, excess)
        if excess > 0.0:
            violations += 1
    _report(
        10,
        violations == 0,
        "value gaps stay below the summed data gaps",
        f"100 pairs, violations {violations}, worst excess {worst_excess:.3f}",
    )


def test_criterion_11_experiment_runs_are_byte_identical(tmp_path):
    def tree_of_files(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    solve_config = tmp_path / "solve.ini"
    solve_config.write_text(
        textwrap.dedent(
            """\
            [experiment]
            kind = solve
            depth = 3
            count = 4
            seed = 11
            method = both
            """
        )
    )
    ito_config = tmp_path / "ito.ini"
    ito_config.write_text(
        textwrap.dedent(
            """\
            [experiment]
            kind = ito-check
            steps = 16
            paths = 5
            dimension = 2
            seed = 2
            """
        )
    )
    codes = []
    trees = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / f"solve-{name}"
        codes.append(run_experiment(str(solve_config), str(out), jobs=jobs))
        trees.append(tree_of_files(out))
    for name in ("a", "b"):
        out = tmp_path / f"ito-{name}"
        codes.append(run_experiment(str(ito_config), str(out)))
        trees.append(tree_of_files(out))
    ok = (
        all(code == 0 for code in codes)
        and trees[0] == trees[1] == trees[2]
        and trees[3] == trees[4]
    )
    _report(
        11,
        ok,
        "repeated runs produce byte-identical artifacts, also across workers",
        f"exit codes {codes}, solve files {len(trees[0])}, path files {len(trees[3])}",
    )
