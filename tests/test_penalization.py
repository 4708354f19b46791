import dataclasses
import tracemalloc

import numpy as np
import pytest

from rbsdelab import penalization
from rbsdelab.bsde import make_generator, solve_bsde
from rbsdelab.cli import emit_convergence_table
from rbsdelab.grid_path import TimeGrid
from rbsdelab.penalization import (
    MONOTONE_EQUALITY_TOL,
    STUDY_COLUMNS,
    _kd_mass,
    convergence_study,
    sigma_array,
    solve_penalized,
    step_one_barrier,
)
from rbsdelab.rbsde import default_lower_bound, solve_reflected_direct, verify_solution
from rbsdelab.scenarios import random_scenario
from rbsdelab.tree_space import AdaptedRegulatedProcess, build_tree

from conftest import climbing_scenario, sup_gap


def small_tree(depth, horizon=1.0):
    return build_tree(TimeGrid(horizon, depth))


def spike_setup():
    tree = small_tree(1)
    barrier = AdaptedRegulatedProcess.from_levels(tree, [[5.0], [0.0, 0.0]], [[0.0]])
    return tree, barrier, np.zeros(2), make_generator("zero"), AdaptedRegulatedProcess.zeros(tree)


class TestSigmaDetection:
    def test_threshold_is_strict_one_over_n(self):
        tree = small_tree(2)
        point = [np.array([0.0]), np.zeros(2), np.zeros(4)]
        right = [np.array([-0.3]), np.zeros(2)]
        barrier = AdaptedRegulatedProcess.from_levels(tree, point, right)
        driver = AdaptedRegulatedProcess.zeros(tree)
        for n in (1, 2, 3):
            assert np.count_nonzero(sigma_array(barrier, driver, n)) == 0
        for n in (4, 5, 100):
            sigma = sigma_array(barrier, driver, n)
            assert np.count_nonzero(sigma) == 1
            assert bool(sigma[0])

    def test_driver_jumps_also_trigger(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.zeros(tree)
        driver = AdaptedRegulatedProcess.from_levels(tree, [[0.0], [0.0, 0.0]], [[-2.0]])
        assert np.count_nonzero(sigma_array(barrier, driver, 1)) == 1

    def test_detection_sets_are_nested(self, rng):
        sc = random_scenario(rng, depth=5, name="sigma")
        arrays = [sigma_array(sc.barrier, sc.driver, n) for n in range(1, 33)]
        counts = [np.count_nonzero(a) for a in arrays]
        for earlier, later in zip(arrays, arrays[1:]):
            assert np.all(later | ~earlier)
        assert counts == sorted(counts)

    def test_cadlag_data_never_detects(self, rng):
        sc = random_scenario(rng, depth=4, name="cad", cadlag=True)
        driver = AdaptedRegulatedProcess.zeros(sc.tree)
        for n in range(1, 65):
            assert np.count_nonzero(sigma_array(sc.barrier, driver, n)) == 0

    def test_rejects_nonpositive_levels(self):
        tree = small_tree(1)
        proc = AdaptedRegulatedProcess.zeros(tree)
        with pytest.raises(ValueError, match="positive integer"):
            sigma_array(proc, proc, 0)

    def test_rejects_fractional_levels(self):
        tree = small_tree(1)
        proc = AdaptedRegulatedProcess.zeros(tree)
        with pytest.raises(ValueError, match="positive integer"):
            sigma_array(proc, proc, 2.5)


class TestSolvePenalized:
    def test_detected_spike_is_corrected_at_every_level(self):
        tree, barrier, terminal, gen, driver = spike_setup()
        reflected = solve_reflected_direct(terminal, gen, driver, barrier)
        for n in (1, 2, 16, 4096):
            sol = solve_penalized(terminal, gen, driver, barrier, n)
            assert sol.value.point[0][0] == 5.0
            assert sol.increments.right[0][0] == 5.0
            assert sup_gap(sol.value, reflected.value) == 0.0

    def test_classic_scheme_misses_the_spike(self):
        _, barrier, terminal, gen, driver = spike_setup()
        sol = solve_penalized(terminal, gen, driver, barrier, 4096, scheme="classic")
        assert sol.value.point[0][0] == 0.0
        assert _kd_mass(sol) == 0.0

    def test_inactive_penalty_reproduces_the_plain_solve(self, rng):
        sc = random_scenario(rng, depth=5, name="inactive")
        low = sc.barrier + (-50.0)
        plain = solve_bsde(sc.terminal, sc.gen, sc.driver)
        for n in (1, 64):
            sol = solve_penalized(sc.terminal, sc.gen, sc.driver, low, n)
            assert sup_gap(sol.value, plain.value) == 0.0
            assert all(float(np.max(a)) == 0.0 for a in sol.increments.interval)

    def test_schemes_coincide_on_cadlag_barriers(self, rng):
        sc = random_scenario(rng, depth=5, name="cad", cadlag=True)
        driver = AdaptedRegulatedProcess.zeros(sc.tree)
        for n in (2, 32):
            modified = solve_penalized(sc.terminal, sc.gen, driver, sc.barrier, n)
            classic = solve_penalized(sc.terminal, sc.gen, driver, sc.barrier, n, scheme="classic")
            assert sup_gap(modified.value, classic.value) == 0.0
            assert _kd_mass(modified) == 0.0

    def test_approximations_increase_to_the_reflected_solution(self, rng):
        sc = random_scenario(rng, depth=5, name="mono")
        study = convergence_study(
            sc.terminal, sc.gen, sc.driver, sc.barrier, [1, 4, 16, 64, 256]
        )
        for row in study.rows:
            assert row.monotonicity_violation == 0.0
        gaps = [row.sup_gap_y for row in study.rows]
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("scheme", ["classic", "modified"])
    @pytest.mark.parametrize("n", [0, -4, 2.5])
    def test_rejects_levels_below_one(self, scheme, n):
        _, barrier, terminal, gen, driver = spike_setup()
        with pytest.raises(ValueError, match="positive integer"):
            solve_penalized(terminal, gen, driver, barrier, n, scheme=scheme)

    def test_rejects_unknown_scheme(self):
        _, barrier, terminal, gen, driver = spike_setup()
        with pytest.raises(ValueError, match="unknown penalization scheme"):
            solve_penalized(terminal, gen, driver, barrier, 1, scheme="implicit")

    def test_rejects_mismatched_trees(self):
        _, barrier, terminal, gen, _ = spike_setup()
        driver = AdaptedRegulatedProcess.zeros(small_tree(1))
        with pytest.raises(ValueError, match="different trees"):
            solve_penalized(terminal, gen, driver, barrier, 1)


class TestStepOneBarrier:
    def test_penalized_solution_solves_its_own_stepped_problem(self, rng):
        sc = random_scenario(rng, depth=5, name="step")
        sol = solve_penalized(sc.terminal, sc.gen, sc.driver, sc.barrier, 8)
        stepped = step_one_barrier(sol, sc.barrier)
        report = verify_solution(sol, sc.terminal, sc.gen, sc.driver, stepped)
        assert report.max_residual() <= 1e-10 * sol.value.scale()
        assert report.domination_margin >= -1e-12 * sol.value.scale()

    def test_stepped_barrier_never_exceeds_the_original(self, rng):
        sc = random_scenario(rng, depth=4, name="stepdom")
        sol = solve_penalized(sc.terminal, sc.gen, sc.driver, sc.barrier, 2)
        stepped = step_one_barrier(sol, sc.barrier)
        for i in range(4):
            assert np.all(stepped.point[i] <= sc.barrier.point[i])
            assert np.all(stepped.right[i] <= sc.barrier.right[i])


class TestConvergenceStudy:
    def test_modified_study_closes_the_gap(self, rng):
        sc = random_scenario(rng, depth=5, name="study")
        levels = [1, 4, 16, 64, 256, 1024]
        study = convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, levels)
        assert emit_convergence_table(study).split("\n", 1)[0] == ",".join(STUDY_COLUMNS)
        assert [row.n for row in study.rows] == levels
        assert study.rows[-1].sup_gap_y <= 1e-2 * study.reference.value.scale()
        assert study.rows[-1].l1_gap_z <= study.rows[0].l1_gap_z + 1e-12
        for row, n in zip(study.rows, levels):
            sol = solve_penalized(sc.terminal, sc.gen, sc.driver, sc.barrier, n)
            assert row.kd_mass == _kd_mass(sol)
            assert len(dataclasses.astuple(row)) == len(STUDY_COLUMNS)

    def test_classic_study_tracks_the_transformed_right_field(self, rng):
        sc = random_scenario(rng, depth=4, name="classic")
        levels = [1, 8, 64, 512, 4096]
        study = convergence_study(
            sc.terminal, sc.gen, sc.driver, sc.barrier, levels, mode="classic_vs_transformed"
        )
        gaps = [row.sup_gap_y for row in study.rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-2 * study.reference.value.scale()
        for row in study.rows:
            assert row.monotonicity_violation == 0.0

    def test_classic_study_widens_the_default_floor_along_the_reference(self):
        terminal, gen, driver, barrier = climbing_scenario()
        levels = [1, 4, 16, 64]
        study = convergence_study(
            terminal, gen, driver, barrier, levels, mode="classic_vs_transformed"
        )
        gaps = [row.sup_gap_y for row in study.rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.2 * gaps[0]
        for row in study.rows:
            assert row.monotonicity_violation == 0.0
        # the same floor unwidened lies above f along the reference, so as a
        # supplied floor it is rejected rather than let the classic solves
        # overshoot the reference
        rows = default_lower_bound(terminal, gen, driver, barrier)
        with pytest.raises(ValueError, match="violation at the realized solution"):
            convergence_study(
                terminal, gen, driver, barrier, levels, mode="classic_vs_transformed", bound=rows
            )

    def test_a_planted_rise_is_reported_as_a_monotonicity_violation(self, rng, monkeypatch):
        sc = random_scenario(rng, depth=4, name="planted")
        lift = 1e-6
        assert lift > MONOTONE_EQUALITY_TOL * 10.0
        solve = penalization.solve_penalized

        def lifted_at_four(terminal, gen, driver, barrier, n, scheme):
            sol = solve(terminal, gen, driver, barrier, n, scheme=scheme)
            if n != 4:
                return sol
            value = AdaptedRegulatedProcess(
                sol.value.tree, sol.value.points + lift, sol.value.rights + lift
            )
            return dataclasses.replace(sol, value=value)

        monkeypatch.setattr(penalization, "solve_penalized", lifted_at_four)
        study = convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [1, 4, 16])
        first, lifted, after = (row.monotonicity_violation for row in study.rows)
        assert first == 0.0
        # the terminal values of every level equal the payoff, so the lift shows in full
        assert lifted == pytest.approx(lift, rel=1e-9)
        assert after > MONOTONE_EQUALITY_TOL * study.reference.value.scale()

    def test_rejects_bad_study_inputs(self, rng):
        sc = random_scenario(rng, depth=2, name="badstudy")
        with pytest.raises(ValueError, match="unknown study mode"):
            convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [1], mode="fast")
        with pytest.raises(ValueError, match="empty study"):
            convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [])
        for levels in ([4, 1], [1, 4, 4]):
            with pytest.raises(ValueError, match="strictly increasing"):
                convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, levels)

    @pytest.mark.parametrize("mode", ["modified", "classic_vs_transformed"])
    def test_memory_does_not_grow_with_the_levels(self, mode):
        """A study holds one penalized solution at a time, whatever its length."""
        rng = np.random.default_rng(5)
        sc = random_scenario(rng, depth=10, name="memory", gen=make_generator("linear:-0.5,0.3"))
        args = (sc.terminal, sc.gen, sc.driver, sc.barrier)

        def peak(levels):
            tracemalloc.start()
            try:
                convergence_study(*args, levels, mode=mode)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak([1, 2]), peak([1, 2, 4, 8, 16, 32, 64, 128])
        assert long <= 1.2 * short
