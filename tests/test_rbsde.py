import numpy as np
import pytest

from rbsdelab.bsde import make_generator, solve_bsde
from rbsdelab.grid_path import TimeGrid
from rbsdelab.rbsde import (
    ReflectedProblem,
    barrier_transform,
    compare_solutions,
    default_lower_bound,
    solution_distance,
    solve_reflected_direct,
    solve_via_reduction,
    stopping_representation_check,
    verify_solution,
)
from rbsdelab.scenarios import (
    cadlag_scenario,
    equal_barrier_pair,
    ordered_pair,
    random_scenario,
)
from rbsdelab.snell import brute_force_snell, snell_envelope
from rbsdelab.tree_space import AdaptedRegulatedProcess, build_tree

from conftest import sup_gap


def small_tree(depth, horizon=1.0):
    return build_tree(TimeGrid(horizon, depth))


def solve_scenario(sc):
    return solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)


def as_problem(sc):
    return ReflectedProblem(sc.terminal, sc.gen, sc.driver, sc.barrier)


class TestDirectSolve:
    def test_single_step_spike(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[5.0], [0.0, 0.0]], [[0.0]])
        trip = solve_reflected_direct(
            np.zeros(2), make_generator("zero"), AdaptedRegulatedProcess.zeros(tree), barrier
        )
        assert trip.value.point[0][0] == 5.0
        assert trip.value.right[0][0] == 0.0
        assert trip.increments.right[0][0] == 5.0
        np.testing.assert_array_equal(trip.integrand[0], [0.0])

    def test_inactive_barrier_reduces_to_the_plain_equation(self, rng):
        sc = random_scenario(rng, depth=5, name="slack")
        low = sc.barrier + (-50.0)
        trip = solve_reflected_direct(sc.terminal, sc.gen, sc.driver, low)
        plain = solve_bsde(sc.terminal, sc.gen, sc.driver)
        assert sup_gap(trip.value, plain.value) <= 1e-13 * plain.value.scale()
        assert trip.increments.max_component() == 0.0

    def test_zero_generator_recovers_the_snell_envelope(self, rng):
        sc = random_scenario(rng, depth=5, name="snell", gen=make_generator("zero"))
        driver = AdaptedRegulatedProcess.zeros(sc.tree)
        trip = solve_reflected_direct(sc.terminal, sc.gen, driver, sc.barrier)
        dec = snell_envelope(sc.barrier, sc.terminal)
        assert sup_gap(trip.value, dec.envelope) <= 1e-12 * dec.envelope.scale()
        for i in range(5):
            np.testing.assert_allclose(trip.integrand[i], dec.integrand[i], atol=1e-12)
            np.testing.assert_allclose(
                trip.increments.right[i], dec.increasing.right[i], atol=1e-12
            )

    def test_right_jump_reflection_identity_is_exact(self, rng):
        for _ in range(5):
            sc = random_scenario(rng, depth=4, name="identity")
            trip = solve_scenario(sc)
            for i in range(4):
                expected = np.maximum(
                    sc.barrier.point[i] - (trip.value.right[i] + sc.driver.delta_plus(i)),
                    0.0,
                )
                np.testing.assert_array_equal(trip.increments.right[i], expected)

    def test_rejects_bad_terminal(self):
        tree = small_tree(2)
        barrier = AdaptedRegulatedProcess.constant(tree, 1.0)
        with pytest.raises(ValueError, match="fails to dominate"):
            solve_reflected_direct(
                np.zeros(4), make_generator("zero"), AdaptedRegulatedProcess.zeros(tree), barrier
            )

    def test_rejects_mismatched_trees(self):
        barrier = AdaptedRegulatedProcess.zeros(small_tree(2))
        driver = AdaptedRegulatedProcess.zeros(small_tree(3))
        with pytest.raises(ValueError, match="different trees"):
            solve_reflected_direct(np.zeros(4), make_generator("zero"), driver, barrier)


class TestVerification:
    def test_clean_solves_verify(self, rng):
        for i in range(10):
            sc = random_scenario(rng, depth=5, name=f"verify-{i}")
            trip = solve_scenario(sc)
            report = verify_solution(trip, sc.terminal, sc.gen, sc.driver, sc.barrier)
            assert report.max_residual() <= 1e-10 * trip.value.scale()
            assert report.domination_margin >= -1e-12 * trip.value.scale()
            assert report.negative_charge >= 0.0

    def test_charging_off_the_barrier_is_flagged(self):
        # solve against a spiked barrier, then verify against a lowered one:
        # the dynamics still hold but the charge now acts off the barrier
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[5.0], [0.0, 0.0]], [[0.0]])
        terminal = np.zeros(2)
        driver = AdaptedRegulatedProcess.zeros(tree)
        gen = make_generator("zero")
        trip = solve_reflected_direct(terminal, gen, driver, barrier)
        assert trip.increments.max_component() == 5.0
        report = verify_solution(trip, terminal, gen, driver, barrier + (-1.0))
        assert report.dynamics_residual <= 1e-12
        assert report.minimality_right_jump >= 4.9

    def test_negative_charge_is_reported(self, rng):
        sc = random_scenario(rng, depth=3, name="negk")
        trip = solve_scenario(sc)
        trip.increments.interval[1][0] -= 2.0
        report = verify_solution(trip, sc.terminal, sc.gen, sc.driver, sc.barrier)
        assert report.negative_charge <= -2.0

    def test_value_matches_the_exhaustive_stopping_value(self, rng):
        for depth in (2, 3, 4):
            sc = random_scenario(rng, depth=depth, name=f"stop-{depth}")
            trip = solve_scenario(sc)
            dev = stopping_representation_check(trip, sc.terminal, sc.gen, sc.driver, sc.barrier)
            assert dev <= 1e-10 * trip.value.scale()


class TestBarrierTransform:
    def test_deterministic_supermartingale_is_a_fixed_point(self):
        # constant barrier matching the terminal payoff, zero floor
        tree = small_tree(4)
        barrier = AdaptedRegulatedProcess.constant(tree, 2.0)
        terminal = np.full(16, 2.0)
        driver = AdaptedRegulatedProcess.zeros(tree)
        result = barrier_transform(barrier, terminal, np.zeros(4), driver)
        assert sup_gap(result.lhat, barrier) <= 1e-12
        assert result.left_limit_margin <= 1e-12

    def test_zero_floor_gives_the_snell_envelope_of_the_barrier(self, rng):
        sc = random_scenario(rng, depth=4, name="transform", gen=make_generator("zero"))
        driver = AdaptedRegulatedProcess.zeros(sc.tree)
        result = barrier_transform(sc.barrier, sc.terminal, np.zeros(4), driver)
        dec = snell_envelope(sc.barrier, sc.terminal)
        assert sup_gap(result.lhat, dec.envelope) <= 1e-12 * dec.envelope.scale()
        for level in range(4):
            assert np.all(result.lhat.point[level] >= sc.barrier.point[level] - 1e-12)
            assert np.all(result.lhat.right[level] >= sc.barrier.right[level] - 1e-12)

    def test_transformed_barrier_has_controlled_left_limits(self, rng):
        for i in range(10):
            sc = random_scenario(rng, depth=5, name=f"lhat-{i}")
            bound = default_lower_bound(sc.terminal, sc.gen, sc.driver, sc.barrier)
            result = barrier_transform(sc.barrier, sc.terminal, bound, sc.driver, gen=sc.gen)
            assert result.domination_margin >= -1e-12 * result.lhat.scale()
            # the excess of the conditional left limit over the interval
            # value, floor included, must be nonpositive
            assert result.left_limit_margin <= 1e-12 * result.lhat.scale()

    def test_rejects_wrong_bound_length(self, rng):
        sc = random_scenario(rng, depth=3, name="badbound")
        with pytest.raises(ValueError, match="one value per interval"):
            barrier_transform(sc.barrier, sc.terminal, np.zeros(5), sc.driver)

    @pytest.mark.parametrize("entry", [np.nan, -np.inf, np.inf])
    def test_rejects_a_non_finite_bound_by_name(self, rng, entry):
        sc = random_scenario(rng, depth=3, name="nanbound")
        bound = np.array([-1.0, entry, -1.0])
        with pytest.raises(ValueError, match="lower bound must be finite"):
            barrier_transform(sc.barrier, sc.terminal, bound, sc.driver)
        with pytest.raises(ValueError, match="lower bound must be finite"):
            solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier, bound=bound)


class TestReduction:
    def test_agrees_with_direct_on_random_problems(self, rng):
        for i in range(10):
            sc = random_scenario(rng, depth=5, name=f"red-{i}")
            direct = solve_scenario(sc)
            reduced = solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier)
            dist = solution_distance(direct, reduced)
            tol = 1e-9 * direct.value.scale()
            assert dist["y"] <= tol
            assert dist["z"] <= tol
            assert dist["k_interval"] <= tol
            assert dist["k_left"] <= tol
            assert dist["k_right"] <= tol

    def test_agrees_on_cadlag_barriers(self, rng):
        sc = cadlag_scenario(rng, depth=5, name="cad")
        direct = solve_scenario(sc)
        reduced = solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier)
        assert solution_distance(direct, reduced)["y"] <= 1e-9 * direct.value.scale()
        # right-continuous barrier: reflection never needs a right jump
        for i in range(5):
            np.testing.assert_array_equal(direct.increments.right[i], np.zeros(1 << i))

    def test_matches_brute_force_without_generator_or_driver(self, rng):
        for depth in (2, 3, 4):
            sc = random_scenario(rng, depth=depth, name=f"bf-{depth}", gen=make_generator("zero"))
            driver = AdaptedRegulatedProcess.zeros(sc.tree)
            reduced = solve_via_reduction(sc.terminal, sc.gen, driver, sc.barrier)
            oracle = brute_force_snell(sc.barrier, sc.terminal)
            assert sup_gap(reduced.value, oracle) <= 1e-10 * oracle.scale()

    def test_rejects_a_floor_above_the_generator(self, rng):
        sc = random_scenario(rng, depth=3, name="hot", gen=make_generator("zero"))
        with pytest.raises(ValueError, match="lower-bound violation"):
            solve_via_reduction(
                sc.terminal, sc.gen, sc.driver, sc.barrier, bound=np.full(3, 1.0)
            )

    def test_rejects_mismatched_trees(self):
        barrier = AdaptedRegulatedProcess.zeros(small_tree(2))
        driver = AdaptedRegulatedProcess.zeros(small_tree(2))
        with pytest.raises(ValueError, match="different trees"):
            solve_via_reduction(np.zeros(4), make_generator("zero"), driver, barrier)


class TestComparison:
    def test_identical_problems_compare_equal(self, rng):
        sc = random_scenario(rng, depth=4, name="same")
        report = compare_solutions(as_problem(sc), as_problem(sc))
        assert report.valid
        assert report.equal_barrier
        assert report.y_violation == 0.0
        assert report.dk_violation == {"interval": 0.0, "left": 0.0, "right": 0.0}

    def test_shifted_terminal_orders_the_values(self, rng):
        sc = random_scenario(rng, depth=4, name="shift")
        bigger = ReflectedProblem(sc.terminal + 1.0, sc.gen, sc.driver, sc.barrier)
        report = compare_solutions(as_problem(sc), bigger)
        assert report.valid
        assert report.y_violation == 0.0
        gap = report.second.value.point[4] - report.first.value.point[4]
        np.testing.assert_array_equal(gap, np.ones(16))

    def test_ordered_pairs_from_the_generator(self, rng):
        for i in range(10):
            first, second = ordered_pair(rng, depth=4, name=f"pair-{i}")
            report = compare_solutions(as_problem(first), as_problem(second))
            assert report.valid
            assert report.y_violation == 0.0

    def test_equal_barrier_pairs_order_the_charges(self, rng):
        for i in range(10):
            first, second = equal_barrier_pair(rng, depth=4, name=f"eqb-{i}")
            report = compare_solutions(as_problem(first), as_problem(second))
            assert report.valid
            assert report.equal_barrier
            assert report.y_violation == 0.0
            assert report.dk_violation == {"interval": 0.0, "left": 0.0, "right": 0.0}

    def test_unordered_data_yields_an_invalid_report(self, rng):
        sc = random_scenario(rng, depth=3, name="bad")
        prob = as_problem(sc)
        lower_terminal = ReflectedProblem(sc.terminal - 1.0, sc.gen, sc.driver, sc.barrier)
        report = compare_solutions(prob, lower_terminal)
        assert not report.valid
        assert report.reason == "terminal values are not ordered"
        assert report.y_violation is None

        other_tree = random_scenario(rng, depth=4, name="othertree")
        report = compare_solutions(prob, as_problem(other_tree))
        assert report.reason == "problems live on different trees"

        smaller_gen = ReflectedProblem(
            sc.terminal + 1.0, make_generator("constant:-5.0"), sc.driver, sc.barrier
        )
        base = ReflectedProblem(sc.terminal, make_generator("constant:0.0"), sc.driver, sc.barrier)
        report = compare_solutions(base, smaller_gen)
        assert not report.valid
        assert report.reason == "generators are not ordered along the second solution"

    def test_unordered_driver_jumps_are_rejected(self, rng):
        sc = random_scenario(rng, depth=2, name="drv")
        shrunk = sc.driver.copy()
        shrunk.right[0][:] -= 1.0  # shrink one right jump only
        report = compare_solutions(
            as_problem(sc), ReflectedProblem(sc.terminal, sc.gen, shrunk, sc.barrier)
        )
        assert not report.valid
        assert "driver" in report.reason

    def test_unordered_terminal_left_jumps_are_rejected(self, rng):
        sc = random_scenario(rng, depth=2, name="drv-left")
        lowered = sc.driver.copy()
        lowered.point[2][:] -= 1.0  # changes only the left jumps at the horizon
        report = compare_solutions(
            as_problem(sc), ReflectedProblem(sc.terminal, sc.gen, lowered, sc.barrier)
        )
        assert not report.valid
        assert report.reason == "driver left jumps are not ordered"

    def test_unordered_barrier_right_values_are_rejected(self, rng):
        sc = random_scenario(rng, depth=2, name="barr-right")
        lowered = sc.barrier.copy()
        lowered.rights[:] -= 0.5
        report = compare_solutions(
            as_problem(sc), ReflectedProblem(sc.terminal, sc.gen, sc.driver, lowered)
        )
        assert not report.valid
        assert report.reason == "barriers are not ordered"

    def test_unordered_barriers_are_rejected(self, rng):
        sc = random_scenario(rng, depth=2, name="barr")
        lowered = sc.barrier + (-0.5)
        report = compare_solutions(
            as_problem(sc), ReflectedProblem(sc.terminal, sc.gen, sc.driver, lowered)
        )
        assert not report.valid
        assert report.reason == "barriers are not ordered"


class TestSolutionDistance:
    def test_zero_for_identical_triples(self, rng):
        sc = random_scenario(rng, depth=3, name="dist")
        trip = solve_scenario(sc)
        dist = solution_distance(trip, trip)
        assert set(dist) == {"y", "z", "k_interval", "k_left", "k_right"}
        assert all(v == 0.0 for v in dist.values())
