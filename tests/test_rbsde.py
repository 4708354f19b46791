import tracemalloc

import numpy as np
import pytest

from rbsdelab import rbsde
from rbsdelab.bsde import make_generator, solve_bsde
from rbsdelab.cli import ROUTE_TOL
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
from rbsdelab.tree_space import AdaptedRegulatedProcess, build_tree, conditional_expectation

from conftest import climbing_scenario, sup_gap


def small_tree(depth, horizon=1.0):
    return build_tree(TimeGrid(horizon, depth))


def domination_margin(lhat, barrier):
    """Smallest value of lhat - L over point and right slots."""
    return float(min(np.min(lhat.points - barrier.points), np.min(lhat.rights - barrier.rights)))


def left_limit_margin(lhat, bound, driver):
    """Largest excess of E[lhat(t+) + V-jump | node] + bound dt over lhat's interval value."""
    tree = lhat.tree
    margin = -np.inf
    for i in range(tree.depth):
        cond = conditional_expectation(tree, lhat.point[i + 1] + driver.delta_minus(i + 1))
        margin = max(margin, float(np.max(cond + bound[i] * tree.dt - lhat.right[i])))
    return margin


def traced_peak(fn, *args):
    """Peak of the memory ``fn(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert sup_gap(trip.value, dec.value) <= 1e-12 * dec.value.scale()
        for i in range(5):
            np.testing.assert_allclose(trip.integrand[i], dec.integrand[i], atol=1e-12)
            np.testing.assert_allclose(
                trip.increments.right[i], dec.increments.right[i], atol=1e-12
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
        lhat = barrier_transform(barrier, terminal, np.zeros(4), driver)
        assert sup_gap(lhat, barrier) <= 1e-12
        assert left_limit_margin(lhat, np.zeros(4), driver) <= 1e-12

    def test_zero_floor_gives_the_snell_envelope_of_the_barrier(self, rng):
        sc = random_scenario(rng, depth=4, name="transform", gen=make_generator("zero"))
        driver = AdaptedRegulatedProcess.zeros(sc.tree)
        lhat = barrier_transform(sc.barrier, sc.terminal, np.zeros(4), driver)
        dec = snell_envelope(sc.barrier, sc.terminal)
        assert sup_gap(lhat, dec.value) <= 1e-12 * dec.value.scale()
        for level in range(4):
            assert np.all(lhat.point[level] >= sc.barrier.point[level] - 1e-12)
            assert np.all(lhat.right[level] >= sc.barrier.right[level] - 1e-12)

    def test_transformed_barrier_has_controlled_left_limits(self, rng):
        for i in range(10):
            sc = random_scenario(rng, depth=5, name=f"lhat-{i}")
            bound = default_lower_bound(sc.terminal, sc.gen, sc.driver, sc.barrier)
            # as a supplied floor it passes the reduction's sampled box
            solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier, bound=bound)
            lhat = barrier_transform(sc.barrier, sc.terminal, bound, sc.driver)
            assert domination_margin(lhat, sc.barrier) >= -1e-12 * lhat.scale()
            # the excess of the conditional left limit over the interval
            # value, floor included, must be nonpositive
            assert left_limit_margin(lhat, bound, sc.driver) <= 1e-12 * lhat.scale()

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

    def test_widens_a_data_sized_floor_that_fails_along_the_solution(self, monkeypatch):
        terminal, gen, driver, barrier = climbing_scenario()
        transforms = []
        transform = rbsde.barrier_transform

        def counting_transform(*args, **kwargs):
            transforms.append(args[2])
            return transform(*args, **kwargs)

        monkeypatch.setattr(rbsde, "barrier_transform", counting_transform)
        reduced = solve_via_reduction(terminal, gen, driver, barrier)
        # the first floor fails at the realized solution, the widened one holds
        assert len(transforms) == 2
        assert np.all(transforms[1] < transforms[0] - 1.0)
        direct = solve_reflected_direct(terminal, gen, driver, barrier)
        scale = direct.value.scale()
        for gap in solution_distance(direct, reduced).values():
            assert gap <= ROUTE_TOL * scale

    def test_rejects_a_user_floor_that_fails_at_the_realized_solution(self):
        terminal, gen, driver, barrier = climbing_scenario()
        rows = default_lower_bound(terminal, gen, driver, barrier)
        # the rows pass the sampled box, so only the realized check rejects them
        with pytest.raises(ValueError, match="lower-bound violation at the realized solution"):
            solve_via_reduction(terminal, gen, driver, barrier, bound=rows)

    def test_gives_up_when_widening_never_makes_the_floor_hold(self, rng, monkeypatch):
        sc = random_scenario(rng, depth=3, name="stubborn")
        monkeypatch.setattr(rbsde, "_floor_shortfall", lambda gen, rows, trip: 1.0)
        with pytest.raises(ValueError, match="lower-bound violation after widening the floor"):
            solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier)

    def test_holds_no_auxiliary_solution_through_the_final_sweep(self, rng):
        # the transform hands back only the regularized barrier, so the
        # reduction's final sweep holds little more than the direct one
        gen = make_generator("monotone_cubic:0.3")
        sc = random_scenario(rng, depth=12, name="memory", gen=gen)
        data = (sc.terminal, sc.gen, sc.driver, sc.barrier)
        direct = traced_peak(solve_reflected_direct, *data)
        assert traced_peak(solve_via_reduction, *data) < 1.35 * direct

    def test_runs_one_unreflected_solve_for_the_auxiliary_only(self, rng, monkeypatch):
        sc = random_scenario(rng, depth=5, name="one-solve")
        solves = []
        solve = rbsde.solve_bsde

        def counting_solve(*args, **kwargs):
            solves.append(args[1].name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(rbsde, "solve_bsde", counting_solve)
        solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier)
        assert solves == ["floor-absorber"]

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
