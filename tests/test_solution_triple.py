"""The solution triple on the heap layout, and f along a solution.

Z is stored flat like every other adapted field and checked once, a
penalized solution is a triple, and ``generator_values`` is the one place
that evaluates the generator along a solved (Y, Z).
"""

import dataclasses

import numpy as np
import pytest

from rbsdelab import rbsde
from rbsdelab.bsde import SolutionTriple, dynamics_residual, generator_values, table_generator
from rbsdelab.penalization import solve_penalized
from rbsdelab.rbsde import (
    _floor_shortfall,
    compare_solutions,
    solution_distance,
    solve_reflected_direct,
    stopping_representation_check,
    verify_solution,
)
from rbsdelab.scenarios import random_scenario

DEPTH = 3


def solved(rng, depth=DEPTH):
    sc = random_scenario(rng, depth)
    return sc, solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)


def counted(gen):
    """``gen`` with the level of every ``fn`` call recorded."""
    levels = []

    def fn(level, y, z):
        levels.append(level)
        return gen.fn(level, y, z)

    return dataclasses.replace(gen, fn=fn), levels


class TestFlatIntegrand:
    def test_levels_are_views_of_the_heap(self, rng):
        _, trip = solved(rng)
        assert trip.integrands.shape == ((1 << DEPTH) - 1,)
        for i in range(DEPTH):
            assert np.shares_memory(trip.integrand[i], trip.integrands)
        np.testing.assert_array_equal(trip.integrands[3:7], trip.integrand[2])

    def test_rejects_a_wrong_size(self, rng):
        _, trip = solved(rng)
        with pytest.raises(ValueError, match="integrand must have 7 heap-ordered entries"):
            SolutionTriple(trip.value, trip.integrands[:5], trip.increments)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry(self, rng, bad):
        _, trip = solved(rng)
        z = trip.integrands.copy()
        z[4] = bad
        with pytest.raises(ValueError, match="integrand contains a non-finite entry"):
            SolutionTriple(trip.value, z, trip.increments)


class TestPenalizedSolution:
    def test_checks_take_it_directly(self, rng):
        sc = random_scenario(rng, DEPTH)
        data = (sc.terminal, sc.gen, sc.driver, sc.barrier)
        sol = solve_penalized(*data, 8)
        plain = SolutionTriple(sol.value, sol.integrands, sol.increments)
        assert verify_solution(sol, *data) == verify_solution(plain, *data)
        reference = solve_reflected_direct(*data)
        assert solution_distance(sol, reference) == solution_distance(plain, reference)
        assert solution_distance(reference, sol) == solution_distance(reference, plain)


class TestGeneratorValues:
    def test_is_heap_ordered(self, rng):
        sc, trip = solved(rng)
        rows = [100.0 * i + np.arange(1 << i) for i in range(DEPTH)]
        values = generator_values(table_generator(sc.tree, rows), trip)
        assert values.shape == ((1 << DEPTH) - 1,)
        for i in range(DEPTH):
            for k in range(1 << i):
                assert values[(1 << i) - 1 + k] == rows[i][k]

    def test_matches_the_generator_at_each_level(self, rng):
        sc, trip = solved(rng)
        values = generator_values(sc.gen, trip)
        for i in range(DEPTH):
            want = np.broadcast_to(sc.gen(i, trip.value.right[i], trip.integrand[i]), (1 << i,))
            assert values[(1 << i) - 1 : (2 << i) - 1].tobytes() == want.tobytes()

    def test_checks_along_a_solution_call_it_once_per_level(self, rng):
        sc, trip = solved(rng)
        gen, levels = counted(sc.gen)
        dynamics_residual(trip, sc.terminal, gen, sc.driver)
        assert levels == list(range(DEPTH))
        levels.clear()
        _floor_shortfall(gen, np.full(DEPTH, -1e3), trip)
        assert levels == list(range(DEPTH))
        levels.clear()
        stopping_representation_check(trip, sc.terminal, gen, sc.driver, sc.barrier)
        assert levels == list(range(DEPTH))

    def test_the_comparison_calls_each_generator_once_per_level(self, rng, monkeypatch):
        sc, trip = solved(rng)
        # both problems solve to the same triple, so only the ordering check calls f
        monkeypatch.setattr(rbsde, "solve_reflected_direct", lambda *data: trip)
        first, first_levels = counted(sc.gen)
        second, second_levels = counted(sc.gen)
        report = compare_solutions(
            dataclasses.replace(sc, gen=first), dataclasses.replace(sc, gen=second)
        )
        assert report.valid
        assert first_levels == list(range(DEPTH))
        assert second_levels == list(range(DEPTH))
