import numpy as np
import pytest

from rbsdelab.grid_path import TimeGrid
from rbsdelab.snell import (
    KIncrements,
    brute_force_snell,
    snell_envelope,
    verify_minimality,
)
from rbsdelab.tree_space import AdaptedRegulatedProcess, build_tree

from conftest import sup_gap


def small_tree(depth, horizon=1.0):
    return build_tree(TimeGrid(horizon, depth))


def dominated_barrier(tree, rng, scale=1.0):
    """Random barrier together with a terminal payoff that dominates it."""
    point = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(tree.depth + 1)]
    right = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(tree.depth)]
    barrier = AdaptedRegulatedProcess.from_levels(tree, point, right)
    terminal = barrier.point[tree.depth] + np.abs(rng.standard_normal(tree.n_nodes(tree.depth)))
    return barrier, terminal


class TestSingleStepExamples:
    def test_root_spike_is_absorbed_by_a_right_jump(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[5.0], [0.0, 0.0]], [[0.0]])
        dec = snell_envelope(barrier, [0.0, 0.0])
        assert dec.envelope.point[0][0] == 5.0
        assert dec.envelope.right[0][0] == 0.0
        assert dec.increasing.right[0][0] == 5.0
        assert dec.increasing.interval[0][0] == 0.0
        np.testing.assert_array_equal(dec.increasing.left[1], [0.0, 0.0])
        assert verify_minimality(dec, barrier) == (0.0, 0.0)
        assert dec.increasing.total_mass_expectation() == 5.0

    def test_interval_spike_is_absorbed_by_a_left_jump(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[0.0], [0.0, 0.0]], [[3.0]])
        dec = snell_envelope(barrier, [0.0, 0.0])
        assert dec.envelope.point[0][0] == 3.0
        assert dec.envelope.right[0][0] == 3.0
        np.testing.assert_array_equal(dec.increasing.left[1], [3.0, 3.0])
        assert dec.increasing.right[0][0] == 0.0
        # the left charge is decided before the noise, so Y(t1-) = 3 on both branches
        at_point, _ = dec.increasing.cumulative()
        np.testing.assert_array_equal(at_point[1], [3.0, 3.0])
        assert verify_minimality(dec, barrier) == (0.0, 0.0)

    def test_constant_barrier_with_matching_terminal_is_flat(self):
        tree = small_tree(3)
        barrier = AdaptedRegulatedProcess.constant(tree, 2.5)
        dec = snell_envelope(barrier, np.full(8, 2.5))
        for level in range(4):
            np.testing.assert_array_equal(dec.envelope.point[level], np.full(tree.n_nodes(level), 2.5))
        assert dec.increasing.max_component() == 0.0
        for z in dec.integrand:
            np.testing.assert_array_equal(z, np.zeros_like(z))

    def test_rejects_terminal_below_the_barrier(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[0.0], [1.0, 0.0]], [[0.0]])
        with pytest.raises(ValueError, match="fails to dominate"):
            snell_envelope(barrier, [0.0, 0.0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_a_non_finite_terminal(self, entry):
        # the envelope takes no implicit step, so nothing downstream would notice
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[0.0], [0.0, 0.0]], [[0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            snell_envelope(barrier, [1.0, entry])


class TestAgainstBruteForce:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_envelope_equals_exhaustive_stopping_value(self, depth, rng):
        for _ in range(5):
            tree = small_tree(depth)
            barrier, terminal = dominated_barrier(tree, rng)
            dec = snell_envelope(barrier, terminal)
            oracle = brute_force_snell(barrier, terminal)
            assert sup_gap(dec.envelope, oracle) <= 1e-12 * dec.envelope.scale()

    def test_right_field_agrees_too(self, rng):
        tree = small_tree(3)
        barrier, terminal = dominated_barrier(tree, rng, scale=4.0)
        dec = snell_envelope(barrier, terminal)
        oracle = brute_force_snell(barrier, terminal)
        for level in range(3):
            np.testing.assert_allclose(dec.envelope.right[level], oracle.right[level], atol=1e-12)


class TestEnvelopeProperties:
    def test_dominates_barrier_and_matches_terminal(self, rng):
        tree = small_tree(5)
        barrier, terminal = dominated_barrier(tree, rng)
        dec = snell_envelope(barrier, terminal)
        np.testing.assert_array_equal(dec.envelope.point[5], terminal)
        for level in range(5):
            assert np.all(dec.envelope.point[level] >= barrier.point[level])
            assert np.all(dec.envelope.right[level] >= barrier.right[level])

    def test_charges_are_nonnegative_and_flat_off(self, rng):
        for _ in range(10):
            tree = small_tree(4)
            barrier, terminal = dominated_barrier(tree, rng, scale=3.0)
            dec = snell_envelope(barrier, terminal)
            assert dec.increasing.min_component() >= 0.0
            cont, jump = verify_minimality(dec, barrier)
            assert abs(cont) <= 1e-12 * dec.envelope.scale()
            assert abs(jump) <= 1e-12 * dec.envelope.scale()

    def test_smaller_than_any_dominating_strong_supermartingale(self, rng):
        tree = small_tree(4)
        barrier, terminal = dominated_barrier(tree, rng)
        dec = snell_envelope(barrier, terminal)
        for _ in range(10):
            # backward construction with arbitrary nonnegative slack at each stage
            point = [None] * 5
            right = [None] * 4
            point[4] = terminal + rng.uniform(0.0, 1.0, 16)
            for i in range(3, -1, -1):
                cond = point[i + 1].reshape(-1, 2).mean(axis=1)
                right[i] = np.maximum(cond, barrier.right[i]) + rng.uniform(0.0, 1.0, 1 << i)
                point[i] = np.maximum(right[i], barrier.point[i]) + rng.uniform(0.0, 1.0, 1 << i)
            other = AdaptedRegulatedProcess.from_levels(tree, point, right)
            for level in range(4):
                assert np.all(dec.envelope.point[level] <= point[level] + 1e-12)
                assert np.all(dec.envelope.right[level] <= right[level] + 1e-12)
            assert np.all(dec.envelope.point[4] <= other.point[4] + 1e-12)

    def test_pathwise_decomposition_identity(self, rng):
        tree = small_tree(5)
        barrier, terminal = dominated_barrier(tree, rng, scale=2.0)
        dec = snell_envelope(barrier, terminal)
        y0 = dec.envelope.point[0][0]
        at_point, at_right = dec.increasing.cumulative()
        martingale = dec.martingale()
        for i in range(6):
            recon = y0 + martingale[i] - at_point[i]
            np.testing.assert_allclose(recon, dec.envelope.point[i], atol=1e-12)
        # the martingale part has no right jump, so only K moves at t_i+
        for i in range(5):
            recon = y0 + martingale[i] - at_right[i]
            np.testing.assert_allclose(recon, dec.envelope.right[i], atol=1e-12)

    def test_integrand_represents_the_martingale_part(self, rng):
        tree = small_tree(4)
        barrier, terminal = dominated_barrier(tree, rng)
        dec = snell_envelope(barrier, terminal)
        martingale = dec.martingale()
        for i in range(4):
            step = martingale[i + 1] - np.repeat(martingale[i], 2)
            expected = np.repeat(dec.integrand[i], 2) * tree.sqrt_dt * tree.edge_signs(i + 1)
            np.testing.assert_allclose(step, expected, atol=1e-14)


class TestKIncrements:
    def test_cumulative_hand_example(self):
        tree = small_tree(1)
        k = KIncrements.from_levels(
            tree=tree,
            interval=[np.array([0.5])],
            left=[np.zeros(1), np.array([1.0, 1.0])],
            right=[np.array([0.25])],
        )
        at_point, at_right = k.cumulative()
        np.testing.assert_array_equal(at_point[0], [0.0])
        np.testing.assert_array_equal(at_right[0], [0.25])
        np.testing.assert_array_equal(at_point[1], [1.75, 1.75])
        assert k.total_mass_expectation() == 1.75
        assert k.max_component() == 1.0
        assert k.min_component() == 0.0

    def test_zeros_are_read_only(self):
        zeros = KIncrements.zeros(small_tree(3))
        assert zeros.max_component() == 0.0
        assert [a.shape for a in zeros.left] == [(1,), (2,), (4,), (8,)]
        with pytest.raises(ValueError, match="read-only"):
            zeros.left[2][0] = 1.0

    def test_dominates_ordering(self, rng):
        tree = small_tree(2)
        barrier, terminal = dominated_barrier(tree, rng, scale=3.0)
        k = snell_envelope(barrier, terminal).increasing
        zeros = KIncrements.zeros(tree)
        assert k.dominates(zeros)
        if k.max_component() > 0.0:
            assert not zeros.dominates(k)
        assert zeros.dominates(k, tol=k.max_component())
