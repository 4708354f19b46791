import itertools

import numpy as np
import pytest

from rbsdelab.grid_path import TimeGrid
from rbsdelab.rbsde import solve_reflected_direct
from rbsdelab.scenarios import random_scenario
from rbsdelab.tree_space import (
    ORACLE_DEPTH_CAP,
    AdaptedRegulatedProcess,
    StoppingRule,
    build_tree,
    conditional_expectation,
    count_stopping_rules,
    enumerate_stopping_rules,
    expected_reward,
    martingale_representation,
    rule_value_fields,
)


def small_tree(depth, horizon=1.0):
    return build_tree(TimeGrid(horizon, depth))


def random_process(tree, rng, scale=1.0):
    point = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(tree.depth + 1)]
    right = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(tree.depth)]
    return AdaptedRegulatedProcess.from_levels(tree, point, right)


class TestTreeSpace:
    def test_single_step_tree_has_three_nodes(self):
        tree = small_tree(1)
        assert tree.n_nodes(0) == 1
        assert tree.n_nodes(1) == 2
        levels = tree.brownian()
        np.testing.assert_array_equal(levels[0], [0.0])
        np.testing.assert_allclose(levels[1], [-1.0, 1.0], atol=1e-15)

    def test_depth_three_node_count_and_times(self):
        tree = small_tree(3)
        assert sum(tree.n_nodes(i) for i in range(4)) == 15
        assert tree.dt == pytest.approx(1.0 / 3.0)
        assert tree.time(3) == pytest.approx(1.0)

    def test_level_probabilities_sum_to_one(self):
        tree = small_tree(6)
        for level in range(7):
            assert tree.n_nodes(level) * tree.node_probability(level) == 1.0

    def test_noise_is_centered_at_depth_ten(self):
        tree = small_tree(10)
        assert sum(tree.n_nodes(i) for i in range(11)) == 2**11 - 1
        leaf = tree.brownian()[-1]
        assert tree.expectation(leaf) == 0.0

    def test_edge_signs_alternate(self):
        tree = small_tree(2)
        np.testing.assert_array_equal(tree.edge_signs(1), [-1.0, 1.0])
        np.testing.assert_array_equal(tree.edge_signs(2), [-1.0, 1.0, -1.0, 1.0])

    def test_rejects_out_of_range_levels(self):
        tree = small_tree(2)
        with pytest.raises(ValueError):
            tree.n_nodes(3)
        with pytest.raises(ValueError):
            tree.edge_signs(0)

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_tree(TimeGrid(1.0, 25))


class TestConditionalExpectation:
    def test_sibling_pair_average(self):
        tree = small_tree(1)
        np.testing.assert_array_equal(conditional_expectation(tree, np.array([2.0, 0.0])), [1.0])

    def test_constants_are_fixed_points(self):
        tree = small_tree(4)
        values = np.full(16, 3.25)
        np.testing.assert_array_equal(conditional_expectation(tree, values), np.full(8, 3.25))

    def test_two_steps_average_grandchildren(self, rng):
        tree = small_tree(5)
        values = rng.standard_normal(32)
        twice = conditional_expectation(tree, conditional_expectation(tree, values))
        np.testing.assert_allclose(twice, values.reshape(-1, 4).mean(axis=1), atol=1e-15)

    def test_tower_property(self, rng):
        tree = small_tree(6)
        values = rng.standard_normal(64)
        stepwise = values
        for _ in range(6):
            stepwise = conditional_expectation(tree, stepwise)
        assert stepwise[0] == pytest.approx(tree.expectation(values), abs=1e-14)

    def test_rejects_mismatched_sizes(self):
        tree = small_tree(2)
        with pytest.raises(ValueError):
            conditional_expectation(tree, np.zeros(3))
        with pytest.raises(ValueError):
            conditional_expectation(tree, np.zeros(8))
        with pytest.raises(ValueError):
            conditional_expectation(tree, np.zeros(1))


class TestMartingaleRepresentation:
    def test_unit_step_example(self):
        tree = small_tree(1)
        z = martingale_representation(tree, np.array([0.0, 2.0]))
        np.testing.assert_array_equal(z, [1.0])

    def test_constant_martingale_has_zero_integrand(self):
        tree = small_tree(3)
        z = martingale_representation(tree, np.full(8, 4.0))
        np.testing.assert_array_equal(z, np.zeros(4))

    def test_noise_path_has_unit_integrand_everywhere(self):
        tree = small_tree(5)
        levels = tree.brownian()
        for i in range(1, 6):
            z = martingale_representation(tree, levels[i])
            np.testing.assert_allclose(z, np.ones(tree.n_nodes(i - 1)), atol=1e-13)

    def test_reconstructs_children_exactly(self, rng):
        tree = small_tree(4)
        children = rng.standard_normal(16)
        parent = conditional_expectation(tree, children)
        z = martingale_representation(tree, children)
        up = parent + z * tree.sqrt_dt
        down = parent - z * tree.sqrt_dt
        np.testing.assert_allclose(up, children[1::2], atol=1e-14)
        np.testing.assert_allclose(down, children[0::2], atol=1e-14)

    def test_rejects_a_child_level_of_the_wrong_size(self):
        tree = small_tree(2)
        for size in (1, 3, 8):
            with pytest.raises(ValueError, match="child level"):
                martingale_representation(tree, np.zeros(size))

    def test_parent_check_optional(self):
        tree = small_tree(1)
        z = martingale_representation(tree, np.array([2.0, 0.0]))
        np.testing.assert_array_equal(z, [-1.0])


class TestStoppingRuleCounts:
    @pytest.mark.parametrize(
        "remaining,expected", [(0, 1), (1, 3), (2, 11), (3, 123), (4, 15131)]
    )
    def test_closed_form_counts(self, remaining, expected):
        assert count_stopping_rules(remaining) == expected

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_enumeration_matches_count_and_is_duplicate_free(self, depth):
        tree = small_tree(max(depth, 1))
        rules = enumerate_stopping_rules(tree, from_level=tree.depth - depth)
        assert len(rules) == count_stopping_rules(depth)
        assert len({rule.plan for rule in rules}) == len(rules)

    def test_terminal_level_rules_stop_at_the_point(self):
        tree = small_tree(2)
        rules = enumerate_stopping_rules(tree, from_level=2)
        assert [rule.plan for rule in rules] == [("point",)]

    def test_enumeration_cap(self):
        tree = build_tree(TimeGrid(1.0, ORACLE_DEPTH_CAP + 1))
        with pytest.raises(ValueError, match="capped"):
            enumerate_stopping_rules(tree)
        assert len(enumerate_stopping_rules(tree, from_level=1)) == 15131

    def test_from_level_bounds(self):
        tree = small_tree(2)
        with pytest.raises(ValueError):
            enumerate_stopping_rules(tree, from_level=3)


def replay_reward(tree, rule, running, barrier, terminal, driver):
    """Independent oracle: walk every leaf path separately and average."""
    dt = tree.dt
    span = tree.depth - rule.from_level
    rewards = []
    for bits in itertools.product((0, 1), repeat=span):
        total = 0.0
        level, k, plan = rule.from_level, 0, rule.plan
        for bit in bits:
            if plan[0] != "cont":
                break
            if driver is not None:
                total += driver.delta_plus(level)[k]
            if running is not None:
                total += running.right[level][k] * dt
            k = 2 * k + bit
            level += 1
            if driver is not None:
                total += driver.delta_minus(level)[k]
            plan = plan[1 + bit]
        if plan[0] == "point":
            total += terminal[k] if level == tree.depth else barrier.point[level][k]
        else:
            total += barrier.right[level][k]
            if driver is not None:
                total += driver.delta_plus(level)[k]
        rewards.append(total)
    return float(np.mean(rewards))


class TestExpectedReward:
    def test_stopping_at_the_root_pays_the_barrier(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.from_levels(tree, [[5.0], [0.0, 0.0]], [[0.0]])
        rule = StoppingRule(0, ("point",))
        assert expected_reward(tree, rule, None, barrier, [0.0, 0.0]) == 5.0

    def test_stopping_at_the_horizon_pays_the_mean_terminal(self, rng):
        tree = small_tree(2)
        terminal = rng.standard_normal(4)
        barrier = AdaptedRegulatedProcess.zeros(tree)
        plan = ("cont", ("cont", ("point",), ("point",)), ("cont", ("point",), ("point",)))
        reward = expected_reward(tree, StoppingRule(0, plan), None, barrier, terminal)
        assert reward == pytest.approx(tree.expectation(terminal), abs=1e-14)

    def test_constant_running_term_accrues_over_the_horizon(self, rng):
        tree = small_tree(2)
        terminal = rng.standard_normal(4)
        barrier = AdaptedRegulatedProcess.zeros(tree)
        running = np.full(3, 0.75)
        plan = ("cont", ("cont", ("point",), ("point",)), ("cont", ("point",), ("point",)))
        reward = expected_reward(tree, StoppingRule(0, plan), running, barrier, terminal)
        assert reward == pytest.approx(tree.expectation(terminal) + 0.75, abs=1e-14)

    def test_stopping_just_after_the_root_collects_the_right_jump(self, rng):
        tree = small_tree(1)
        barrier = random_process(tree, rng)
        driver = random_process(tree, rng)
        reward = expected_reward(tree, StoppingRule(0, ("after",)), None, barrier, [0.0, 0.0], driver)
        expected = driver.delta_plus(0)[0] + barrier.right[0][0]
        assert reward == pytest.approx(expected, abs=1e-14)

    def test_every_rule_matches_the_path_replay_oracle(self, rng):
        tree = small_tree(2)
        running = random_process(tree, rng)
        barrier = random_process(tree, rng)
        driver = random_process(tree, rng)
        terminal = rng.standard_normal(4)
        for rule in enumerate_stopping_rules(tree):
            fast = expected_reward(tree, rule, running.rights, barrier, terminal, driver)
            slow = replay_reward(tree, rule, running, barrier, terminal, driver)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_rejects_wrong_terminal_length(self):
        tree = small_tree(2)
        barrier = AdaptedRegulatedProcess.zeros(tree)
        with pytest.raises(ValueError, match="leaves"):
            expected_reward(tree, StoppingRule(0, ("point",)), None, barrier, [0.0, 0.0])

    def test_rejects_a_running_reward_off_the_heap(self):
        tree = small_tree(2)
        barrier = AdaptedRegulatedProcess.zeros(tree)
        rule = StoppingRule(0, ("point",))
        with pytest.raises(ValueError, match="running reward must have 3"):
            expected_reward(tree, rule, np.zeros(2), barrier, np.zeros(4))

    def test_rejects_continuing_past_the_horizon(self):
        tree = small_tree(1)
        barrier = AdaptedRegulatedProcess.zeros(tree)
        with pytest.raises(ValueError, match="terminal-level"):
            expected_reward(tree, StoppingRule(1, ("after",)), None, barrier, [0.0, 0.0], node=1)


class TestRuleValueFields:
    def test_matches_rule_enumeration_at_the_root(self, rng):
        tree = small_tree(3)
        barrier = random_process(tree, rng)
        driver = random_process(tree, rng)
        running = random_process(tree, rng)
        terminal = rng.standard_normal(8)
        fields = rule_value_fields(tree, barrier, terminal, driver, running.rights)
        rules = enumerate_stopping_rules(tree)
        rewards = [
            expected_reward(tree, rule, running.rights, barrier, terminal, driver) for rule in rules
        ]
        assert fields.point[0][0] == pytest.approx(max(rewards), abs=1e-12)
        delayed = [
            reward
            for rule, reward in zip(rules, rewards)
            if rule.plan != ("point",)
        ]
        dplus = driver.delta_plus(0)[0]
        assert fields.right[0][0] == pytest.approx(max(delayed) - dplus, abs=1e-12)

    def test_matches_rule_enumeration_at_inner_nodes(self, rng):
        tree = small_tree(3)
        barrier = random_process(tree, rng)
        driver = random_process(tree, rng)
        terminal = rng.standard_normal(8)
        point = rule_value_fields(tree, barrier, terminal, driver).point
        for node in range(2):
            rewards = [
                expected_reward(tree, rule, None, barrier, terminal, driver, node=node)
                for rule in enumerate_stopping_rules(tree, from_level=1)
            ]
            assert point[1][node] == pytest.approx(max(rewards), abs=1e-12)

    def test_terminal_row_is_the_terminal_payoff(self, rng):
        tree = small_tree(2)
        barrier = random_process(tree, rng)
        terminal = rng.standard_normal(4)
        fields = rule_value_fields(tree, barrier, terminal)
        np.testing.assert_array_equal(fields.point[2], terminal)

    def test_dominates_the_barrier(self, rng):
        tree = small_tree(3)
        barrier = random_process(tree, rng)
        terminal = barrier.point[3] + np.abs(rng.standard_normal(8))
        fields = rule_value_fields(tree, barrier, terminal)
        assert np.all(fields.points >= barrier.points - 1e-14)
        assert np.all(fields.rights >= barrier.rights - 1e-14)

    def test_depth_cap(self):
        tree = build_tree(TimeGrid(1.0, ORACLE_DEPTH_CAP + 1))
        barrier = AdaptedRegulatedProcess.zeros(tree)
        with pytest.raises(ValueError, match="capped"):
            rule_value_fields(tree, barrier, np.zeros(tree.n_nodes(tree.depth)))


class TestHeapLayout:
    def test_levels_are_views_of_the_heap(self, rng):
        tree = small_tree(3)
        proc = random_process(tree, rng)
        for i in range(4):
            assert np.shares_memory(proc.point[i], proc.points)
            for k in range(tree.n_nodes(i)):
                assert proc.point[i][k] == proc.points[(1 << i) - 1 + k]
        for i in range(3):
            assert np.shares_memory(proc.right[i], proc.rights)
        proc.point[2][1] = 7.0
        assert proc.points[4] == 7.0

    def test_level_tuples_reject_item_assignment(self, rng):
        proc = random_process(small_tree(2), rng)
        with pytest.raises(TypeError):
            proc.point[1] = np.zeros(2)
        with pytest.raises(TypeError):
            proc.right[0] = np.zeros(1)

    def test_solved_fields_are_views_of_the_returned_arrays(self, rng):
        sc = random_scenario(rng, depth=3, name="heap")
        trip = solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)
        k = trip.increments
        for i in range(3):
            assert np.shares_memory(trip.value.right[i], trip.value.rights)
            assert np.shares_memory(k.interval[i], k.intervals)
            assert np.shares_memory(k.right[i], k.rights)
            assert np.shares_memory(trip.integrand[i], trip.integrands)
        assert np.shares_memory(k.left[3], k.lefts)

    def test_from_levels_packs_in_heap_order(self):
        tree = small_tree(1)
        proc = AdaptedRegulatedProcess.from_levels(tree, [[1.0], [2.0, 3.0]], [[4.0]])
        np.testing.assert_array_equal(proc.points, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(proc.rights, [4.0])
        with pytest.raises(ValueError, match="heap-ordered entries"):
            AdaptedRegulatedProcess(tree, np.zeros(2), np.zeros(1))


class TestAdaptedRegulatedProcess:
    def test_jump_conventions(self, rng):
        tree = small_tree(2)
        proc = random_process(tree, rng)
        np.testing.assert_array_equal(proc.delta_plus(2), np.zeros(4))
        np.testing.assert_array_equal(proc.delta_minus(0), np.zeros(1))
        np.testing.assert_array_equal(proc.delta_plus(0), proc.right[0] - proc.point[0])
        np.testing.assert_array_equal(
            proc.delta_minus(1), proc.point[1] - np.repeat(proc.right[0], 2)
        )

    def test_flat_jumps_line_up_with_the_level_jumps(self, rng):
        tree = small_tree(3)
        proc = random_process(tree, rng)
        np.testing.assert_array_equal(
            proc.right_jumps(), np.concatenate([proc.delta_plus(i) for i in range(3)])
        )
        np.testing.assert_array_equal(
            proc.left_jumps(), np.concatenate([proc.delta_minus(i) for i in range(1, 4)])
        )

    def test_algebra(self, rng):
        tree = small_tree(2)
        a = random_process(tree, rng)
        b = random_process(tree, rng)
        total = a + b
        for level in range(3):
            np.testing.assert_array_equal(total.point[level], a.point[level] + b.point[level])
        diff = total - b
        for level in range(2):
            np.testing.assert_allclose(diff.right[level], a.right[level], atol=1e-15)
        scaled = 2.0 * a
        np.testing.assert_array_equal(scaled.point[1], 2.0 * a.point[1])
        np.testing.assert_array_equal((-a).point[2], -a.point[2])
        shifted = a + 1.5
        np.testing.assert_array_equal(shifted.right[0], a.right[0] + 1.5)

    def test_copy_is_independent(self, rng):
        tree = small_tree(1)
        a = random_process(tree, rng)
        b = a.copy()
        b.point[0][0] += 1.0
        assert a.point[0][0] != b.point[0][0]

    def test_scale_floors_at_one(self):
        tree = small_tree(1)
        proc = AdaptedRegulatedProcess.constant(tree, 1e-3)
        assert proc.scale() == 1.0
        assert proc.max_abs() == 1e-3

    def test_rejects_mismatched_trees(self, rng):
        a = random_process(small_tree(2), rng)
        b = random_process(small_tree(3), rng)
        with pytest.raises(ValueError, match="different trees"):
            a + b

    def test_validation_errors(self):
        tree = small_tree(2)
        with pytest.raises(ValueError, match="level arrays"):
            AdaptedRegulatedProcess.from_levels(tree, [[0.0]], [[0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="entries"):
            AdaptedRegulatedProcess.from_levels(
                tree, [[0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0], [0.0, 0.0]]
            )
        with pytest.raises(ValueError, match="finite"):
            AdaptedRegulatedProcess.from_levels(
                tree,
                [[np.inf], [0.0, 0.0], [0.0] * 4],
                [[0.0], [0.0, 0.0]],
            )
