import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsdelab import bsde
from rbsdelab.bsde import (
    GeneratorSpec,
    SolverError,
    check_contraction,
    dynamics_residual,
    exponential_transform,
    implicit_interval_step,
    make_generator,
    solve_bsde,
    table_generator,
    validate_generator,
)
from rbsdelab.grid_path import TimeGrid
from rbsdelab.tree_space import AdaptedRegulatedProcess, build_tree


def small_tree(depth, horizon=1.0):
    return build_tree(TimeGrid(horizon, depth))


def random_driver(tree, rng, scale=0.5):
    point = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(tree.depth + 1)]
    right = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(tree.depth)]
    return AdaptedRegulatedProcess.from_levels(tree, point, right)


class TestGeneratorRegistry:
    def test_registry_names_and_constants(self):
        assert make_generator("zero").lipschitz_z == 0.0
        gen = make_generator("linear:-2.0,0.5")
        assert gen.lipschitz_z == 0.5
        assert gen.monotone_y == -2.0
        cubic = make_generator("monotone_cubic:0.25")
        assert cubic.lipschitz_z == 0.0
        assert cubic.monotone_y == 0.25

    def test_registry_evaluation(self):
        y = np.array([1.0, -2.0])
        z = np.array([0.5, 0.5])
        np.testing.assert_array_equal(make_generator("zero")(0.0, y, z), [0.0, 0.0])
        np.testing.assert_array_equal(make_generator("constant: 3.0")(0.0, y, z), [3.0, 3.0])
        np.testing.assert_array_equal(make_generator("linear:1.0,2.0")(0.0, y, z), [2.0, -1.0])
        np.testing.assert_allclose(
            make_generator("monotone_cubic:1.0")(0.0, y, z), [-1.0 + 1.0, 8.0 - 2.0]
        )

    @pytest.mark.parametrize("spec", ["unknown", "linear:1.0", "linear:1,2,3"])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            make_generator(spec)

    @pytest.mark.parametrize(
        "spec", ["zero", "constant:2.0", "linear:-1.5,0.75", "monotone_cubic:0.5"]
    )
    def test_declared_constants_hold_on_samples(self, spec, rng):
        validate_generator(make_generator(spec), rng, samples=200)

    def test_validation_catches_understated_constants(self, rng):
        lying_z = GeneratorSpec("bad-z", lambda level, y, z: 2.0 * z, 0.5, 0.0)
        with pytest.raises(ValueError, match="z-Lipschitz"):
            validate_generator(lying_z, rng)
        lying_y = GeneratorSpec("bad-y", lambda level, y, z: 2.0 * y, 0.0, 0.0)
        with pytest.raises(ValueError, match="monotonicity"):
            validate_generator(lying_y, rng)

    def test_validation_checks_a_declared_slope(self, rng):
        honest = GeneratorSpec(
            "user-linear", lambda level, y, z: -2.0 * y, 0.0, -2.0, lambda level, y, z: -2.0
        )
        validate_generator(honest, rng)
        cubic = make_generator("monotone_cubic:0.5")
        lying = GeneratorSpec("bad-dy", cubic.fn, 0.0, 0.5, lambda level, y, z: 0.5 - 2.0 * y * y)
        with pytest.raises(ValueError, match="y-slope"):
            validate_generator(lying, rng)


class TestTableGenerator:
    def test_rows_are_looked_up_by_level(self):
        tree = small_tree(2, horizon=2.0)
        gen = table_generator(tree, [np.array([1.0]), np.array([3.0, 4.0])])
        np.testing.assert_array_equal(gen(0, np.zeros(1), np.zeros(1)), [1.0])
        np.testing.assert_array_equal(gen(1, np.zeros(2), np.zeros(2)), [3.0, 4.0])

    def test_scalar_rows_broadcast(self):
        tree = small_tree(3)
        gen = table_generator(tree, [np.array([2.0])] * 3)
        np.testing.assert_array_equal(gen(2, np.zeros(4), np.zeros(4)), np.full(4, 2.0))
        # a column of y values sees the level row once per y value
        rows = table_generator(tree, [np.zeros(1), np.zeros(2), np.arange(4.0)])
        np.testing.assert_array_equal(rows(2, np.zeros((5, 1)), np.zeros(1)), [np.arange(4.0)] * 5)

    def test_rejects_bad_rows_and_lookups(self):
        tree = small_tree(2)
        with pytest.raises(ValueError, match="entries"):
            table_generator(tree, [np.zeros(1), np.zeros(3)])
        gen = table_generator(tree, [np.zeros(1), np.zeros(2)])
        with pytest.raises(ValueError):
            gen(1, np.zeros(4), np.zeros(4))
        out = gen(1, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            out[0] = 1.0
        np.testing.assert_array_equal(gen(1, np.zeros(2), np.zeros(2)), [0.0, 0.0])

    def test_matches_constant_generator_in_a_solve(self, rng):
        tree = small_tree(4)
        driver = AdaptedRegulatedProcess.zeros(tree)
        terminal = rng.standard_normal(16)
        via_constant = solve_bsde(terminal, make_generator("constant:0.8"), driver)
        rows = [np.array([0.8])] * 4
        via_table = solve_bsde(terminal, table_generator(tree, rows), driver)
        for level in range(5):
            np.testing.assert_array_equal(
                via_constant.value.point[level], via_table.value.point[level]
            )


class TestSolveBsde:
    def test_zero_generator_closes_the_martingale(self, rng):
        tree = small_tree(5)
        terminal = rng.standard_normal(32)
        pair = solve_bsde(terminal, make_generator("zero"), AdaptedRegulatedProcess.zeros(tree))
        expected = terminal
        for level in range(4, -1, -1):
            expected = expected.reshape(-1, 2).mean(axis=1)
            np.testing.assert_allclose(pair.value.point[level], expected, atol=1e-14)
            np.testing.assert_array_equal(pair.value.right[level], pair.value.point[level])

    def test_constant_generator_adds_the_time_integral(self, rng):
        tree = small_tree(4, horizon=2.0)
        terminal = rng.standard_normal(16)
        pair = solve_bsde(
            terminal, make_generator("constant:0.5"), AdaptedRegulatedProcess.zeros(tree)
        )
        assert pair.value.point[0][0] == pytest.approx(tree.expectation(terminal) + 1.0, abs=1e-12)

    def test_linear_decay_two_steps(self):
        tree = small_tree(2)
        pair = solve_bsde(
            np.ones(4), make_generator("linear:-1.0,0.0"), AdaptedRegulatedProcess.zeros(tree)
        )
        assert pair.value.point[0][0] == pytest.approx((1.0 / 1.5) ** 2, abs=1e-13)

    def test_dynamics_residual_with_a_jumpy_driver(self, rng):
        tree = small_tree(6)
        terminal = rng.standard_normal(64)
        driver = random_driver(tree, rng)
        gen = make_generator("linear:-0.5,0.8")
        pair = solve_bsde(terminal, gen, driver)
        assert dynamics_residual(pair, terminal, gen, driver) <= 1e-12 * pair.value.scale()

    def test_right_jumps_of_the_driver_shift_the_point_value(self, rng):
        tree = small_tree(3)
        driver = random_driver(tree, rng)
        pair = solve_bsde(rng.standard_normal(8), make_generator("zero"), driver)
        for level in range(3):
            np.testing.assert_array_equal(
                pair.value.point[level], pair.value.right[level] + driver.delta_plus(level)
            )

    def test_stiff_cubic_falls_back_to_bisection(self, rng):
        tree = small_tree(4)
        terminal = 10.0 * rng.standard_normal(16)
        gen = make_generator("monotone_cubic:0.5")
        driver = AdaptedRegulatedProcess.zeros(tree)
        pair = solve_bsde(terminal, gen, driver)
        assert dynamics_residual(pair, terminal, gen, driver) <= 1e-12 * pair.value.scale()

    def test_rejects_bad_terminal_length(self):
        tree = small_tree(2)
        with pytest.raises(ValueError, match="leaves"):
            solve_bsde(np.zeros(3), make_generator("zero"), AdaptedRegulatedProcess.zeros(tree))

    def test_contraction_preconditions(self):
        coarse = small_tree(1)
        with pytest.raises(ValueError, match="monotone_y"):
            check_contraction(make_generator("linear:1.5,0.0"), coarse)
        with pytest.raises(ValueError, match="lipschitz_z"):
            check_contraction(make_generator("linear:0.0,1.5"), coarse)
        check_contraction(make_generator("linear:0.9,0.9"), coarse)


class TestImplicitStep:
    def test_explicit_when_the_generator_is_flat(self):
        cond = np.array([1.0, -2.0])
        out = implicit_interval_step(make_generator("zero"), 0, cond, np.zeros(2), 0.1)
        np.testing.assert_array_equal(out, cond)

    def test_floor_clips_the_update(self):
        cond = np.array([0.0, 2.0])
        out = implicit_interval_step(
            make_generator("zero"), 0, cond, np.zeros(2), 0.1, floor=np.ones(2)
        )
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_penalty_closed_form_below_the_floor(self):
        # drift 0 under floor 1 with n*dt = 1 relaxes to the midpoint
        out = implicit_interval_step(
            make_generator("zero"),
            0,
            np.zeros(1),
            np.zeros(1),
            1.0,
            floor=np.ones(1),
            penalty=1.0,
        )
        np.testing.assert_array_equal(out, [0.5])

    def test_penalty_inactive_above_the_floor(self):
        out = implicit_interval_step(
            make_generator("zero"),
            0,
            np.full(1, 2.0),
            np.zeros(1),
            1.0,
            floor=np.ones(1),
            penalty=64.0,
        )
        np.testing.assert_array_equal(out, [2.0])

    def test_implicit_linear_fixed_point(self):
        # y = 2 - y*dt has the closed form 2/(1+dt)
        out = implicit_interval_step(
            make_generator("linear:-1.0,0.0"), 0, np.full(3, 2.0), np.zeros(3), 0.25
        )
        np.testing.assert_allclose(out, np.full(3, 1.6), atol=1e-14)

    def test_bisection_handles_a_steep_cubic(self):
        gen = make_generator("monotone_cubic:0.0")
        cond = np.array([40.0])
        out = implicit_interval_step(gen, 0, cond, np.zeros(1), 0.5)
        residual = out - (cond - out**3 * 0.5)
        assert abs(float(residual[0])) <= 1e-12

    def test_unsolvable_slope_raises(self):
        gen = make_generator("linear:12.0,0.0")
        with pytest.raises(SolverError, match="not solvable"):
            implicit_interval_step(gen, 0, np.ones(1), np.zeros(1), 0.1)

    def test_nan_input_raises(self):
        gen = make_generator("monotone_cubic:0.0")
        with pytest.raises(SolverError, match="failed to converge"):
            implicit_interval_step(gen, 0, np.array([40.0, np.nan]), np.zeros(2), 0.5)

    def test_generator_without_a_root_fails_to_converge(self):
        # y = cond - sign(y)/2 has no solution for 0 < cond < 1/2
        gen = GeneratorSpec("jump", lambda level, y, z: -np.sign(y), 0.0, 0.0)
        with pytest.raises(SolverError, match="failed to converge"):
            implicit_interval_step(gen, 0, np.array([0.001, 0.3]), np.zeros(2), 0.5)

    def test_bisection_stops_once_the_bracket_is_still(self):
        cubic = make_generator("monotone_cubic:0.0")
        evaluations = 0

        def counted(level, y, z):
            nonlocal evaluations
            evaluations += 1
            return cubic.fn(level, y, z)

        gen = GeneratorSpec("counted-cubic", counted, 0.0, 0.0)
        implicit_interval_step(gen, 0, np.array([40.0]), np.zeros(1), 0.5)
        # running all 130 halvings costs 137 evaluations on this input
        assert evaluations < 100

    def test_newton_solves_a_steep_cubic_in_few_evaluations(self):
        cubic = make_generator("monotone_cubic:0.0")
        evaluations = 0

        def counted(level, y, z):
            nonlocal evaluations
            evaluations += 1
            return cubic.fn(level, y, z)

        gen = GeneratorSpec("counted-cubic", counted, 0.0, 0.0, cubic.dy)
        cond = np.array([40.0])
        out = implicit_interval_step(gen, 0, cond, np.zeros(1), 0.5)
        assert abs(float((out - (cond - out**3 * 0.5))[0])) <= 1e-12
        assert evaluations <= 15

    @pytest.mark.parametrize("a,b", [(-0.75, 0.5), (0.75, -0.5), (-3.0, 0.25), (0.5, 0.0)])
    def test_linear_step_matches_its_closed_form(self, rng, a, b):
        cond = rng.uniform(1.0, 3.0, 256) * rng.choice([-1.0, 1.0], 256)
        z = rng.uniform(-1.0, 1.0, 256)
        dt = 0.25
        out = implicit_interval_step(make_generator(f"linear:{a!r},{b!r}"), 0, cond, z, dt)
        np.testing.assert_array_max_ulp(out, (cond + b * z * dt) / (1.0 - a * dt), maxulp=2)

    @pytest.mark.parametrize("spec", ["zero", "constant:-0.7", "table"])
    @pytest.mark.parametrize("form", ["plain", "floor", 1.0, 64.0, 4096.0])
    def test_flat_generators_land_on_the_update_bit_for_bit(self, rng, spec, form):
        tree = small_tree(7)
        cond = rng.standard_normal(64)
        cond[::3] = -0.0
        if spec == "table":
            gen = table_generator(tree, [rng.standard_normal(tree.n_nodes(i)) for i in range(7)])
        else:
            gen = make_generator(spec)
        kwargs = {} if form == "plain" else {"floor": rng.standard_normal(64)}
        if form not in ("plain", "floor"):
            kwargs["penalty"] = form
        out = implicit_interval_step(gen, 6, cond, np.zeros(64), tree.dt, **kwargs)
        expected = steep_update(gen, cond, tree.dt, level=6, **kwargs)(cond)
        assert out.tobytes() == expected.tobytes()

    def test_a_wrong_slope_still_reaches_the_root_through_bisection(self, monkeypatch):
        cubic = make_generator("monotone_cubic:0.0")
        # a slope this steep stalls every Newton step at its start
        gen = GeneratorSpec("wrong-slope", cubic.fn, 0.0, 0.0, lambda level, y, z: -1e300)
        calls = []
        bisect = bsde._bisect_step

        def spy(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(bsde, "_bisect_step", spy)
        cond = np.array([40.0, -3.0, 0.5])
        out = implicit_interval_step(gen, 0, cond, np.zeros(3), 0.5)
        assert len(calls) == 1
        residual = out - (cond - out * out * out * 0.5)
        assert float(np.max(np.abs(residual))) <= bsde.FIXED_POINT_TOL * 40.0


def full_bisection(update, gen, start, dt):
    """Reference: the bisection with all 130 halvings and no early exit."""
    slope = 1.0 - max(0.0, gen.monotone_y) * dt
    width = np.abs(start - update(start)) / slope + 1.0
    lo = start - width
    hi = start + width
    for _ in range(130):
        mid = 0.5 * (lo + hi)
        below = mid - update(mid) <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def steep_update(gen, cond, dt, floor=None, penalty=0.0, level=0):
    """The full update y -> cond + f dt (clipped or penalized) that the step bisects."""

    def update(values):
        drift = cond + gen(level, values, np.zeros_like(cond)) * dt
        if penalty > 0.0:
            relaxed = (drift + penalty * dt * floor) / (1.0 + penalty * dt)
            return np.where(drift >= floor, drift, relaxed)
        if floor is not None:
            return np.maximum(drift, floor)
        return drift

    return update


def bisect_with_reference(gen, cond, dt, **kwargs):
    """The bisection fallback on a steep update, and its reference."""
    update = steep_update(gen, cond, dt, **kwargs)
    floor = kwargs.get("floor")
    bound = [1.0, float(np.max(np.abs(cond)))]
    if floor is not None:
        bound.append(float(np.max(np.abs(floor))))
    scale = max(bound)
    slope = 1.0 - max(0.0, gen.monotone_y) * dt
    y = bsde._bisect_step(update, cond, slope, 0, scale)
    return y, full_bisection(update, gen, cond, dt)


def steep_data(rng, scale, size, form):
    # node 0 is steep and above its floor
    cond = scale * rng.standard_normal(size)
    cond[0] = scale
    kwargs = {}
    if form != "plain":
        kwargs["floor"] = rng.uniform(-5.0, 5.0, size)
        kwargs["floor"][0] = -scale
    if form == "penalty":
        kwargs["penalty"] = 64.0
    return cond, kwargs


class TestBisectionEarlyExit:
    @pytest.mark.parametrize("size", [1, 4096])
    @pytest.mark.parametrize("form", ["plain", "floor", "penalty"])
    def test_matches_all_130_halvings_bit_for_bit(self, form, size):
        cond, kwargs = steep_data(np.random.default_rng(size), 30.0, size, form)
        gen = make_generator("monotone_cubic:0.5")
        y, reference = bisect_with_reference(gen, cond, 0.5, **kwargs)
        assert y.tobytes() == reference.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(min_value=5.0, max_value=300.0),
        mu=st.floats(min_value=-2.0, max_value=1.9),
        form=st.sampled_from(["plain", "floor", "penalty"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_all_130_halvings_over_scale_and_mu(self, scale, mu, form, seed):
        cond, kwargs = steep_data(np.random.default_rng(seed), scale, 64, form)
        gen = make_generator(f"monotone_cubic:{mu!r}")
        y, reference = bisect_with_reference(gen, cond, 0.5, **kwargs)
        assert y.tobytes() == reference.tobytes()


class TestExponentialTransform:
    def test_zero_rate_is_the_identity(self, rng):
        tree = small_tree(3)
        terminal = rng.standard_normal(8)
        driver = random_driver(tree, rng)
        gen = make_generator("linear:0.5,0.5")
        pair = solve_bsde(terminal, gen, driver)
        result = exponential_transform(0.0, terminal, gen, driver, solution=pair)
        np.testing.assert_array_equal(result.terminal, terminal)
        for level in range(4):
            np.testing.assert_array_equal(
                result.candidate_value.point[level], pair.value.point[level]
            )
            # the driver is rebuilt from its jumps, so only rounding-level drift remains
            np.testing.assert_allclose(
                result.driver.point[level], driver.point[level], atol=1e-14
            )
        y = rng.standard_normal(4)
        z = rng.standard_normal(4)
        np.testing.assert_allclose(result.gen(1, y, z), gen(1, y, z), atol=1e-15)

    def test_zero_generator_maps_to_linear_decay(self, rng):
        tree = small_tree(2, horizon=2.0)
        terminal = rng.standard_normal(4)
        driver = AdaptedRegulatedProcess.zeros(tree)
        result = exponential_transform(1.0, terminal, make_generator("zero"), driver)
        np.testing.assert_allclose(result.terminal, np.exp(2.0) * terminal, atol=1e-14)
        y = rng.standard_normal(3)
        z = rng.standard_normal(3)
        for level in range(3):
            np.testing.assert_allclose(result.gen(level, y, z), -y, atol=1e-14)
        assert result.gen.monotone_y == -1.0
        assert result.gen.lipschitz_z == 0.0

    def test_value_and_integrand_scale_by_the_time_factor(self, rng):
        tree = small_tree(3)
        terminal = rng.standard_normal(8)
        driver = random_driver(tree, rng)
        gen = make_generator("linear:-0.5,0.25")
        pair = solve_bsde(terminal, gen, driver)
        result = exponential_transform(0.7, terminal, gen, driver, solution=pair)
        for i in range(4):
            factor = np.exp(0.7 * tree.time(i))
            np.testing.assert_allclose(
                result.candidate_value.point[i], factor * pair.value.point[i], atol=1e-13
            )
        for i in range(3):
            factor = np.exp(0.7 * tree.time(i))
            np.testing.assert_allclose(
                result.candidate_integrand[i], factor * pair.integrand[i], atol=1e-13
            )

    @pytest.mark.parametrize("spec", ["zero", "linear:0.4,0.3", "monotone_cubic:0.25"])
    def test_slope_is_a_central_difference_of_the_transformed_driver(self, rng, spec):
        tree = small_tree(2, horizon=2.0)
        driver = AdaptedRegulatedProcess.zeros(tree)
        gen = exponential_transform(0.7, np.zeros(4), make_generator(spec), driver).gen
        y = rng.uniform(-2.0, 2.0, 8)
        z = rng.uniform(-1.0, 1.0, 8)
        h = 1e-6
        for level in range(3):
            difference = (gen(level, y + h, z) - gen(level, y - h, z)) / (2.0 * h)
            slope = np.broadcast_to(gen.dy(level, y, z), y.shape)
            np.testing.assert_allclose(slope, difference, rtol=1e-6, atol=1e-6)

    def test_driver_jumps_scale_at_their_own_instants(self, rng):
        tree = small_tree(3)
        driver = random_driver(tree, rng)
        result = exponential_transform(
            0.9, np.zeros(8), make_generator("zero"), driver
        )
        for i in range(3):
            factor = np.exp(0.9 * tree.time(i))
            np.testing.assert_allclose(
                result.driver.delta_plus(i), factor * driver.delta_plus(i), atol=1e-13
            )
            factor_next = np.exp(0.9 * tree.time(i + 1))
            np.testing.assert_allclose(
                result.driver.delta_minus(i + 1),
                factor_next * driver.delta_minus(i + 1),
                atol=1e-13,
            )

    def test_candidate_solves_the_transformed_equation_to_first_order(self, rng):
        tree = small_tree(6)
        terminal = rng.standard_normal(64)
        driver = AdaptedRegulatedProcess.zeros(tree)
        gen = make_generator("linear:0.4,0.3")
        pair = solve_bsde(terminal, gen, driver)
        result = exponential_transform(1.0, terminal, gen, driver, solution=pair)
        direct = solve_bsde(result.terminal, result.gen, result.driver)
        gap = max(
            float(np.max(np.abs(direct.value.point[i] - result.candidate_value.point[i])))
            for i in range(7)
        )
        assert gap <= 2.0 * tree.dt * direct.value.scale()
