import warnings

import numpy as np
import pytest

from rbsdelab.grid_path import TimeGrid
from rbsdelab.ito_regulated import (
    DIMENSION_CAP,
    DiscreteSemimartingalePath,
    SmoothFunctionSpec,
    check_consistency,
    cor4_inequality_check,
    ito_residual,
    jump_term_bounds,
    make_function,
    parse_path_csv,
    power_jump_terms,
    power_residual,
    product_residual,
    random_path,
    random_path_away_from_zero,
    serialize_path_csv,
)


def grid(steps, horizon=1.0):
    return TimeGrid(horizon, steps)


def dyadic_path():
    # every value stays exactly representable through the reconstruction
    return DiscreteSemimartingalePath(
        grid(2),
        [1.0],
        [[0.5], [-0.5]],
        [[0.0], [0.25], [0.25]],
        [[-0.25], [0.125], [0.0]],
    )


class TestPathConstruction:
    def test_sample_value_conventions(self):
        path = dyadic_path()
        point, right, left = path.sample_values()
        np.testing.assert_array_equal(point[:, 0], [1.0, 1.5, 1.375])
        np.testing.assert_array_equal(right[:, 0], [0.75, 1.625, 1.375])
        np.testing.assert_array_equal(left[:, 0], [1.0, 1.25, 1.125])
        assert path.min_abs() == 0.75
        assert path.max_abs() == 1.625

    def test_rejects_prohibited_jumps(self):
        with pytest.raises(ValueError, match="time zero"):
            DiscreteSemimartingalePath(
                grid(1), [0.0], [[0.0]], [[1.0], [0.0]], [[0.0], [0.0]]
            )
        with pytest.raises(ValueError, match="horizon"):
            DiscreteSemimartingalePath(
                grid(1), [0.0], [[0.0]], [[0.0], [0.0]], [[0.0], [1.0]]
            )

    def test_rejects_non_finite_and_high_dimension(self):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteSemimartingalePath(
                grid(1), [np.nan], [[0.0]], [[0.0], [0.0]], [[0.0], [0.0]]
            )
        too_wide = np.zeros(DIMENSION_CAP + 1)
        with pytest.raises(ValueError, match="dimension"):
            DiscreteSemimartingalePath(
                grid(1),
                too_wide,
                np.zeros((1, DIMENSION_CAP + 1)),
                np.zeros((2, DIMENSION_CAP + 1)),
                np.zeros((2, DIMENSION_CAP + 1)),
            )


class TestFunctionRegistry:
    @pytest.mark.parametrize("name", ["quadratic", "cubic", "sin_sum"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_declared_derivatives_match_finite_differences(self, name, dimension, rng):
        spec = make_function(name, dimension)
        check_consistency(spec, rng.uniform(-2.0, 2.0, (16, dimension)))

    def test_norm_power_derivatives_away_from_zero(self, rng):
        spec = make_function("power:1.5", 2)
        points = rng.uniform(0.5, 2.0, (16, 2))
        check_consistency(spec, points)

    def test_one_dimensional_square(self):
        spec = make_function("power:2", 1)
        np.testing.assert_array_equal(spec.value(np.array([-3.0])), [9.0])
        np.testing.assert_allclose(spec.gradient(np.array([-3.0])), [[-6.0]])
        np.testing.assert_allclose(spec.hessian(np.array([-3.0])), [[[2.0]]])

    @pytest.mark.parametrize("name", ["quadratic", "cubic", "sin_sum", "power:1.5"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_batched_callbacks_match_one_point_at_a_time(self, name, dimension, rng):
        spec = make_function(name, dimension)
        points = rng.uniform(0.5, 2.0, (7, dimension))
        values, grads, hessians = spec.value(points), spec.gradient(points), spec.hessian(points)
        assert values.shape == (7,)
        assert grads.shape == (7, dimension)
        assert hessians.shape == (7, dimension, dimension)
        for i, x in enumerate(points):
            np.testing.assert_allclose(spec.value(x), values[i : i + 1], rtol=1e-14)
            np.testing.assert_allclose(spec.gradient(x), grads[i : i + 1], rtol=1e-14)
            np.testing.assert_allclose(spec.hessian(x), hessians[i : i + 1], rtol=1e-14)

    def test_rejects_unknown_names_and_dimensions(self):
        with pytest.raises(ValueError, match="unknown smooth function"):
            make_function("quartic", 1)
        with pytest.raises(ValueError, match="dimension"):
            make_function("quadratic", DIMENSION_CAP + 1)

    def test_consistency_catches_a_wrong_gradient(self, rng):
        lying = SmoothFunctionSpec(
            "lying",
            1,
            lambda x: x[:, 0] ** 2,
            lambda x: 3.0 * x,
            lambda x: np.full((x.shape[0], 1, 1), 2.0),
        )
        with pytest.raises(ValueError, match="disagrees with finite differences"):
            check_consistency(lying, rng.uniform(1.0, 2.0, (4, 1)))


class TestItoResidual:
    def test_frozen_path_has_no_residual(self):
        path = DiscreteSemimartingalePath(
            grid(4), [1.0, -2.0], np.zeros((4, 2)), np.zeros((5, 2)), np.zeros((5, 2))
        )
        np.testing.assert_array_equal(ito_residual(path, make_function("sin_sum", 2)), np.zeros(5))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_quadratics_are_expanded_exactly(self, dimension, rng):
        spec = make_function("quadratic", dimension)
        for _ in range(5):
            path = random_path(grid(32), dimension, rng, jump_rate=0.5)
            res = ito_residual(path, spec)
            assert float(np.max(np.abs(res))) <= 1e-12 * max(1.0, path.max_abs()) ** 2

    def test_pure_jump_paths_telescope_for_any_function(self, rng):
        for name in ("quadratic", "sin_sum", "cubic"):
            spec = make_function(name, 2)
            path = random_path(grid(16), 2, rng, cont_sigma=0.0, jump_rate=0.9)
            res = ito_residual(path, spec)
            assert float(np.max(np.abs(res))) <= 1e-12

    def test_smooth_nonpolynomial_residual_is_third_order_small(self, rng):
        path = random_path(grid(128), 2, rng, cont_sigma=0.2, jump_rate=0.2)
        res = ito_residual(path, make_function("sin_sum", 2))
        assert res[0] == 0.0
        assert float(np.max(np.abs(res))) <= 0.05

    def test_rejects_mismatched_dimensions(self, rng):
        path = random_path(grid(4), 2, rng)
        with pytest.raises(ValueError, match="dimensions differ"):
            ito_residual(path, make_function("quadratic", 3))


class TestProductResidual:
    def test_multiplying_by_one_telescopes(self, rng):
        ones = DiscreteSemimartingalePath(
            grid(8), [1.0], np.zeros((8, 1)), np.zeros((9, 1)), np.zeros((9, 1))
        )
        path = random_path(grid(8), 1, rng, jump_rate=0.6)
        res = product_residual(path, ones)
        assert float(np.max(np.abs(res))) <= 1e-13 * max(1.0, path.max_abs())

    def test_squaring_matches_the_power_expansion(self, rng):
        path = random_path(grid(16), 1, rng, jump_rate=0.5)
        res_product = product_residual(path, path)
        res_ito = ito_residual(path, make_function("power:2", 1))
        np.testing.assert_allclose(res_product, res_ito, atol=1e-12)

    def test_random_pairs_are_exact(self, rng):
        for _ in range(10):
            a = random_path(grid(32), 1, rng, jump_rate=0.4)
            b = random_path(grid(32), 1, rng, jump_rate=0.4)
            res = product_residual(a, b)
            scale = max(1.0, a.max_abs()) * max(1.0, b.max_abs())
            assert float(np.max(np.abs(res))) <= 1e-12 * scale

    def test_rejects_vector_paths_and_grid_mismatch(self, rng):
        wide = random_path(grid(4), 2, rng)
        thin = random_path(grid(4), 1, rng)
        with pytest.raises(ValueError, match="scalar paths"):
            product_residual(wide, wide)
        with pytest.raises(ValueError, match="different grids"):
            product_residual(thin, random_path(grid(8), 1, rng))


class TestPowerResidual:
    def test_square_norm_is_exact(self, rng):
        for dimension in (1, 2, 3):
            path = random_path(grid(32), dimension, rng, jump_rate=0.5)
            out = power_residual(path, 2.0)
            scale = max(1.0, path.max_abs()) ** 2
            assert float(np.max(np.abs(out.residual))) <= 1e-12 * scale
            assert out.local_time_estimate is None

    @pytest.mark.parametrize("p", [0.5, 2.5])
    def test_rejects_powers_outside_the_range(self, p, rng):
        path = random_path(grid(4), 1, rng)
        with pytest.raises(ValueError, match="lie in"):
            power_residual(path, p)

    def test_margin_assertion(self):
        near_zero = DiscreteSemimartingalePath(
            grid(1), [1.0], [[-0.9]], np.zeros((2, 1)), np.zeros((2, 1))
        )
        with pytest.raises(ValueError, match="origin"):
            power_residual(near_zero, 1.5, margin=0.5)
        power_residual(near_zero, 1.5, margin=0.05)

    def test_scalar_absolute_value_away_from_zero_needs_no_correction(self, rng):
        path = random_path_away_from_zero(grid(64), 1, rng, margin=0.2, jump_scale=0.1)
        out = power_residual(path, 1.0)
        assert float(np.max(np.abs(out.residual))) <= 1e-12
        np.testing.assert_array_equal(out.local_time_estimate, out.residual)

    def test_scalar_sign_crossing_is_charged_to_the_estimate(self):
        crossing = DiscreteSemimartingalePath(
            grid(1), [0.5], [[-2.0]], np.zeros((2, 1)), np.zeros((2, 1))
        )
        out = power_residual(crossing, 1.0)
        np.testing.assert_array_equal(out.local_time_estimate, [0.0, 3.0])

    def test_scalar_estimate_is_nonnegative_and_nondecreasing(self, rng):
        for _ in range(10):
            path = random_path(grid(64), 1, rng, x0=np.array([0.1]), cont_sigma=0.5)
            local = power_residual(path, 1.0).local_time_estimate
            assert float(np.min(local)) >= -1e-13
            assert float(np.min(np.diff(local))) >= -1e-13


class TestPowerJumpTerms:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_corrections_are_nonnegative(self, p, rng):
        for dimension in (1, 2, 3):
            path = random_path(grid(32), dimension, rng, jump_rate=0.6)
            jminus, jplus = power_jump_terms(path, p)
            assert float(np.min(jminus)) >= -1e-15
            assert float(np.min(jplus)) >= -1e-15

    def test_continuous_paths_have_no_corrections(self, rng):
        path = random_path(grid(16), 2, rng, jump_rate=0.0)
        jminus, jplus = power_jump_terms(path, 1.5)
        np.testing.assert_array_equal(jminus, np.zeros(16))
        np.testing.assert_array_equal(jplus, np.zeros(16))

    @pytest.mark.parametrize("p", [0.5, 2.5, float("nan")])
    def test_rejects_a_power_outside_one_to_two(self, p, rng):
        path = random_path(grid(4), 2, rng)
        with pytest.raises(ValueError, match=r"power must lie in \[1, 2\]"):
            power_jump_terms(path, p)


class TestJumpTermBounds:
    @pytest.mark.parametrize("name", ["quadratic", "cubic", "sin_sum"])
    def test_totals_stay_under_their_curvature_bounds(self, name, rng):
        spec = make_function(name, 2)
        for _ in range(5):
            path = random_path(grid(24), 2, rng, jump_rate=0.5)
            out = jump_term_bounds(path, spec)
            assert out["jminus_total"] <= out["jminus_bound"] + 1e-12
            assert out["jplus_total"] <= out["jplus_bound"] + 1e-12


class TestTailInequality:
    def test_frozen_path_is_tight(self):
        path = DiscreteSemimartingalePath(
            grid(4), [1.0, 0.5], np.zeros((4, 2)), np.zeros((5, 2)), np.zeros((5, 2))
        )
        ok, worst = cor4_inequality_check(path, 1.5)
        assert ok
        assert worst == 0.0

    def test_empty_tail_at_the_horizon_is_exact(self, rng):
        path = random_path(grid(16), 2, rng, jump_rate=0.5)
        ok, worst = cor4_inequality_check(path, 1.5, t=16)
        assert ok
        assert worst == 0.0

    def test_quadratic_power_leaves_no_slack(self, rng):
        for _ in range(5):
            path = random_path(grid(32), 3, rng, jump_rate=0.4)
            ok, worst = cor4_inequality_check(path, 2.0)
            assert ok
            assert abs(worst) <= 1e-10 * max(1.0, path.max_abs()) ** 2

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_random_paths_satisfy_the_bound(self, p, rng):
        for dimension in (1, 2, 3):
            for _ in range(5):
                path = random_path(grid(32), dimension, rng, jump_rate=0.4)
                ok, worst = cor4_inequality_check(path, p)
                assert ok
                assert worst >= -1e-10 * max(1.0, path.max_abs())

    def test_slack_from_the_start_is_the_dropped_orthogonal_mass(self, rng):
        p = 1.5
        path = random_path(grid(24), 2, rng, jump_rate=0.5)
        _, right, _ = path.sample_values()
        expected = 0.0
        for i in range(24):
            r = float(np.linalg.norm(right[i]))
            if r == 0.0:
                continue
            c = path.cont[i]
            s = right[i] / r
            expected += (
                0.5 * p * (2.0 - p) * r ** (p - 2.0) * (float(c @ c) - float(s @ c) ** 2)
            )
        _, worst = cor4_inequality_check(path, p, t=0)
        assert worst == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_rejects_bad_indices_and_powers(self, rng):
        path = random_path(grid(4), 1, rng)
        with pytest.raises(ValueError, match="outside the grid"):
            cor4_inequality_check(path, 1.5, t=5)
        with pytest.raises(ValueError, match="outside the grid"):
            cor4_inequality_check(path, 1.5, t=-1)
        with pytest.raises(ValueError, match="lie in"):
            cor4_inequality_check(path, 3.0)


class TestPathSampling:
    def test_jump_stride_confines_jump_sites(self, rng):
        path = random_path(grid(32), 2, rng, jump_rate=1.0, jump_stride=8)
        for i in range(33):
            if i % 8 != 0:
                np.testing.assert_array_equal(path.left_jumps[i], np.zeros(2))
                np.testing.assert_array_equal(path.right_jumps[i], np.zeros(2))
        flagged = sum(
            1 for i in (8, 16, 24) if np.any(path.left_jumps[i]) or np.any(path.right_jumps[i])
        )
        assert flagged > 0

    def test_margin_sampling(self, rng):
        path = random_path_away_from_zero(grid(16), 2, rng, margin=0.3)
        assert path.min_abs() >= 0.3
        with pytest.raises(ValueError, match="no path stayed"):
            random_path_away_from_zero(grid(16), 2, rng, margin=50.0, tries=5)


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, rng):
        g = grid(12)
        path = random_path(g, 3, rng, jump_rate=0.5)
        text = serialize_path_csv(path)
        back = parse_path_csv(g, text)
        np.testing.assert_array_equal(back.x0, path.x0)
        np.testing.assert_array_equal(back.cont, path.cont)
        np.testing.assert_array_equal(back.left_jumps, path.left_jumps)
        np.testing.assert_array_equal(back.right_jumps, path.right_jumps)

    def test_malformed_tables_are_rejected(self, rng):
        g = grid(4)
        text = serialize_path_csv(random_path(g, 1, rng))
        lines = text.strip().splitlines()
        with pytest.raises(ValueError, match="expected header"):
            parse_path_csv(g, "\n".join(lines[:-1]))
        with pytest.raises(ValueError, match="malformed path header"):
            parse_path_csv(g, "\n".join(["a,b,c"] + lines[1:]))
        broken = lines[:]
        broken[2] = broken[2] + ",0.0"
        with pytest.raises(ValueError, match="cells"):
            parse_path_csv(g, "\n".join(broken))

    def test_tampered_point_column_is_rejected(self, rng):
        g = grid(4)
        text = serialize_path_csv(random_path(g, 1, rng))
        lines = text.strip().splitlines()
        cells = lines[3].split(",")
        cells[-1] = "99.0"
        lines[3] = ",".join(cells)
        with pytest.raises(ValueError, match="disagree with the reconstructed"):
            parse_path_csv(g, "\n".join(lines))


# ----------------------------------------------------------------------
# the per-step loops the whole-path code replaced
#
# Each ``reference_*`` function below is the loop that computed the same
# quantity one grid step at a time.  Sample values, the product identity
# and the CSV text must come out bit for bit the same; the sums whose
# order changed (tail sums, norms, batched function values) must agree
# within REFERENCE_RTOL of the squared path scale.

REFERENCE_RTOL = 1e-12


def reference_sample_values(path):
    n = path.grid.steps
    d = path.dimension
    point = np.empty((n + 1, d))
    right = np.empty((n + 1, d))
    left = np.empty((n + 1, d))
    point[0] = path.x0
    left[0] = path.x0
    for i in range(n):
        right[i] = point[i] + path.right_jumps[i]
        left[i + 1] = right[i] + path.cont[i]
        point[i + 1] = left[i + 1] + path.left_jumps[i + 1]
    right[n] = point[n]
    return point, right, left


def reference_serialize_path_csv(path):
    n = path.grid.steps
    d = path.dimension
    point, _, _ = reference_sample_values(path)
    cols = ["index", "time"]
    for group in ("c", "dminus", "dplus", "x"):
        cols += [f"{group}_{k}" for k in range(d)]
    lines = [",".join(cols)]
    times = path.grid.times()
    for i in range(n + 1):
        c_row = path.cont[i] if i < n else np.zeros(d)
        cells = [str(i), "%.17g" % times[i]]
        for row in (c_row, path.left_jumps[i], path.right_jumps[i], point[i]):
            cells += ["%.17g" % v for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_ito_residual(path, f):
    def value(x):
        return float(f.value(x)[0])

    n = path.grid.steps
    point, right, left = reference_sample_values(path)
    res = np.zeros(n + 1)
    running = 0.0
    f0 = value(point[0])
    for i in range(n):
        running += value(right[i]) - value(point[i])
        c = path.cont[i]
        g = f.gradient(right[i])[0]
        h = f.hessian(right[i])[0]
        running += float(g @ c) + 0.5 * float(c @ h @ c)
        dm = path.left_jumps[i + 1]
        gm = f.gradient(left[i + 1])[0]
        running += float(gm @ dm)
        running += value(point[i + 1]) - value(left[i + 1]) - float(gm @ dm)
        res[i + 1] = value(point[i + 1]) - f0 - running
    return res


def reference_product_residual(path1, path2):
    n = path1.grid.steps
    p1, r1, l1 = (a[:, 0] for a in reference_sample_values(path1))
    p2, r2, l2 = (a[:, 0] for a in reference_sample_values(path2))
    res = np.zeros(n + 1)
    running = 0.0
    start = p1[0] * p2[0]
    for i in range(n):
        running += r1[i] * r2[i] - p1[i] * p2[i]
        c1 = path1.cont[i, 0]
        c2 = path2.cont[i, 0]
        running += r1[i] * c2 + r2[i] * c1 + c1 * c2
        d1 = path1.left_jumps[i + 1, 0]
        d2 = path2.left_jumps[i + 1, 0]
        running += l1[i + 1] * d2 + l2[i + 1] * d1 + d1 * d2
        res[i + 1] = p1[i + 1] * p2[i + 1] - start - running
    return res


def reference_norm_sgn(x):
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 0.0, np.zeros_like(x)
    return r, x / r


def reference_grad_dot(x, p, delta):
    r, s = reference_norm_sgn(x)
    if r == 0.0:
        return 0.0
    return p * r ** (p - 1.0) * float(s @ delta)


def reference_power_jump_terms(path, p):
    n = path.grid.steps
    point, right, left = reference_sample_values(path)
    jminus = np.zeros(n)
    jplus = np.zeros(n)
    for i in range(n):
        jplus[i] = (
            float(np.linalg.norm(right[i])) ** p
            - float(np.linalg.norm(point[i])) ** p
            - reference_grad_dot(point[i], p, path.right_jumps[i])
        )
        jminus[i] = (
            float(np.linalg.norm(point[i + 1])) ** p
            - float(np.linalg.norm(left[i + 1])) ** p
            - reference_grad_dot(left[i + 1], p, path.left_jumps[i + 1])
        )
    return jminus, jplus


def reference_power_residual(path, p):
    n = path.grid.steps
    point, right, left = reference_sample_values(path)
    jminus, jplus = reference_power_jump_terms(path, p)
    res = np.zeros(n + 1)
    running = 0.0
    start = float(np.linalg.norm(point[0])) ** p
    for i in range(n):
        running += reference_grad_dot(point[i], p, path.right_jumps[i])
        running += jplus[i]
        c = path.cont[i]
        running += reference_grad_dot(right[i], p, c)
        r, s = reference_norm_sgn(right[i])
        if r > 0.0:
            c2 = float(c @ c)
            qform = float(s @ c) ** 2
            running += 0.5 * p * r ** (p - 2.0) * ((2.0 - p) * (c2 - qform) + (p - 1.0) * c2)
        running += reference_grad_dot(left[i + 1], p, path.left_jumps[i + 1])
        running += jminus[i]
        res[i + 1] = float(np.linalg.norm(point[i + 1])) ** p - start - running
    return res


def reference_tail_slack(path, p):
    """Slack of the tail bound at every grid time, one O(n) sum per time."""
    n = path.grid.steps
    point, right, left = reference_sample_values(path)
    powers = np.array([float(np.linalg.norm(point[i])) ** p for i in range(n + 1)])
    jminus, jplus = reference_power_jump_terms(path, p)
    gplus = np.zeros(n)
    lin = np.zeros(n)
    bracket = np.zeros(n)
    atoms = np.zeros(n)
    for i in range(n):
        gplus[i] = reference_grad_dot(point[i], p, path.right_jumps[i])
        c = path.cont[i]
        lin[i] = reference_grad_dot(right[i], p, c)
        gap = (
            float(np.linalg.norm(right[i] + c)) ** p
            - float(np.linalg.norm(right[i])) ** p
            - lin[i]
        )
        r, s = reference_norm_sgn(right[i])
        ortho = 0.0
        if r > 0.0:
            c2 = float(c @ c)
            ortho = 0.5 * p * (2.0 - p) * r ** (p - 2.0) * (c2 - float(s @ c) ** 2)
        bracket[i] = gap - ortho
        atoms[i] = reference_grad_dot(left[i + 1], p, path.left_jumps[i + 1])
    slack = np.empty(n + 1)
    for tau in range(n + 1):
        lhs = (
            powers[tau]
            + float(np.sum(bracket[tau:]))
            + float(np.sum(jminus[tau:]))
            + float(np.sum(jplus[tau:]))
        )
        rhs = (
            powers[n]
            - float(np.sum(lin[tau:]))
            - float(np.sum(atoms[tau:]))
            - float(np.sum(gplus[tau:]))
        )
        slack[tau] = rhs - lhs
    return slack


def reference_jump_term_bounds(path, f):
    def value(x):
        return float(f.value(x)[0])

    n = path.grid.steps
    point, right, left = reference_sample_values(path)
    jminus_total = jplus_total = sq_left = abs_right = hess_sup = grad_sup = 0.0
    ts = np.linspace(0.0, 1.0, 9)[:, None]
    for i in range(n):
        dp = path.right_jumps[i]
        jplus_total += abs(value(right[i]) - value(point[i]))
        abs_right += float(np.linalg.norm(dp))
        for x in point[i][None, :] * (1.0 - ts) + right[i][None, :] * ts:
            grad_sup = max(grad_sup, float(np.linalg.norm(f.gradient(x)[0])))
        dm = path.left_jumps[i + 1]
        gm = f.gradient(left[i + 1])[0]
        jminus_total += abs(value(point[i + 1]) - value(left[i + 1]) - float(gm @ dm))
        sq_left += float(dm @ dm)
        for x in left[i + 1][None, :] * (1.0 - ts) + point[i + 1][None, :] * ts:
            hess_sup = max(hess_sup, float(np.linalg.norm(f.hessian(x)[0], ord=2)))
    return {
        "jminus_total": jminus_total,
        "jminus_bound": 0.5 * hess_sup * sq_left,
        "jplus_total": jplus_total,
        "jplus_bound": grad_sup * abs_right,
    }


def origin_path():
    """Dyadic 2-d path that sits at the origin at a point, a left limit and the end."""
    return DiscreteSemimartingalePath(
        grid(2),
        [0.0, 0.0],
        [[-0.5, 0.0], [0.0, -0.25]],
        [[0.0, 0.0], [0.0, 0.25], [0.0, 0.0]],
        [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
    )


def assert_close_at_path_scale(got, want, path):
    scale = max(1.0, path.max_abs()) ** 2
    assert float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) <= REFERENCE_RTOL * scale


class TestWholePathCodeAgainstTheStepLoops:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_sample_values_and_csv_are_byte_equal(self, dimension, rng):
        for steps in (1, 7, 64):
            path = random_path(grid(steps), dimension, rng, jump_rate=0.5)
            for got, want in zip(path.sample_values(), reference_sample_values(path)):
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert serialize_path_csv(path) == reference_serialize_path_csv(path)

    def test_signed_zero_samples_are_byte_equal(self):
        # x + (-0.0) keeps -0.0, so the forced zero jumps must not turn it into +0.0
        path = DiscreteSemimartingalePath(
            grid(2), [-0.0, 1.0], np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 2))
        )
        for got, want in zip(path.sample_values(), reference_sample_values(path)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert serialize_path_csv(path) == reference_serialize_path_csv(path)

    @pytest.mark.parametrize("name", ["quadratic", "cubic", "sin_sum"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_ito_residual_and_jump_bounds(self, name, dimension, rng):
        spec = make_function(name, dimension)
        for _ in range(3):
            path = random_path(grid(48), dimension, rng, jump_rate=0.5)
            assert_close_at_path_scale(
                ito_residual(path, spec), reference_ito_residual(path, spec), path
            )
            got = jump_term_bounds(path, spec)
            want = reference_jump_term_bounds(path, spec)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=REFERENCE_RTOL, abs=1e-15)

    def test_product_residual_is_bit_identical(self, rng):
        for steps in (1, 16, 64):
            a = random_path(grid(steps), 1, rng, jump_rate=0.5)
            b = random_path(grid(steps), 1, rng, jump_rate=0.5)
            assert product_residual(a, b).tobytes() == reference_product_residual(a, b).tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_power_terms_and_tail_slack(self, p, dimension, rng):
        for _ in range(3):
            path = random_path(grid(48), dimension, rng, jump_rate=0.5)
            for got, want in zip(power_jump_terms(path, p), reference_power_jump_terms(path, p)):
                assert_close_at_path_scale(got, want, path)
            assert_close_at_path_scale(
                power_residual(path, p).residual, reference_power_residual(path, p), path
            )
            slack = reference_tail_slack(path, p)
            _, worst = cor4_inequality_check(path, p)
            assert_close_at_path_scale(worst, np.min(slack), path)
            for t in (0, 17, 48):
                _, at_t = cor4_inequality_check(path, p, t=t)
                assert_close_at_path_scale(at_t, slack[t], path)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_a_path_through_the_origin_uses_sgn_zero(self, p):
        path = origin_path()
        point, right, left = path.sample_values()
        assert not np.any(point[0]) and not np.any(left[1]) and not np.any(point[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jminus, jplus = power_jump_terms(path, p)
            residual = power_residual(path, p).residual
            _, worst = cor4_inequality_check(path, p)
        # sgn(0) = 0 drops the gradient atoms at the origin, so the convex
        # corrections are the full powers of the jumps away from it
        np.testing.assert_array_equal(jplus, [0.5 ** p, 0.0])
        np.testing.assert_array_equal(jminus, [0.25 ** p, 0.0])
        ref_jminus, ref_jplus = reference_power_jump_terms(path, p)
        np.testing.assert_array_equal(jminus, ref_jminus)
        np.testing.assert_array_equal(jplus, ref_jplus)
        assert_close_at_path_scale(residual, reference_power_residual(path, p), path)
        assert_close_at_path_scale(worst, np.min(reference_tail_slack(path, p)), path)
