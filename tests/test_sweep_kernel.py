"""The one backward sweep against the four loops it replaced.

Each ``reference_*`` function below is a hand-written per-level loop that
the plain solve, the Snell envelope, the reflected sweep of the direct and
reduction routes, and the penalized solve used before they became calls of
``bsde.backward_sweep``.  Every solve except the modified penalization must
reproduce its reference bit for bit.  The modified scheme now reflects its
detected right jumps as max(up, L) instead of up + (L - up)^+, so it agrees
to rounding of the data scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsdelab.bsde import (
    backward_sweep,
    implicit_interval_step,
    make_generator,
    solve_bsde,
    table_generator,
)
from rbsdelab.grid_path import TimeGrid
from rbsdelab.penalization import sigma_array, solve_penalized
from rbsdelab.rbsde import (
    barrier_transform,
    default_lower_bound,
    solve_reflected_direct,
    solve_via_reduction,
)
from rbsdelab.scenarios import Scenario, random_scenario
from rbsdelab.snell import snell_envelope
from rbsdelab.tree_space import (
    AdaptedRegulatedProcess,
    KIncrements,
    build_tree,
    conditional_expectation,
)

# the modified scheme's corrections differ by one rounding per detected node,
# carried backward through contractive steps
MODIFIED_RTOL = 1e-14


def reference_plain(terminal, gen, driver):
    tree = driver.tree
    n = tree.depth
    point = [None] * (n + 1)
    right = [None] * n
    integrand = [None] * n
    point[n] = np.asarray(terminal, dtype=float).copy()
    for i in range(n - 1, -1, -1):
        w = point[i + 1] + driver.delta_minus(i + 1)
        cond = w.reshape(-1, 2).mean(axis=1)
        z = (w[1::2] - w[0::2]) / (2.0 * tree.sqrt_dt)
        y, _ = implicit_interval_step(gen, i, cond, z, tree.dt)
        integrand[i] = z
        right[i] = y
        point[i] = y + driver.delta_plus(i)
    return point, right, integrand, KIncrements.zeros(tree)


def reference_envelope(barrier, terminal):
    tree = barrier.tree
    n = tree.depth
    point = [None] * (n + 1)
    right = [None] * n
    integrand = [None] * n
    zero = KIncrements.zeros(tree)
    k_interval, k_left, k_right = list(zero.interval), list(zero.left), list(zero.right)
    point[n] = np.asarray(terminal, dtype=float).copy()
    for i in range(n - 1, -1, -1):
        child = point[i + 1]
        cond = child.reshape(-1, 2).mean(axis=1)
        integrand[i] = (child[1::2] - child[0::2]) / (2.0 * tree.sqrt_dt)
        ell = barrier.right[i]
        left_charge = np.maximum(ell - cond, 0.0)
        k_left[i + 1] = np.repeat(left_charge, 2)
        right[i] = np.maximum(cond, ell)
        k_right[i] = np.maximum(barrier.point[i] - right[i], 0.0)
        point[i] = np.maximum(right[i], barrier.point[i])
    return point, right, integrand, KIncrements.from_levels(tree, k_interval, k_left, k_right)


def reference_reflected(terminal, gen, driver, interval_floor, left_floor, point_floor):
    tree = driver.tree
    n = tree.depth
    dt = tree.dt
    point = [None] * (n + 1)
    right = [None] * n
    integrand = [None] * n
    zero = KIncrements.zeros(tree)
    k_interval, k_left, k_right = list(zero.interval), list(zero.left), list(zero.right)
    point[n] = np.asarray(terminal, dtype=float).copy()
    for i in range(n - 1, -1, -1):
        w = point[i + 1] + driver.delta_minus(i + 1)
        cond = w.reshape(-1, 2).mean(axis=1)
        z = (w[1::2] - w[0::2]) / (2.0 * tree.sqrt_dt)
        y, _ = implicit_interval_step(gen, i, cond, z, dt, floor=interval_floor[i])
        total = np.maximum(y - cond - gen(i, y, z) * dt, 0.0)
        left = np.minimum(np.maximum(left_floor[i] - cond, 0.0), total)
        k_left[i + 1] = np.repeat(left, 2)
        k_interval[i] = total - left
        integrand[i] = z
        right[i] = y
        up = y + driver.delta_plus(i)
        k_right[i] = np.maximum(point_floor[i] - up, 0.0)
        point[i] = np.maximum(up, point_floor[i])
    return point, right, integrand, KIncrements.from_levels(tree, k_interval, k_left, k_right)


def reference_penalized(terminal, gen, driver, barrier, n, scheme):
    tree = driver.tree
    depth = tree.depth
    sigma = sigma_array(barrier, driver, n) if scheme == "modified" else None
    point = [None] * (depth + 1)
    right = [None] * depth
    integrand = [None] * depth
    zero = KIncrements.zeros(tree)
    k_interval, k_left, k_right = list(zero.interval), list(zero.left), list(zero.right)
    point[depth] = np.asarray(terminal, dtype=float).copy()
    for i in range(depth - 1, -1, -1):
        w = point[i + 1] + driver.delta_minus(i + 1)
        cond = w.reshape(-1, 2).mean(axis=1)
        z = (w[1::2] - w[0::2]) / (2.0 * tree.sqrt_dt)
        y, _ = implicit_interval_step(
            gen, i, cond, z, tree.dt, floor=barrier.right[i], penalty=float(n)
        )
        k_interval[i] = np.maximum(y - cond - gen(i, y, z) * tree.dt, 0.0)
        integrand[i] = z
        right[i] = y
        up = y + driver.delta_plus(i)
        mask = None if sigma is None else sigma[(1 << i) - 1 : (2 << i) - 1]
        if mask is not None and bool(np.any(mask)):
            k_right[i] = np.where(mask, np.maximum(barrier.point[i] - up, 0.0), 0.0)
            point[i] = up + k_right[i]
        else:
            point[i] = up
    return point, right, integrand, KIncrements.from_levels(tree, k_interval, k_left, k_right)


def arrays(point, right, integrand, k):
    """Every stored array of a solution, in a fixed order."""
    return [*point, *right, *integrand, *k.interval, *k.left, *k.right]


def solution_arrays(value, integrand, k):
    return arrays(value.point, value.right, integrand, k)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def penalized_arrays(sol):
    return solution_arrays(sol.value, sol.integrand, sol.increments)


def reduction_reference(sc):
    bound = default_lower_bound(sc.terminal, sc.gen, sc.driver, sc.barrier)
    lhat = barrier_transform(sc.barrier, sc.terminal, bound, sc.driver)
    depth = sc.tree.depth
    floors = [lhat.right[i] for i in range(depth)]
    points = [lhat.point[i] for i in range(depth)]
    return reference_reflected(sc.terminal, sc.gen, sc.driver, floors, floors, points)


def check_every_solve(sc, levels=(1, 8, 64)):
    terminal, gen, driver, barrier = sc.terminal, sc.gen, sc.driver, sc.barrier
    depth = sc.tree.depth
    plain = solve_bsde(terminal, gen, driver)
    assert_same_bytes(
        solution_arrays(plain.value, plain.integrand, plain.increments),
        arrays(*reference_plain(terminal, gen, driver)),
    )

    dec = snell_envelope(barrier, terminal)
    assert_same_bytes(
        solution_arrays(dec.value, dec.integrand, dec.increments),
        arrays(*reference_envelope(barrier, terminal)),
    )

    floors = [barrier.right[i] for i in range(depth)]
    points = [barrier.point[i] for i in range(depth)]
    direct = solve_reflected_direct(terminal, gen, driver, barrier)
    assert_same_bytes(
        solution_arrays(direct.value, direct.integrand, direct.increments),
        arrays(*reference_reflected(terminal, gen, driver, floors, floors, points)),
    )
    reduced = solve_via_reduction(terminal, gen, driver, barrier)
    assert_same_bytes(
        solution_arrays(reduced.value, reduced.integrand, reduced.increments),
        arrays(*reduction_reference(sc)),
    )

    for n in levels:
        classic = solve_penalized(terminal, gen, driver, barrier, n, scheme="classic")
        assert_same_bytes(
            penalized_arrays(classic),
            arrays(*reference_penalized(terminal, gen, driver, barrier, n, "classic")),
        )

        modified = solve_penalized(terminal, gen, driver, barrier, n)
        got = penalized_arrays(modified)
        want = arrays(*reference_penalized(terminal, gen, driver, barrier, n, "modified"))
        scale = max(1.0, max(float(np.max(np.abs(a))) for a in want))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert float(np.max(np.abs(a - b))) <= MODIFIED_RTOL * scale / sc.tree.sqrt_dt


class TestKernelReproducesTheReferenceLoops:
    def test_random_scenarios(self, rng):
        for i in range(6):
            check_every_solve(random_scenario(rng, depth=6, name=f"kernel-{i}"))

    def test_cadlag_scenarios(self, rng):
        for i in range(3):
            check_every_solve(random_scenario(rng, depth=5, name=f"kernel-cad-{i}", cadlag=True))


def drawn_instance(depth, kind, seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(TimeGrid(1.0, depth))
    if kind == "zero":
        gen = make_generator("zero")
    elif kind == "linear":
        a, b = rng.uniform(-1.0, 0.5), rng.uniform(-0.5, 0.5)
        gen = make_generator(f"linear:{a!r},{b!r}")
    elif kind == "monotone_cubic":
        gen = make_generator(f"monotone_cubic:{rng.uniform(0.0, 0.5)!r}")
    else:
        rows = [rng.standard_normal(tree.n_nodes(i)) for i in range(depth)]
        gen = table_generator(tree, rows)

    def process(scale):
        point = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(depth + 1)]
        right = [scale * rng.standard_normal(tree.n_nodes(i)) for i in range(depth)]
        return AdaptedRegulatedProcess.from_levels(tree, point, right)

    driver = process(0.3) if rng.random() < 0.75 else AdaptedRegulatedProcess.zeros(tree)
    barrier = process(1.0)
    terminal = np.maximum(barrier.point[depth], rng.standard_normal(tree.n_nodes(depth)))
    return Scenario(f"drawn-{kind}-{depth}", tree, terminal, gen, driver, barrier)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 8),
    kind=st.sampled_from(["zero", "linear", "monotone_cubic", "table"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_solve_matches_its_reference_loop(depth, kind, seed):
    check_every_solve(drawn_instance(depth, kind, seed), levels=(1, 16))


# signed zeros and subnormals: the sibling mean of -5e-324 and 0.0 rounds to -0.0
SIGNED_ZEROS = np.array([-0.0, 0.0, -5e-324, 5e-324, -1.0, 1.0])


def test_envelope_without_zero_terms_keeps_the_zero_generator_bytes():
    """The envelope hands the kernel no generator and no driver.

    Their zero terms add 0.0, which turns a -0.0 in cond or in a value into
    +0.0, so leaving them out must still give the bytes of the zero
    generator and the zero driver.
    """
    rng = np.random.default_rng(7)
    tree = build_tree(TimeGrid(1.0, 4))
    zero_gen, zero_driver = make_generator("zero"), AdaptedRegulatedProcess.zeros(tree)
    negative_zero_conds = 0
    for _ in range(60):
        barrier = AdaptedRegulatedProcess(
            tree, rng.choice(SIGNED_ZEROS, 31), rng.choice(SIGNED_ZEROS, 15)
        )
        terminal = np.maximum(rng.choice(SIGNED_ZEROS, 16), barrier.point[4])
        cond = conditional_expectation(tree, terminal)
        negative_zero_conds += int(np.sum((cond == 0.0) & np.signbit(cond)))
        dec = snell_envelope(barrier, terminal)
        zero_terms = backward_sweep(
            tree, terminal, zero_gen, zero_driver, floor=barrier.rights, point_floor=barrier.points
        )
        assert_same_bytes(
            solution_arrays(dec.value, dec.integrand, dec.increments),
            solution_arrays(zero_terms.value, zero_terms.integrand, zero_terms.increments),
        )
    assert negative_zero_conds > 0


class TestFloorSizes:
    """``backward_sweep`` names a floor of the wrong size instead of reading part of it."""

    def sweep(self, **floors):
        sc = random_scenario(np.random.default_rng(4), 4)
        return backward_sweep(sc.tree, sc.terminal, sc.gen, sc.driver, **floors)

    def test_interval_floor_with_a_level_too_many(self):
        with pytest.raises(ValueError, match=r"floor must have 15 heap-ordered entries, got shape \(31,\)"):
            self.sweep(floor=np.full(31, -1.0))

    def test_point_floor_with_a_level_too_many(self):
        with pytest.raises(ValueError, match=r"point floor must have 31 heap-ordered entries, got shape \(63,\)"):
            self.sweep(point_floor=np.full(63, -1.0))

    def test_point_floor_with_a_level_too_few(self):
        with pytest.raises(ValueError, match=r"point floor must have 31 heap-ordered entries, got shape \(15,\)"):
            self.sweep(point_floor=np.full(15, -1.0))

    def test_a_floor_may_not_bind_but_may_not_be_nan(self):
        unbound = self.sweep(floor=np.full(15, -np.inf), point_floor=np.full(31, -np.inf))
        plain = self.sweep()
        assert unbound.value.points.tobytes() == plain.value.points.tobytes()
        with pytest.raises(ValueError, match="floor contains a non-finite entry"):
            self.sweep(floor=np.full(15, np.nan))
