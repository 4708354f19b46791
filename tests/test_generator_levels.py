"""Every generator evaluation names its tree level, as a plain int.

A spy generator wraps a registry one and records the level of each call of
``fn`` and ``dy``; each route below runs a small instance through it.
"""

import numpy as np
import pytest

from rbsdelab.bsde import (
    GeneratorSpec,
    exponential_transform,
    make_generator,
    solve_bsde,
    validate_generator,
)
from rbsdelab.penalization import solve_penalized
from rbsdelab.rbsde import (
    compare_solutions,
    solve_reflected_direct,
    solve_via_reduction,
    stopping_representation_check,
    verify_solution,
)
from rbsdelab.scenarios import random_scenario

DEPTH = 4


def level_spy(gen, depth):
    """``gen`` with every call checked to receive an int level in [0, depth)."""
    seen = []

    def check(level):
        assert type(level) is int, f"level {level!r} is a {type(level).__name__}"
        assert 0 <= level < depth, f"level {level} outside [0, {depth})"
        seen.append(level)

    def fn(level, y, z):
        check(level)
        return gen.fn(level, y, z)

    def dy(level, y, z):
        check(level)
        return gen.dy(level, y, z)

    spec = GeneratorSpec(f"spy:{gen.name}", fn, gen.lipschitz_z, gen.monotone_y, dy, gen.affine)
    return spec, seen


def solved(sc):
    return solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)


def transformed_solve(sc):
    moved = exponential_transform(0.5, sc.terminal, sc.gen, sc.driver)
    return solve_bsde(moved.terminal, moved.gen, moved.driver)


ROUTES = {
    "plain": lambda sc: solve_bsde(sc.terminal, sc.gen, sc.driver),
    "direct": solved,
    "reduction": lambda sc: solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier),
    "reduction-with-bound": lambda sc: solve_via_reduction(
        sc.terminal, sc.gen, sc.driver, sc.barrier, bound=np.full(DEPTH, -50.0)
    ),
    "verify": lambda sc: verify_solution(solved(sc), sc.terminal, sc.gen, sc.driver, sc.barrier),
    "stopping": lambda sc: stopping_representation_check(
        solved(sc), sc.terminal, sc.gen, sc.driver, sc.barrier
    ),
    "compare": lambda sc: compare_solutions(sc, sc),
    "penalized-modified": lambda sc: solve_penalized(
        sc.terminal, sc.gen, sc.driver, sc.barrier, 8
    ),
    "penalized-classic": lambda sc: solve_penalized(
        sc.terminal, sc.gen, sc.driver, sc.barrier, 8, scheme="classic"
    ),
    "exponential-transform": transformed_solve,
    "validate": lambda sc: validate_generator(
        sc.gen, np.random.default_rng(0), levels=tuple(range(DEPTH))
    ),
}


@pytest.mark.parametrize("spec", ["linear:-0.5,0.3", "monotone_cubic:0.25"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_generator_call_receives_an_int_level(rng, route, spec):
    gen, seen = level_spy(make_generator(spec), DEPTH)
    sc = random_scenario(rng, DEPTH, name=f"spy-{route}", gen=gen)
    ROUTES[route](sc)
    assert set(seen) == set(range(DEPTH))
