"""The closed-form implicit step of generators declared affine in y.

A generator declared ``affine`` is solved by one Newton step from the
conditional expectation.  These tests pin what that costs in generator
calls, that flat generators keep their bytes, that the linear root lies
within 2 ulp of the exact one, and that a false declaration is rejected by
validation or caught by the step's residual check.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rbsdelab import bsde
from rbsdelab.bsde import (
    GeneratorSpec,
    dynamics_residual,
    implicit_interval_step,
    make_generator,
    table_generator,
    validate_generator,
)
from rbsdelab.cli import RESIDUAL_TOL
from rbsdelab.rbsde import solve_via_reduction
from rbsdelab.scenarios import make_tree, random_scenario

from conftest import SOLVES, counted, solution_bytes

DEPTH = 8


class TestCallCounts:
    @pytest.mark.parametrize(
        "spec, form, per_step",
        [
            ("constant:0.3", "reflected", {"fn": 2}),
            ("constant:0.3", "penalized", {"fn": 2}),
            ("linear:-0.5,0.3", "reflected", {"fn": 2, "dy": 1}),
            ("linear:-0.5,0.3", "penalized", {"fn": 2, "dy": 1}),
        ],
    )
    def test_a_floored_affine_step_costs_a_fixed_number_of_calls(self, rng, spec, form, per_step):
        gen, calls = counted(make_generator(spec))
        sc = random_scenario(rng, DEPTH, gen=gen)
        SOLVES[form](sc)
        assert calls == Counter({key: DEPTH * count for key, count in per_step.items()})

    @pytest.mark.parametrize("spec", ["monotone_cubic:0.3", "linear:-0.5,0.3", "zero"])
    @pytest.mark.parametrize("form", sorted(SOLVES))
    def test_the_charge_split_calls_no_generator(self, rng, monkeypatch, spec, form):
        gen, calls = counted(make_generator(spec))
        inside = Counter()
        step = bsde.implicit_interval_step

        def spy(*args, **kwargs):
            before = calls.copy()
            out = step(*args, **kwargs)
            inside.update(calls - before)
            return out

        monkeypatch.setattr(bsde, "implicit_interval_step", spy)
        SOLVES[form](random_scenario(rng, DEPTH, gen=gen))
        assert calls["fn"] >= 2 * DEPTH
        assert calls == inside

    def test_the_step_returns_the_generator_at_its_root(self, rng):
        gen = make_generator("monotone_cubic:0.3")
        cond = rng.standard_normal(64)
        z = rng.standard_normal(64)
        floor = rng.standard_normal(64)
        for kwargs in ({}, {"floor": floor}, {"floor": floor, "penalty": 64.0}):
            y, f = implicit_interval_step(gen, 3, cond, z, 0.125, **kwargs)
            assert f.tobytes() == gen(3, y, z).tobytes()
        y, f = implicit_interval_step(None, 3, cond, z, 0.125, floor=floor)
        assert f == 0.0
        assert y.tobytes() == np.maximum(cond + 0.0, floor).tobytes()


def flat_generator(spec, tree, rng):
    if spec == "table":
        return table_generator(tree, [rng.standard_normal(tree.n_nodes(i)) for i in range(DEPTH)])
    return make_generator(spec)


FLAT_SOLVES = {
    **SOLVES,
    "reduction": lambda sc: solve_via_reduction(sc.terminal, sc.gen, sc.driver, sc.barrier),
}


class TestFlatBytes:
    @pytest.mark.parametrize("spec", ["zero", "constant:-0.4", "table"])
    @pytest.mark.parametrize("form", sorted(FLAT_SOLVES))
    def test_the_declaration_does_not_change_a_flat_solve(self, rng, spec, form):
        gen = flat_generator(spec, make_tree(DEPTH), rng)
        assert gen.affine
        sc = random_scenario(rng, DEPTH, gen=gen)
        undeclared = dataclasses.replace(sc, gen=dataclasses.replace(gen, affine=False))
        solve = FLAT_SOLVES[form]
        assert solution_bytes(solve(sc)) == solution_bytes(solve(undeclared))


def exact_linear_root(a, b, cond, z, dt, floor=None, penalty=0.0):
    """The root of the linear step in rational arithmetic on the float inputs."""
    a, b, dt, n_dt = Fraction(a), Fraction(b), Fraction(dt), Fraction(penalty) * Fraction(dt)
    roots = []
    for c, zz, fl in zip(cond, z, floor if floor is not None else [None] * len(cond)):
        c, zz = Fraction(c), Fraction(zz)
        y = (c + b * zz * dt) / (1 - a * dt)
        if fl is not None:
            fl = Fraction(fl)
            if penalty > 0.0:
                if y < fl:
                    y = (c + b * zz * dt + n_dt * fl) / (1 + n_dt - a * dt)
            else:
                y = max(y, fl)
        roots.append(y)
    return roots


@pytest.mark.parametrize("a,b", [(-0.75, 0.5), (0.75, -0.5), (-3.0, 0.25), (0.5, 0.0)])
@pytest.mark.parametrize(
    "form, penalty, ulps",
    [
        ("plain", 0.0, 2),
        ("floor", 0.0, 2),
        ("penalty", 1.0, 3),
        ("penalty", 64.0, 3),
        ("penalty", 4096.0, 3),
    ],
)
def test_the_linear_closed_form_is_within_a_few_ulp_of_the_exact_root(
    rng, a, b, form, penalty, ulps
):
    # the penalized root divides a sum of three rounded terms, hence its wider bound
    cond = rng.uniform(1.0, 3.0, 256) * rng.choice([-1.0, 1.0], 256)
    z = rng.uniform(-1.0, 1.0, 256)
    dt = 0.125
    kwargs = {}
    if form != "plain":
        # a floor one away from the data keeps every node clearly on one side
        kwargs["floor"] = cond + rng.choice([-1.0, 1.0], 256)
    if penalty > 0.0:
        kwargs["penalty"] = penalty
    y, _ = implicit_interval_step(make_generator(f"linear:{a!r},{b!r}"), 5, cond, z, dt, **kwargs)
    for got, exact in zip(y, exact_linear_root(a, b, cond, z, dt, **kwargs)):
        ulp = Fraction(float(np.spacing(abs(float(exact)))))
        assert abs(Fraction(float(got)) - exact) <= ulps * ulp


class TestFalseDeclarations:
    def test_an_honest_affine_declaration_validates(self, rng):
        honest = GeneratorSpec(
            "user-affine",
            lambda level, y, z: 0.5 - 2.0 * y,
            0.0,
            -2.0,
            lambda level, y, z: -2.0,
            affine=True,
        )
        validate_generator(honest, rng)
        validate_generator(table_generator(make_tree(2), [np.ones(1), np.ones(2)]), rng)

    def test_a_generator_declared_flat_must_ignore_y(self, rng):
        lying = GeneratorSpec("flat-liar", lambda level, y, z: -0.5 * y, 0.0, 0.0, affine=True)
        with pytest.raises(ValueError, match="declared flat"):
            validate_generator(lying, rng)

    def test_an_affine_generator_must_have_a_constant_slope(self, rng):
        cubic = make_generator("monotone_cubic:0.3")
        lying = dataclasses.replace(cubic, affine=True, cubic=0.0)
        with pytest.raises(ValueError, match="declared affine"):
            validate_generator(lying, rng)

    @pytest.mark.parametrize("form", sorted(SOLVES))
    def test_the_residual_check_catches_a_false_affine_declaration(self, rng, monkeypatch, form):
        cubic = make_generator("monotone_cubic:0.3")
        sc = random_scenario(rng, DEPTH, gen=cubic)
        honest = SOLVES[form](sc)
        fallbacks = []
        bisect = bsde._bisect_step

        def spy(*args):
            fallbacks.append(None)
            return bisect(*args)

        monkeypatch.setattr(bsde, "_bisect_step", spy)
        lying = dataclasses.replace(sc, gen=dataclasses.replace(cubic, affine=True, cubic=0.0))
        sol = SOLVES[form](lying)
        # one Newton step misses the cubic's root, so the bisection must have run
        assert len(fallbacks) > 0
        scale = max(sc.scale(), honest.value.scale())
        assert dynamics_residual(sol, sc.terminal, cubic, sc.driver) <= RESIDUAL_TOL * scale
        assert np.max(np.abs(sol.value.points - honest.value.points)) <= 1e-12 * scale
