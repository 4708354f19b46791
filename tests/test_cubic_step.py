"""The implicit step of generators declared cubic in y.

A generator declared ``cubic`` starts the Newton steps of its implicit step
at the closed-form root of the cubic that f and ``dy`` at y = 0 determine.
These tests pin the declaration's checks, that the constant shifts keep it
and the exponential transform drops it, what a floored step costs in
generator calls, that a false declaration still ends on a verified root,
and the forward error of every root against the exact root of its own
inputs.
"""

import dataclasses
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rbsdelab import bsde
from rbsdelab.bsde import (
    GeneratorSpec,
    dynamics_residual,
    exponential_transform,
    make_generator,
    validate_generator,
)
from rbsdelab.cli import RESIDUAL_TOL
from rbsdelab.scenarios import (
    level_shifted_generator,
    make_tree,
    random_scenario,
    shifted_generator,
)

from conftest import SOLVES, counted, solution_bytes

DEPTH = 8


def user_cubic(**changes):
    """f = -2 y**3 + 0.3 y + 0.25 z, declared honestly unless ``changes`` say otherwise."""
    honest = dict(
        name="user-cubic",
        fn=lambda level, y, z: -2.0 * (y * y * y) + 0.3 * y + 0.25 * z,
        lipschitz_z=0.25,
        monotone_y=0.3,
        dy=lambda level, y, z: 0.3 - 6.0 * y * y,
        cubic=-2.0,
    )
    return GeneratorSpec(**{**honest, **changes})


def scaled(sc, factor):
    """``sc`` with payoff, driver and barrier multiplied by ``factor``."""
    return dataclasses.replace(
        sc, terminal=sc.terminal * factor, driver=sc.driver * factor, barrier=sc.barrier * factor
    )


class TestDeclaration:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"cubic": 0.5}, "not <= 0"),
            ({"cubic": float("nan")}, "not <= 0"),
            ({"cubic": float("-inf")}, "not <= 0"),
            ({"affine": True}, "both affine and cubic"),
            ({"dy": None}, "has no dy"),
        ],
    )
    def test_construction_rejects_an_impossible_declaration(self, changes, message):
        with pytest.raises(ValueError, match=message):
            user_cubic(**changes)

    def test_only_the_registry_cubic_declares_a_coefficient(self):
        assert make_generator("monotone_cubic:0.3").cubic == -1.0
        assert not make_generator("monotone_cubic:0.3").affine
        for spec in ("zero", "constant:0.3", "linear:-0.5,0.3"):
            assert make_generator(spec).cubic == 0.0

    def test_an_honest_cubic_declaration_validates(self, rng):
        validate_generator(user_cubic(), rng)
        validate_generator(make_generator("monotone_cubic:0.3"), rng)

    @pytest.mark.parametrize("coefficient", [-0.5, -2.0, -1e-3])
    def test_validation_rejects_a_wrong_coefficient(self, rng, coefficient):
        lying = dataclasses.replace(make_generator("monotone_cubic:0.3"), cubic=coefficient)
        with pytest.raises(ValueError, match="wrong cubic coefficient"):
            validate_generator(lying, rng)

    def test_the_constant_shifts_keep_the_coefficient(self, rng):
        tree = make_tree(4)
        gen = user_cubic()
        for shifted in (
            shifted_generator(gen, 0.4),
            level_shifted_generator(tree, gen, rng.standard_normal(tree.depth)),
        ):
            assert shifted.cubic == -2.0
            validate_generator(shifted, rng, levels=tuple(range(tree.depth)))

    def test_the_exponential_transform_drops_a_nonzero_coefficient(self, rng):
        sc = random_scenario(rng, 4)
        for spec, affine in (("linear:-0.5,0.3", True), ("monotone_cubic:0.3", False)):
            gen_t = exponential_transform(0.7, sc.terminal, make_generator(spec), sc.driver).gen
            assert gen_t.cubic == 0.0
            assert gen_t.affine is affine


class TestCallCounts:
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize(
        "form, per_step", [("reflected", {"fn": 6, "dy": 5}), ("penalized", {"fn": 10, "dy": 9})]
    )
    def test_a_floored_cubic_step_costs_a_bounded_number_of_calls(
        self, rng, monkeypatch, scale, form, per_step
    ):
        # the seed costs one call of each, and Newton steps from it end in
        # about three rounds, where they took up to a dozen from E; the
        # bounds leave one call per level of room
        gen, calls = counted(make_generator("monotone_cubic:0.3"))
        sc = scaled(random_scenario(rng, DEPTH, gen=gen), scale)
        fallbacks = []
        monkeypatch.setattr(bsde, "_bisect_step", lambda *args: fallbacks.append(None))
        SOLVES[form](sc)
        assert not fallbacks
        for key, count in per_step.items():
            assert 2 * DEPTH <= calls[key] <= DEPTH * count


class TestFalseDeclarations:
    @pytest.mark.parametrize("coefficient", [-1e-3, -8.0, -1e300])
    @pytest.mark.parametrize("form", sorted(SOLVES))
    def test_a_false_cubic_declaration_still_returns_a_verified_root(self, rng, form, coefficient):
        # a wrong seed costs rounds, not the root: the Newton steps run on
        # the honest f and dy inside a bracket around their start
        cubic = make_generator("monotone_cubic:0.3")
        sc = scaled(random_scenario(rng, DEPTH, gen=cubic), 30.0)
        honest = SOLVES[form](sc)
        lying = dataclasses.replace(sc, gen=dataclasses.replace(cubic, cubic=coefficient))
        sol = SOLVES[form](lying)
        scale = max(sc.scale(), honest.value.scale())
        assert dynamics_residual(sol, sc.terminal, cubic, sc.driver) <= RESIDUAL_TOL * scale
        assert np.max(np.abs(sol.value.points - honest.value.points)) <= 1e-12 * scale

    @pytest.mark.parametrize("form", sorted(SOLVES))
    def test_the_residual_check_catches_a_false_cubic_seed(self, rng, monkeypatch, form):
        # with the Newton steps reduced to returning their start, the step
        # trusts the seed as the affine step trusts its closed form; a false
        # declaration must then be caught by the residual check
        cubic = make_generator("monotone_cubic:0.3")
        sc = random_scenario(rng, DEPTH, gen=cubic)
        honest = SOLVES[form](sc)
        fallbacks = []
        bisect = bsde._bisect_step

        def spy(*args):
            fallbacks.append(None)
            return bisect(*args)

        monkeypatch.setattr(bsde, "_bisect_step", spy)
        monkeypatch.setattr(bsde, "_newton_root", lambda update, slope_fn, start, slope: start)
        lying = dataclasses.replace(sc, gen=dataclasses.replace(cubic, cubic=-0.25))
        sol = SOLVES[form](lying)
        assert len(fallbacks) > 0
        scale = max(sc.scale(), honest.value.scale())
        assert dynamics_residual(sol, sc.terminal, cubic, sc.driver) <= RESIDUAL_TOL * scale
        assert np.max(np.abs(sol.value.points - honest.value.points)) <= 1e-12 * scale


@pytest.mark.parametrize("form", sorted(SOLVES))
def test_the_bytes_do_not_depend_on_the_last_bits_of_sinh(monkeypatch, form):
    # numpy builds differ in the last bits of sinh and asinh; the seed's
    # rounding keeps the solver's bytes, and so the pinned digests, the same
    gen = make_generator("monotone_cubic:0.3")
    sc = scaled(random_scenario(np.random.default_rng([16, 9]), DEPTH, gen=gen), 30.0)
    before = solution_bytes(SOLVES[form](sc))
    sinh = np.sinh
    monkeypatch.setattr(np, "sinh", lambda x: sinh(x) * (1.0 + 2.0**-50))
    assert solution_bytes(SOLVES[form](sc)) == before


def exact_root(e, mu, dt, n_dt=0.0, floor=0.0):
    """Root of (1 + n_dt) y = e + (-y**3 + mu y) dt + n_dt floor by Newton in 50-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        e, mu, dt, n_dt, floor = (Decimal(float(v)) for v in (e, mu, dt, n_dt, floor))
        y = e
        for _ in range(200):
            residual = (1 + n_dt) * y - e - (mu * y - y * y * y) * dt - n_dt * floor
            step = residual / (1 + n_dt + (3 * y * y - mu) * dt)
            y -= step
            if abs(step) <= Decimal("1e-45") * (1 + abs(y)):
                return y
    raise AssertionError("decimal Newton did not converge")


def ulp(x) -> Decimal:
    return Decimal(float(np.spacing(abs(float(x)))))


@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("form", ["reflected", "penalized"])
def test_every_root_is_within_an_ulp_of_the_exact_root_of_its_inputs(monkeypatch, scale, form):
    """Forward error of the cubic step at every node of depth-8 solves.

    A node that keeps its smooth root must lie within 1 ulp of the exact
    root of its own E.  A penalized root solves an equation whose terms
    E and n dt floor may nearly cancel, so the update's own rounding,
    one unit roundoff of each term, scaled by the inverse slope of the
    residual, is allowed on top of its ulp.  Reflected nodes clipped to the
    floor are the floor, and are skipped.
    """
    steps = []
    step = bsde.implicit_interval_step

    def spy(gen, level, cond, z, dt, floor=None, penalty=0.0):
        y, f = step(gen, level, cond, z, dt, floor=floor, penalty=penalty)
        steps.append((gen.name, cond, dt, floor, penalty * dt, y))
        return y, f

    monkeypatch.setattr(bsde, "implicit_interval_step", spy)
    checked = 0
    for seed in range(3):
        rng = np.random.default_rng([16, seed])
        mu = float(rng.uniform(0.0, 0.5))
        gen = make_generator(f"monotone_cubic:{mu!r}")
        steps.clear()
        SOLVES[form](scaled(random_scenario(rng, DEPTH, gen=gen), scale))
        for name, cond, dt, floor, n_dt, y in steps:
            assert name == gen.name
            for k in range(y.size):
                if n_dt == 0.0 and y[k] == floor[k]:
                    continue
                root = exact_root(cond[k], mu, dt)
                allowed = ulp(root)
                if n_dt > 0.0 and root < Decimal(float(floor[k])):
                    root = exact_root(cond[k], mu, dt, n_dt, floor[k])
                    e, pull, m, h = (Decimal(float(v)) for v in (cond[k], n_dt * floor[k], mu, dt))
                    terms = abs(e) + abs(pull) + abs((m - root * root) * root) * h
                    slope = 1 + Decimal(n_dt) + (3 * root * root - m) * h
                    allowed = ulp(root) + ulp(1.0) / 2 * terms / slope
                assert abs(Decimal(float(y[k])) - root) <= allowed, (seed, k, float(root))
                checked += 1
    assert checked > 3 * (1 << DEPTH) // 4
