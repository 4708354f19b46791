import numpy as np
import pytest

from rbsdelab.bsde import exponential_transform, make_generator
from rbsdelab.scenarios import (
    level_shifted_generator,
    make_tree,
    random_scenario,
    refinable_scenario,
    shifted_generator,
)


def test_level_shifted_generator_needs_one_offset_per_interval():
    tree = make_tree(4)
    with pytest.raises(ValueError, match=r"need one offset per interval \(4\), got 3"):
        level_shifted_generator(tree, make_generator("zero"), np.zeros(3))


@pytest.mark.parametrize("depth", [3, 6])
def test_refinable_scenario_needs_a_depth_divisible_by_four(depth):
    with pytest.raises(ValueError, match="divisible by 4"):
        refinable_scenario(depth)


@pytest.mark.parametrize(
    "spec, affine",
    [
        ("zero", True),
        ("constant:0.3", True),
        ("linear:-0.5,0.2", True),
        ("monotone_cubic:0.2", False),
    ],
)
def test_derived_generators_keep_the_affine_declaration(rng, spec, affine):
    sc = random_scenario(rng, 4, gen=make_generator(spec))
    assert sc.gen.affine is affine
    assert shifted_generator(sc.gen, 0.25).affine is affine
    assert level_shifted_generator(sc.tree, sc.gen, np.arange(4.0)).affine is affine
    assert exponential_transform(0.5, sc.terminal, sc.gen, sc.driver).gen.affine is affine
