"""Solver output pinned byte for byte.

The digests were computed before the solution containers moved to one
heap-ordered layout, and every refactor since must reproduce them, so a
change to the solver's bytes shows up as a change to this file.  Only
values built from +, -, *, /, sqrt, max, min and ``%.17g`` are pinned:
no ``summary.csv`` sums and no fitted rates, whose last bits may depend on
the numpy build.
"""

import hashlib
import textwrap

import numpy as np
import pytest

from rbsdelab.bsde import make_generator
from rbsdelab.cli import main
from rbsdelab.rbsde import solve_reflected_direct, solve_via_reduction
from rbsdelab.scenarios import random_scenario

# seed 1 draws the generators zero, monotone_cubic, linear and monotone_cubic
SOLVE_CONFIG = """\
    [experiment]
    kind = solve
    depth = 6
    count = 4
    seed = 1
    method = both
    """

RESULTS_SHA256 = "f665404060468ecdb0a547a43748050b541db887fd27979f6cd8b9f0b8d8f66d"

STEEP_SHA256 = {
    "direct": "00b09f1be7fd2a1bd239242d9098ff42295406c22e8dc75c1c43480c6c190eec",
    "reduction": "cd68991042166091ffefb3df4bd4630b08bb284bf29b7e61cb09e8b0a633e07d",
}


def sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def solution_sha256(sol) -> str:
    """Digest of the float64 bytes of Y (points, rights), Z and K (interval, left, right)."""
    k = sol.increments
    levels = (sol.value.points, sol.value.rights, *sol.integrand, k.intervals, k.lefts, k.rights)
    return sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in levels)


def steep_cubic_scenario():
    """A depth-10 cubic instance with its data scaled by 30, where |f_y| dt is large."""
    rng = np.random.default_rng([1, 18])
    gen = make_generator(f"monotone_cubic:{float(rng.uniform(0.0, 0.5))!r}")
    sc = random_scenario(rng, 10, gen=gen)
    return sc.terminal * 30.0, gen, sc.driver * 30.0, sc.barrier * 30.0


def test_solve_results_bytes_are_pinned(tmp_path):
    config = tmp_path / "solve.ini"
    config.write_text(textwrap.dedent(SOLVE_CONFIG))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out-dir", str(out)]) == 0
    assert sha256([(out / "results.csv").read_bytes()]) == RESULTS_SHA256


@pytest.mark.parametrize(
    "route",
    [
        pytest.param(solve_reflected_direct, id="direct"),
        pytest.param(solve_via_reduction, id="reduction"),
    ],
)
def test_steep_cubic_solution_bytes_are_pinned(route, request):
    sol = route(*steep_cubic_scenario())
    assert solution_sha256(sol) == STEEP_SHA256[request.node.callspec.id]
