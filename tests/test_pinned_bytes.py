"""Solver output pinned byte for byte.

The digests were computed before the solution containers moved to one
heap-ordered layout, and every refactor since must reproduce them, so a
change to the solver's bytes shows up as a change to this file.  Only
values built from +, -, *, /, sqrt, max, min and ``%.17g`` are pinned:
no ``summary.csv`` sums and no fitted rates, whose last bits may depend on
the numpy build.  The cubic digests were re-pinned when the implicit step
started its Newton steps at the closed-form root of a declared cubic; the
zero and linear ones are the earlier digests, unchanged.  That root's sinh
and asinh reach the bytes only through a start rounded to 27 bits, which
a few ulp of difference in them moves only where it straddles a rounding
boundary, about once in 10**7 nodes.
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

RESULTS_HEADER = b"scenario,level,node,time,y_point,y_right,z,k_interval,k_left,k_right\n"

# digest of each scenario's rows of results.csv, in file order
RESULTS_SHA256 = {
    "random-000": "a9be574ed114b3c7a912136c1f919ead6815a94f93c597a272e3177ffc369bb8",  # zero
    "random-001": "5aee72f28f24c04e95bfd9f167f7340011b17c9bda4785debc48127799a4dc2a",  # cubic
    "random-002": "ce4a9c03a81a7a6e9f3865f32bb7c2490b3b2593a6b243e9cb1b1aac0bbe4591",  # linear
    "random-003": "e006aca86ba49189a03ecd1d4bf0950fe92ba8d91d6052594afc901711130ff7",  # cubic
}

# a deeper run whose cells include values below 1e-11, printed with exponents
DEEP_SOLVE_CONFIG = """\
    [experiment]
    kind = solve
    depth = 12
    count = 4
    seed = 1
    method = both
    """

DEEP_RESULTS_SHA256 = "df85dbe4a6297da3f83c9d53e265467a920541a2caa5c45f95826d4e31e720f5"

STEEP_SHA256 = {
    "direct": "950a40100fc29c2b33cd3e86f7205a5b508d5e02b6d85cd7be2c37f9ec28bb17",
    "reduction": "99c0199ef09d84d3276754043abbf193ebd93b58946e4ca4e43339ae94593195",
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
    header, *rows = (out / "results.csv").read_bytes().splitlines(keepends=True)
    assert header == RESULTS_HEADER
    scenarios = {}
    for row in rows:
        scenarios.setdefault(row.split(b",", 1)[0].decode(), []).append(row)
    assert {name: sha256(lines) for name, lines in scenarios.items()} == RESULTS_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_deep_solve_results_bytes_are_pinned(tmp_path, jobs):
    config = tmp_path / "solve.ini"
    config.write_text(textwrap.dedent(DEEP_SOLVE_CONFIG))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out-dir", str(out), "--jobs", jobs]) == 0
    assert sha256([(out / "results.csv").read_bytes()]) == DEEP_RESULTS_SHA256


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
