"""The ``results.csv`` number encoder against Python's ``'%.17g' % x``.

``cli._encode`` computes the 17 significant digits in integer arithmetic
and prints a cell with Python only where its kernel cannot prove the
digits exact.  Every test here compares its text byte for byte with
``'%.17g'`` and says which of the three branches (zero, kernel, Python)
printed each cell.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from rbsdelab import cli

CHUNK = 100_000


def encode(values):
    """The concatenated text of ``values``, each cell's length, and the cells Python printed."""
    x = np.asarray(values, dtype=float).reshape(-1, 1)
    slots = np.tile(cli._SLOT_TEXT, (x.size, 1, 1))
    keep = np.zeros(slots.shape, bool)
    python = cli._encode(x, slots, keep)
    return slots[keep].tobytes(), keep.sum(axis=2)[:, 0], python[0]


def expected(values):
    texts = ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]
    return "".join(texts).encode(), np.array([len(t) for t in texts])


def check(values):
    """Assert every cell's text is its '%.17g'; return the cells each branch printed."""
    values = np.asarray(values, dtype=float)
    zero = kernel = python = 0
    for start in range(0, values.size, CHUNK):
        chunk = values[start : start + CHUNK]
        text, lengths, by_python = encode(chunk)
        want_text, want_lengths = expected(chunk)
        # equal lengths and equal concatenations mean every cell is equal
        assert np.array_equal(lengths, want_lengths)
        assert text == want_text
        zero += int(np.count_nonzero(chunk == 0.0))
        python += by_python.size
        kernel += chunk.size - int(np.count_nonzero(chunk == 0.0)) - by_python.size
    return {"zero": zero, "kernel": kernel, "python": python}


def exact_ties(rng, count):
    """Doubles c * 2**-k, c odd, whose exact decimal has 18 significant digits ending in 5.

    c * 5**k has no trailing zero, so it has 18 digits exactly when it lies
    in [10**17, 10**18); the 17-digit rounding of such a double is a tie.
    """
    k = rng.integers(2, 26, count)
    low = np.maximum(np.ceil(1e17 / 5.0**k), 1.0)
    high = np.minimum(np.floor(1e18 / 5.0**k), 2.0**53 - 1)
    c = (low + np.floor(rng.random(count) * (high - low))).astype(np.int64) | 1
    ties = np.ldexp(c.astype(float), -k) * rng.choice([-1.0, 1.0], count)
    exact = [int(ci) * 5 ** int(ki) for ci, ki in zip(c.tolist(), k.tolist())]
    ties = ties[[10**17 <= e < 10**18 for e in exact]]
    return ties


def edge_values():
    powers = 10.0 ** np.arange(-25, 21)
    limits = np.array(
        [
            5e-324,  # smallest subnormal
            2.2250738585072014e-308,  # smallest normal
            1.7976931348623157e308,  # largest finite
            1e-4,  # last value printed without an exponent, and the first with one
            9.9999999999999991e-5,
            1.0000000000000001e-5,
            1e-11,  # around the last power of five the table holds exactly
            1e-12,
            1e16,  # around the first 17-digit integers
            1e17,
            12345678901234567.0,
            0.5,
            1.5,
            0.1,
        ]
    )
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        above = np.nextafter(limits, np.inf)
    values = np.concatenate(
        [
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            9.9999999999999995 * powers,  # rounds up to the next power of ten
            limits,
            np.nextafter(limits, 0.0),
            above,
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    return np.concatenate([values, -values])


def test_edge_values_print_as_python_prints_them():
    reached = check(edge_values())
    assert all(count > 0 for count in reached.values()), reached


def test_exact_ties_round_half_even_in_the_kernel():
    ties = exact_ties(np.random.default_rng(7), 600_000)
    assert ties.size > 500_000
    reached = check(ties)
    assert reached == {"zero": 0, "kernel": ties.size, "python": 0}


def test_two_million_doubles_match_python():
    rng = np.random.default_rng(20261020)
    patterns = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    scaled = rng.standard_normal(800_000) * 10.0 ** rng.integers(-30, 21, 800_000)
    solver_like = np.where(rng.random(200_000) < 0.4, 0.0, rng.uniform(-6.0, 6.0, 200_000))
    values = np.concatenate([patterns.view(np.float64), scaled, solver_like])
    reached = check(values)
    assert sum(reached.values()) >= 2_000_000
    assert all(count > 0 for count in reached.values()), reached


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_any_finite_double_prints_as_python_prints_it(values):
    check(values)
