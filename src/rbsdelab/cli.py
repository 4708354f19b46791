"""Batch experiment runner: configs in, deterministic CSV artifacts out.

Every run is a pure function of the config file and the seed; floats are
printed with seventeen significant digits and files are written atomically,
so repeated runs produce byte-identical artifacts.  The exit status is zero
exactly when every asserted invariant of the run passed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import inspect
import os
import sys
import tempfile
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np

from .grid_path import TimeGrid
from .tree_space import ORACLE_DEPTH_CAP
from .bsde import SolverError
from .snell import brute_force_snell, minimality_residuals, snell_envelope
from .rbsde import (
    compare_solutions,
    solution_distance,
    solve_reflected_direct,
    solve_via_reduction,
    stopping_representation_check,
    verify_solution,
)
from .penalization import STUDY_COLUMNS, ConvergenceStudy, check_study, convergence_study
from .ito_regulated import (
    cor4_inequality_check,
    ito_residual,
    make_function,
    power_jump_terms,
    product_residual,
    random_path,
    serialize_path_csv,
)
from .scenarios import (
    SCENARIO_KEYS,
    equal_barrier_pair,
    load_config,
    make_tree,
    ordered_pair,
    random_generator,
    random_scenario,
    scenario_from_config,
    snell_scenario,
)

__all__ = ["main", "run_experiment", "emit_convergence_table", "fit_rate"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

RESIDUAL_TOL = 1e-10
CHARGE_TOL = 1e-12
ROUTE_TOL = 1e-9
EXACTNESS_TOL = 1e-12
SLACK_TOL = 1e-10


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _write_atomic(path: str, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` to ``path`` atomically.

    ``parts`` is consumed while the file is written.  If writing or the
    iterable raises, the temporary file is removed and ``path`` is untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(parts)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _scenario_rng(seed: int, index: int) -> np.random.Generator:
    # Seeding on the pair keeps scenarios independent of worker scheduling.
    return np.random.default_rng([int(seed), int(index)])


def _numbers(kind):
    """Parser of a comma-separated list of ``kind``."""
    return lambda text: [kind(tok) for tok in text.split(",")]


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean, expected one of {sorted(states)}")
    return states[text.lower()]


# Every [experiment] key but kind: its parser, the check of the parsed value
# (None: any) and the message of a value that fails it.  The keyword
# parameters of a verb's runner are the keys it reads, with their defaults.
_KEYS = {
    "seed": (int, lambda n: n >= 0, "{key} must be at least 0, got {value}"),
    "depth": (int, lambda n: n >= 1, "{key} must be at least 1, got {value}"),
    "count": (int, lambda n: n >= 1, "{key} must be at least 1, got {value}"),
    "paths": (int, lambda n: n >= 1, "{key} must be at least 1, got {value}"),
    "steps": (int, None, None),
    "dimension": (int, None, None),
    "horizon": (float, None, None),
    "cadlag": (_boolean, None, None),
    "method": (str, lambda name: name in ("direct", "reduction", "both"), "unknown method {value!r}"),
    # checked together with levels by check_study
    "mode": (str, None, None),
    "levels": (_numbers(int), None, None),
    "powers": (
        _numbers(float),
        lambda powers: all(1.0 <= p <= 2.0 for p in powers),
        "{key} must lie in [1, 2], got {value}",
    ),
}


@contextlib.contextmanager
def _named(label: str):
    """Raise a solver or data error inside the block as a RuntimeError led by ``label``.

    Floating-point overflow and invalid operations are errors in the block,
    so data too large for the solvers is named, not carried on as inf or nan.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (SolverError, ValueError, FloatingPointError) as exc:
        raise RuntimeError(f"{label}: {exc}") from exc


def _scenario_source(scenario, seed, depth, count, horizon, prefix, cadlag):
    """The number of a run's scenarios, and the function that builds each.

    A ``[scenario]`` section configures the run's one scenario.  Otherwise
    ``count`` scenarios are drawn, index i from its own seeded stream and
    named ``prefix-iii``.
    """

    def build(index: int):
        if scenario is not None:
            return scenario_from_config(scenario, make_tree(depth, horizon), name="configured-000")
        rng = _scenario_rng(seed, index)
        return random_scenario(rng, depth, horizon, name=f"{prefix}-{index:03d}", cadlag=cadlag)

    return (1 if scenario is not None else count), build


def _map_ordered(fn, items, jobs: int) -> Iterator:
    """Yield ``fn(item)`` for every item, in input order, as results arrive.

    At most ``jobs`` items are started and not yet yielded, so finished
    results never pile up behind a slow earlier one; the memory held at once
    does not depend on how the workers happen to be scheduled.
    """
    if jobs <= 1:
        # not a one-thread pool: its thread and futures cost about a megabyte
        # of peak memory on runs of small scenarios, for the same bytes
        yield from map(fn, items)
        return
    items = iter(items)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque(pool.submit(fn, item) for item in islice(items, jobs))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result
            # not held while the next result is awaited
            del result


def fit_rate(levels, gaps) -> float | None:
    """Decay order of ``gaps`` against ``levels`` by log-log least squares.

    Returns None when fewer than two positive gaps are available.
    """
    levels, gaps = np.asarray(levels, float), np.asarray(gaps, float)
    positive = gaps > 0.0
    if np.count_nonzero(positive) < 2:
        return None
    return float(-np.polyfit(np.log(levels[positive]), np.log(gaps[positive]), 1)[0])


def emit_convergence_table(study: ConvergenceStudy) -> str:
    """Fixed-schema CSV for a penalization study."""
    if not study.rows:
        raise ValueError("empty study")
    lines = [",".join(STUDY_COLUMNS)]
    for row in study.rows:
        n, *rest = dataclasses.astuple(row)
        lines.append(",".join([str(int(n))] + [_fmt(v) for v in rest]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# results.csv: '%.17g' in integer arithmetic
#
# A finite nonzero double is x = m * 2**(b - 1075), with b its biased
# exponent and m < 2**53.  '%.17g' prints the 17 digits of
# N = round-half-even(|x| * 10**t), t = 16 - E, where E is the exponent
# that puts N in [10**16, 10**17), and lays them out by E (Steele & White
# 1990).  With 5**t = (f + d) * 2**g, f a 64-bit integer and 0 <= d < 1,
# |x| * 10**t is the 117-bit product m * f shifted right by
# s = 1075 - b - g - t bits, plus m * d shifted alike.  f holds 5**t exactly
# for 0 <= t <= 27, so N is exact there, ties included; for other t, N is the
# rounding of both bounds, m * f and m * (f + 1), where they agree.  A cell
# where they do not, or whose double is subnormal or not finite, is printed
# by Python, so every byte is the one '%.17g' prints.  The tables are built
# on first use, so a run that writes no results.csv does not hold them.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# every t that a normal double needs, with room for one correction of E
_T_MIN, _T_MAX = -300, 330


@functools.cache
def _five_powers():
    """f (as 32-bit halves), g + t and whether f is rounded, per t from _T_MIN."""
    rows = {}
    p = 1
    for t in range(_T_MAX + 1):
        g = p.bit_length() - 64
        rows[t] = (p >> g if g >= 0 else p << -g, g + t, g > 0)
        p *= 5
    p = 1
    for t in range(1, -_T_MIN + 1):
        p *= 5
        g = 63 + p.bit_length()
        rows[-t] = ((1 << g) // p, -g - t, True)
    f, shift, rounded = zip(*(rows[t] for t in range(_T_MIN, _T_MAX + 1)))
    f = np.array(f, _U64)
    return f >> _U64(32), f & _LOW32, np.array(shift), np.array(rounded)


@functools.cache
def _decades():
    """Per biased exponent b: E with 10**E <= 2**(b - 1023), and 10**(E + 1)."""
    below = np.floor(np.log10(2.0) * (np.arange(2048) - 1023)).astype(np.int64)
    with np.errstate(over="ignore"):
        return below, 10.0 ** (below + 1.0)


def _product(m, j):
    """The 128-bit product of m and f at table index j, as high and low 64-bit halves."""
    f_high, f_low, _, _ = _five_powers()
    f1, f0 = f_high[j], f_low[j]
    m1, m0 = m >> _U64(32), m & _LOW32
    # every product and sum is written into an array it no longer needs
    low = m0 * f0
    cross = np.multiply(m0, f1, out=m0)
    high = np.multiply(m1, f1, out=f1)
    mid = np.multiply(m1, f0, out=m1)
    mid += np.right_shift(low, _U64(32), out=f0)
    mid += np.bitwise_and(cross, _LOW32, out=f0)
    high += np.right_shift(cross, _U64(32), out=cross)
    high += np.right_shift(mid, _U64(32), out=f0)
    low &= _LOW32
    low |= np.left_shift(mid, _U64(32), out=mid)
    return high, low


def _scaled(m, b, t):
    """floor(m * 2**(b - 1075) * 10**t), its rounding, and whether that rounding is exact."""
    j = t - _T_MIN
    floor, rest = _product(m, j)
    _, _, shift, rounded = _five_powers()
    s = shift[j]
    np.subtract(1075, s, out=s)
    s -= b
    exact = s <= 63
    s = np.minimum(s, 63, out=s).view(_U64)
    below = np.subtract(_U64(64), s)
    floor <<= below
    floor |= np.right_shift(rest, s, out=below)
    below = np.left_shift(_U64(1), s, out=below)
    below -= _U64(1)
    half = s - _U64(1)
    np.left_shift(_U64(1), half, out=half)
    rest &= below
    n = floor + ((rest > half) | ((rest == half) & (floor & _U64(1)).astype(bool)))
    # the bound from f + 1, where f is rounded
    np.add(rest, m, out=rest, where=rounded[j])
    up = np.right_shift(rest, s)
    up += floor
    rest &= below
    up += (rest > half) | ((rest == half) & (up & _U64(1)).astype(bool))
    return floor, n, exact & (n == up)


def _decimal(x):
    """N, E and where they are exact, for nonzero doubles x."""
    bits = x.view(_U64)
    b = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64)
    m = bits & _U64(2**52 - 1) | _U64(2**52)
    normal = (b > 0) & (b < 2047)
    below, next_power = _decades()
    t = np.where(normal, 16 - below[b] - (np.abs(x) >= next_power[b]), 0)
    floor, n, exact = _scaled(m, b, t)
    # E may be one off: at a power of ten, or where N rounds up to 10**17
    wrong = normal & ~(exact & (floor >= _U64(10**16)) & (n < _U64(10**17)))
    if wrong.any():
        i = np.flatnonzero(wrong)
        t[i] += np.where(exact[i] & (n[i] >= _U64(10**17)), -1, 1)
        floor[i], n[i], exact[i] = _scaled(m[i], b[i], t[i])
    exact &= normal & (floor >= _U64(10**16)) & (n < _U64(10**17))
    return n, 16 - t, exact


# A cell's text is written into a slot of _SLOT bytes: '-', the '0' of
# '0.', 17 integer digits, '.', the zeros after '0.', 17 fraction digits,
# and 'e', sign and three exponent digits.  N's digits go into both digit
# runs, and _keep_patterns(), indexed by sign, layout class and significant digits,
# marks the bytes that '%.17g' prints.
_SLOT = 45
_INT, _DOT, _FRAC, _EXP = 2, 19, 23, 40
_SLOT_TEXT = np.frombuffer(b"-0" + bytes(17) + b".000" + bytes(17) + b"e" + bytes(4), np.uint8)
# classes 0..20 print E = -4..16 without an exponent; 21 and 22 with two and three exponent digits
_CLASSES = 23


@functools.cache
def _keep_patterns():
    neg = np.arange(2)[:, None, None, None]
    cls = np.arange(_CLASSES)[:, None, None]
    digits = np.arange(18)[:, None]
    pos = np.arange(_SLOT)
    fixed = cls <= 20
    e = cls - 4
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)  # digits before the '.'
    i, z, f = pos - _INT, pos - _DOT - 1, pos - _FRAC
    keep = (
        ((pos == 0) & (neg == 1))
        | ((pos == 1) & fixed & (e < 0))
        | ((i >= 0) & (i < whole))
        | ((pos == _DOT) & (digits > whole))
        | ((z >= 0) & (z < 3) & fixed & (z < -e - 1))
        | ((f >= whole) & (f < digits) & (pos < _EXP))
        | ((pos >= _EXP) & ~fixed & ((pos != _EXP + 2) | (cls == 22)))
    )
    return keep.reshape(-1, _SLOT)


@functools.cache
def _digit_tables():
    """The four digits of 0..9999 as bytes, the significant digits of N up to
    and including each 4-digit group j of the 16 after the first (0 for a zero
    group), and the sign and digits of exponents -400..400 as bytes."""
    chars = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + np.uint8(ord("0"))
    significant = np.max((chars != ord("0")) * np.arange(1, 5, dtype=np.uint8), axis=1)
    significant = (significant + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (significant > 0)
    exponents = np.array([b"%+04d" % e for e in range(-400, 401)]).view(np.uint32)
    return chars.view(np.uint32).ravel(), significant.ravel(), exponents


# node >= _NODE_DIGIT[p] prints digit p of its eight
_NODE_DIGIT = np.array([10**p for p in range(7, 0, -1)] + [0])
_BLOCK_ROWS = 4096


def _write_digits(n, slots):
    """Write the 17 digits of each N into both digit runs; return its significant digits."""
    lead, rest = np.divmod(n, _U64(10**16))
    groups = np.empty((n.size, 4), np.intp)  # the 16 digits after the first, in fours
    for j, part in enumerate(np.divmod(rest, _U64(10**8), out=(rest, np.empty_like(rest)))):
        np.divmod(part, _U64(10**4), out=(groups[:, 2 * j], groups[:, 2 * j + 1]))
    digits4, significant, _ = _digit_tables()
    chars = digits4[groups].view(np.uint8).reshape(slots.shape[:-1] + (16,))
    lead = np.add(lead, _U64(ord("0")), out=lead).reshape(slots.shape[:-1])
    slots[..., _INT], slots[..., _INT + 1 : _INT + 17] = lead, chars
    slots[..., _FRAC], slots[..., _FRAC + 1 : _FRAC + 17] = lead, chars
    groups += np.arange(0, 40000, 10000)
    return np.maximum(significant[groups].max(axis=1), 1)


def _encode(x, slots, keep):
    """Write the '%.17g' text of each cell of ``x`` into its slot and mark its bytes.

    ``x`` is a C-contiguous (rows, columns) array, ``slots`` and ``keep``
    are (rows, columns, _SLOT) views holding _SLOT_TEXT.  Returns the
    indices of the cells printed by Python, whose slots no longer do.
    """
    flat = x.reshape(-1)
    n = np.zeros(flat.size, _U64)
    e = np.zeros(flat.size, np.int64)
    exact = np.ones(flat.size, bool)
    cells = np.flatnonzero(flat)
    n[cells], e[cells], exact[cells] = _decimal(flat[cells])
    digits = _write_digits(n, slots)
    slots[..., _EXP + 1 :] = _digit_tables()[2][e + 400].view(np.uint8).reshape(x.shape + (4,))
    cls = np.where((e >= -4) & (e <= 16), e + 4, 21 + (np.abs(e) >= 100))
    key = ((flat.view(_U64) >> _U64(63)).astype(np.int64) * _CLASSES + cls) * 18 + digits
    np.take(_keep_patterns(), key.reshape(x.shape), axis=0, out=keep)
    python = np.unravel_index(np.flatnonzero(~exact), x.shape)
    if python[0].size:
        texts = ["%.17g" % v for v in x[python].tolist()]
        slots[python] = np.array(texts, f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)
        keep[python] = np.arange(_SLOT) < np.array([len(text) for text in texts])[:, None]
    return python


def _row_template(head: bytes, columns: int, gap: bytes, tail: bytes):
    """A level's row before its node and cells are written, and the bytes that print.

    The row is ``head``, then per column a slot and ``gap``; the last gap
    holds ``tail``, padded with bytes that do not print.
    """
    slot = np.concatenate([_SLOT_TEXT, np.frombuffer(gap, np.uint8)])
    text = np.concatenate([np.frombuffer(head, np.uint8), np.tile(slot, columns)])
    keep = np.ones(text.size, bool)
    end = text.size - len(gap)
    text[end : end + len(tail)] = np.frombuffer(tail, np.uint8)
    keep[end + len(tail) :] = False
    return text, keep


def _solution_rows(name: str, sol) -> Iterator[str]:
    """The ``results.csv`` rows of one solution, one text part per block of rows.

    Each level is written in blocks of at most ``_BLOCK_ROWS`` nodes: the
    block's cells are encoded at once into a byte matrix of the level's row
    template, and the bytes that print are its text.  Only one block's
    text exists at a time, whatever the depth.
    """
    tree = sol.value.tree
    times = tree.grid.times()
    value, k = sol.value, sol.increments
    for level in range(tree.depth + 1):
        if level == tree.depth:
            # no right value, integrand, interval charge or right jump after the horizon
            columns = (value.point[level], k.left[level])
            gap, tail = b",,,,", b",\n"
        else:
            columns = (
                value.point[level],
                value.right[level],
                sol.integrand[level],
                k.interval[level],
                k.left[level],
                k.right[level],
            )
            gap, tail = b",", b"\n"
        prefix = f"{name},{level},".encode()
        head = prefix + bytes(8) + f",{_fmt(times[level])},".encode()
        template, printed = _row_template(head, len(columns), gap, tail)
        nodes = tree.n_nodes(level)
        rows = min(nodes, _BLOCK_ROWS)
        text = np.empty((rows, template.size), np.uint8)
        keep = np.empty((rows, template.size), bool)
        text[:], keep[:] = template, printed
        cells = np.empty((rows, len(columns)))
        node_at, slots_at = len(prefix), len(head)
        for start in range(0, nodes, rows):
            node = np.arange(start, min(start + rows, nodes))
            block, mask, values = text[: node.size], keep[: node.size], cells[: node.size]
            digits = _digit_tables()[0][np.stack(np.divmod(node, 10**4), axis=1)]
            block[:, node_at : node_at + 8] = digits.view(np.uint8)
            np.greater_equal(node[:, None], _NODE_DIGIT, out=mask[:, node_at : node_at + 8])
            for j, column in enumerate(columns):
                values[:, j] = column[start : start + node.size]
            shape = (node.size, len(columns), _SLOT + len(gap))
            slots = block[:, slots_at:].reshape(shape)[..., :_SLOT]
            python = _encode(values, slots, mask[:, slots_at:].reshape(shape)[..., :_SLOT])
            yield str(block[mask].data, "utf-8")
            slots[python] = _SLOT_TEXT


# ----------------------------------------------------------------------
# experiment kinds


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _summary(out_dir: str, header: str, outcomes: list[tuple[bool, str]]) -> bool:
    """Write ``summary.csv``: ``header``, then each outcome's rows; True when every outcome passed."""
    lines = [header] + [rows for _, rows in outcomes]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _ in outcomes)


def _run_solve(
    out_dir, jobs, scenario, *, seed=0, depth=3, count=12, horizon=1.0, method="both"
) -> bool:
    count, build = _scenario_source(scenario, seed, depth, count, horizon, "random", cadlag=False)

    def solve(index: int):
        # Each worker builds the scenario it solves, so a batch never holds
        # more instances than there are workers.
        scenario = build(index)
        data = (scenario.terminal, scenario.gen, scenario.driver, scenario.barrier)
        with _named(f"scenario {scenario.name}"):
            gap = None
            if method == "reduction":
                sol = solve_via_reduction(*data, bound=scenario.bound)
            else:
                sol = solve_reflected_direct(*data)
                if method == "both":
                    other = solve_via_reduction(*data, bound=scenario.bound)
                    gap = max(solution_distance(sol, other).values())
            report = verify_solution(sol, *data)
        scale = max(scenario.scale(), sol.value.scale())
        ok = (
            report.dynamics_residual <= RESIDUAL_TOL * scale
            and abs(report.minimality_continuous) <= RESIDUAL_TOL * scale
            and abs(report.minimality_right_jump) <= RESIDUAL_TOL * scale
            and report.domination_margin >= -CHARGE_TOL * scale
            and report.negative_charge >= -CHARGE_TOL * scale
            and (gap is None or gap <= ROUTE_TOL * scale)
        )
        summary = [scenario.name, _fmt(scale), *map(_fmt, dataclasses.astuple(report))]
        summary += ["" if gap is None else _fmt(gap), _status(ok)]
        return scenario.name, ok, sol, ",".join(summary)

    def work(index: int):
        # Only the solution outlives solve(): the scenario, the other route's
        # solution and the report are freed before its rows are formatted.
        name, ok, sol, summary = solve(index)
        part = os.path.join(parts_dir, f"{index}.csv")
        with open(part, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_solution_rows(name, sol))
        return ok, part, summary

    outcomes = []

    def parts():
        # The writer only copies: part files in scenario order, 1 MB at a time,
        # each deleted once copied, so at most jobs + 1 of them exist at once.
        yield "scenario,level,node,time,y_point,y_right,z,k_interval,k_left,k_right\n"
        for ok, part, summary in _map_ordered(work, range(count), jobs):
            outcomes.append((ok, summary))
            with open(part, encoding="utf-8", newline="") as handle:
                yield from iter(functools.partial(handle.read, 1 << 20), "")
            os.remove(part)

    # closing() stops the workers before their directory is removed
    with tempfile.TemporaryDirectory(prefix="results.csv.parts-", dir=out_dir) as parts_dir:
        with contextlib.closing(parts()) as text:
            _write_atomic(os.path.join(out_dir, "results.csv"), text)
    header = "scenario,scale,dynamics_residual,domination_margin,minimality_continuous,"
    header += "minimality_right_jump,negative_charge,route_gap,status"
    return _summary(out_dir, header, outcomes)


def _run_oracle(out_dir, jobs, *, seed=0, depth=3, count=20) -> bool:
    if depth > ORACLE_DEPTH_CAP:
        raise ValueError(f"oracle checks are capped at depth {ORACLE_DEPTH_CAP}")

    def work(index: int):
        rng = _scenario_rng(seed, index)
        check = "envelope" if index % 2 == 0 else "representation"
        if check == "envelope":
            scenario = snell_scenario(rng, depth, name=f"envelope-{index:03d}")
        else:
            gen = random_generator(rng, nonzero=True)
            scenario = random_scenario(rng, depth, name=f"stopped-{index:03d}", gen=gen)
        data = (scenario.terminal, scenario.gen, scenario.driver, scenario.barrier)
        with _named(f"scenario {scenario.name}"):
            if check == "envelope":
                envelope = snell_envelope(scenario.barrier, scenario.terminal)
                oracle = brute_force_snell(scenario.barrier, scenario.terminal)
                dev = max(
                    float(np.max(np.abs(envelope.value.points - oracle.points))),
                    float(np.max(np.abs(envelope.value.rights - oracle.rights))),
                    *map(abs, minimality_residuals(envelope, scenario.barrier)),
                )
            else:
                dev = stopping_representation_check(solve_reflected_direct(*data), *data)
        threshold = RESIDUAL_TOL * scenario.scale()
        ok = dev <= threshold
        row = ",".join([scenario.name, check, _fmt(dev), _fmt(threshold), _status(ok)])
        return ok, row

    results = list(_map_ordered(work, range(count), jobs))
    return _summary(out_dir, "scenario,check,deviation,threshold,status", results)


def _run_penalize(
    out_dir, jobs, scenario, *, seed=0, depth=4, count=1, horizon=1.0, cadlag=False,
    levels=(1, 2, 4, 8, 16, 32, 64), mode="modified",
) -> bool:
    check_study(levels, mode)
    count, build = _scenario_source(scenario, seed, depth, count, horizon, "study", cadlag)

    def work(index: int):
        scenario = build(index)
        with _named(f"scenario {scenario.name}"):
            study = convergence_study(
                scenario.terminal,
                scenario.gen,
                scenario.driver,
                scenario.barrier,
                levels,
                mode=mode,
                bound=scenario.bound,
            )
        table = emit_convergence_table(study)
        worst_mono = max(row.monotonicity_violation for row in study.rows)
        gaps = [row.sup_gap_y for row in study.rows]
        rate = fit_rate(levels, gaps)
        ok = worst_mono <= RESIDUAL_TOL * scenario.scale()
        cells = [scenario.name, str(int(levels[-1])), _fmt(gaps[-1]), _fmt(worst_mono)]
        summary = ",".join(cells + ["" if rate is None else _fmt(rate), _status(ok)])
        return ok, table, summary

    results = list(_map_ordered(work, range(count), jobs))
    for index, (_, table, _) in enumerate(results):
        _write_atomic(os.path.join(out_dir, f"study_{index:03d}.csv"), [table])
    header = "scenario,final_n,final_sup_gap_Y,monotonicity_violation,rate,status"
    return _summary(out_dir, header, [(ok, summary) for ok, _, summary in results])


def _run_ito(
    out_dir, jobs, *, seed=0, steps=16, paths=20, dimension=1, powers=(1.0, 1.5, 2.0),
    horizon=1.0,
) -> bool:
    grid = TimeGrid(horizon=horizon, steps=steps)
    quad = make_function("quadratic", dimension)

    def work(index: int):
        rng = _scenario_rng(seed, index)
        path = random_path(grid, dimension, rng)
        partner = random_path(grid, dimension, rng)
        name = f"path-{index:03d}"
        rows = []
        ok = True

        def add(check: str, value: float, passed: bool) -> None:
            nonlocal ok
            ok = ok and passed
            rows.append(",".join([name, check, _fmt(value), _status(passed)]))

        quad_res = float(np.max(np.abs(ito_residual(path, quad))))
        add("quadratic_residual", quad_res, quad_res <= EXACTNESS_TOL)
        if dimension == 1:
            prod_res = float(np.max(np.abs(product_residual(path, partner))))
            add("product_residual", prod_res, prod_res <= EXACTNESS_TOL)
        for p in powers:
            holds, slack = cor4_inequality_check(path, p, tol=SLACK_TOL)
            add(f"tail_bound_p{p:g}", slack, holds)
            jminus, jplus = power_jump_terms(path, p)
            worst = float(min(np.min(jminus), np.min(jplus)))
            add(f"jump_terms_p{p:g}", worst, worst >= -EXACTNESS_TOL)
        return ok, serialize_path_csv(path), "\n".join(rows)

    results = list(_map_ordered(work, range(paths), jobs))
    for index, (_, path_csv, _) in enumerate(results):
        _write_atomic(os.path.join(out_dir, f"path_{index:03d}.csv"), [path_csv])
    return _summary(out_dir, "path,check,value,status", [(ok, rows) for ok, _, rows in results])


def _run_compare(out_dir, jobs, *, seed=0, depth=4, count=25) -> bool:
    def work(index: int):
        rng = _scenario_rng(seed, index)
        if index % 2 == 0:
            first, second = ordered_pair(rng, depth, name=f"pair-{index:03d}")
        else:
            first, second = equal_barrier_pair(rng, depth, name=f"pair-{index:03d}")
        with _named(f"pair {index}"):
            report = compare_solutions(first, second)
        scale = max(first.scale(), second.scale())
        if not report.valid:
            row = f"pair-{index:03d},invalid,{report.reason or ''},,,,,{_status(False)}"
            return False, row
        ok = report.y_violation <= RESIDUAL_TOL * scale
        dk = report.dk_violation or {}
        if report.equal_barrier:
            ok = ok and all(v <= RESIDUAL_TOL * scale for v in dk.values())
        row = ",".join(
            [
                f"pair-{index:03d}",
                "equal-barrier" if report.equal_barrier else "ordered",
                "",
                _fmt(report.y_violation),
                _fmt(dk.get("interval", 0.0)),
                _fmt(dk.get("left", 0.0)),
                _fmt(dk.get("right", 0.0)),
                _status(ok),
            ]
        )
        return ok, row

    results = list(_map_ordered(work, range(count), jobs))
    header = "pair,kind,reason,y_violation,dk_interval,dk_left,dk_right,status"
    return _summary(out_dir, header, results)


# verb: (runner, help line)
_RUNNERS = {
    "solve": (_run_solve, "reflected solves with verification reports"),
    "penalize": (_run_penalize, "penalization convergence studies"),
    "ito-check": (_run_ito, "pathwise change-of-variables checks"),
    "oracle-check": (_run_oracle, "envelope and stopped-reward brute-force checks"),
    "compare": (_run_compare, "ordered-pair solution comparisons"),
}


def _settings(kind: str, sections: dict[str, dict[str, str]]) -> dict:
    """The keywords of ``kind``'s runner from the config ``sections``, kind
    removed: each ``[experiment]`` value parsed and checked through ``_KEYS``,
    and the ``[scenario]`` section (None if absent) for a runner with a
    ``scenario`` parameter.  A key the verb does not read raises, as does a
    value that does not parse or fails its check."""
    params = inspect.signature(_RUNNERS[kind][0]).parameters
    keys = [name for name, p in params.items() if p.kind is p.KEYWORD_ONLY]
    reads = {"experiment": keys, "scenario": SCENARIO_KEYS if "scenario" in params else ()}
    settings = {"scenario": sections.get("scenario")} if "scenario" in params else {}
    for name, section in sections.items():
        for key, text in section.items():
            if key not in reads.get(name, ()):
                listed = ", ".join(reads.get(name, ())) or f"no [{name}] section"
                raise ValueError(f"[{name}] {key} is not a setting of {kind}; it reads {listed}")
            if name != "experiment":
                continue
            parse, ok, problem = _KEYS[key]
            try:
                settings[key] = parse(text)
            except ValueError as exc:
                raise ValueError(f"[experiment] {key} = {text!r} does not parse: {exc}") from None
            if ok is not None and not ok(settings[key]):
                raise ValueError(problem.format(key=key, value=settings[key]))
    return settings


def run_experiment(
    config_path: str,
    out_dir: str,
    seed: int | None = None,
    jobs: int = 1,
    verb: str | None = None,
) -> int:
    """Execute one configured experiment and write its artifacts.

    Returns the process exit status: zero when every asserted invariant
    passed, one otherwise.  Config and numerical errors raise, as does a
    worker count below one.
    """
    if int(jobs) < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cfg = load_config(config_path)
    sections = {name: dict(cfg[name]) for name in cfg.sections()}
    kind = sections["experiment"].pop("kind", "")
    if kind not in _RUNNERS:
        raise ValueError(f"{config_path}: unknown kind {kind!r}, expected one of {tuple(_RUNNERS)}")
    if verb is not None and verb != kind:
        raise ValueError(f"config kind {kind!r} does not match the verb {verb!r}")
    if seed is not None:
        sections["experiment"]["seed"] = str(seed)
    os.makedirs(out_dir, exist_ok=True)
    settings = _settings(kind, sections)
    ok = _RUNNERS[kind][0](out_dir, int(jobs), **settings)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbsdelab",
        description="Reflected-equation laboratory: deterministic batch experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, text) in _RUNNERS.items():
        cmd = sub.add_parser(verb, help=text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out-dir", default="results", help="artifact directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel scenario workers")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(
            args.config,
            args.out_dir,
            seed=args.seed,
            jobs=args.jobs,
            verb=args.verb,
        )
    except (ValueError, RuntimeError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
