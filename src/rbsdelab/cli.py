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
import math
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


def _count(exp, key: str, default: int) -> int:
    """``experiment.key`` as a positive integer, ``default`` when unset; below 1 raises."""
    count = exp.getint(key, default)
    if count < 1:
        raise ValueError(f"{key} must be at least 1, got {count}")
    return count


@contextlib.contextmanager
def _named(label: str):
    """Raise a solver or data error inside the block as a RuntimeError led by ``label``."""
    try:
        yield
    except (SolverError, ValueError) as exc:
        raise RuntimeError(f"{label}: {exc}") from exc


def _scenario_source(cfg, seed: int, depth: int, count: int, prefix: str, cadlag: bool):
    """The number of a run's scenarios, and the function that builds each.

    A ``[scenario]`` section configures the run's one scenario.  Otherwise
    ``experiment.count`` scenarios (``count`` by default) are drawn, index i
    from its own seeded stream and named ``prefix-iii``.
    """
    exp = cfg["experiment"]
    horizon = exp.getfloat("horizon", 1.0)

    def build(index: int):
        if "scenario" in cfg:
            tree = make_tree(depth, horizon)
            return scenario_from_config(cfg["scenario"], tree, name="configured-000")
        rng = _scenario_rng(seed, index)
        return random_scenario(rng, depth, horizon, name=f"{prefix}-{index:03d}", cadlag=cadlag)

    return (1 if "scenario" in cfg else _count(exp, "count", count)), build


def _map_ordered(fn, items, jobs: int) -> Iterator:
    """Yield ``fn(item)`` for every item, in input order, as results arrive.

    At most ``jobs`` items are started and not yet yielded, so finished
    results never pile up behind a slow earlier one; the memory held at once
    does not depend on how the workers happen to be scheduled.
    """
    if jobs <= 1:
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


def _run_solve(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    method = exp.get("method", "both")
    if method not in ("direct", "reduction", "both"):
        raise ValueError(f"unknown method {method!r}")
    count, build = _scenario_source(cfg, seed, _count(exp, "depth", 3), 12, "random", cadlag=False)

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
        scale = max(scenario.scale(), sol.value.scale()) * tol_scale
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
    summary = [header] + [entry for _, entry in outcomes]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(summary) + "\n"])
    return all(ok for ok, _ in outcomes)


def _run_oracle(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    depth = _count(exp, "depth", 3)
    if depth > ORACLE_DEPTH_CAP:
        raise ValueError(f"oracle checks are capped at depth {ORACLE_DEPTH_CAP}")
    count = _count(exp, "count", 20)

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
        threshold = RESIDUAL_TOL * scenario.scale() * tol_scale
        ok = dev <= threshold
        row = ",".join([scenario.name, check, _fmt(dev), _fmt(threshold), _status(ok)])
        return ok, row

    results = list(_map_ordered(work, range(count), jobs))
    lines = ["scenario,check,deviation,threshold,status"] + [row for _, row in results]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _ in results)


def _run_penalize(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    mode = exp.get("mode", "modified")
    levels = [int(tok) for tok in exp.get("levels", "1,2,4,8,16,32,64").split(",")]
    check_study(levels, mode)
    count, build = _scenario_source(
        cfg, seed, _count(exp, "depth", 4), 1, "study", cadlag=exp.getboolean("cadlag", False)
    )

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
        ok = worst_mono <= RESIDUAL_TOL * scenario.scale() * tol_scale
        cells = [scenario.name, str(int(levels[-1])), _fmt(gaps[-1]), _fmt(worst_mono)]
        summary = ",".join(cells + ["" if rate is None else _fmt(rate), _status(ok)])
        return ok, table, summary

    results = list(_map_ordered(work, range(count), jobs))
    for index, (_, table, _) in enumerate(results):
        _write_atomic(os.path.join(out_dir, f"study_{index:03d}.csv"), [table])
    lines = ["scenario,final_n,final_sup_gap_Y,monotonicity_violation,rate,status"]
    lines += [summary for _, _, summary in results]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _, _ in results)


def _run_ito(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    steps = exp.getint("steps", 16)
    count = _count(exp, "paths", 20)
    dimension = exp.getint("dimension", 1)
    powers = [float(tok) for tok in exp.get("powers", "1,1.5,2").split(",")]
    grid = TimeGrid(horizon=exp.getfloat("horizon", 1.0), steps=steps)
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
        add("quadratic_residual", quad_res, quad_res <= EXACTNESS_TOL * tol_scale)
        if dimension == 1:
            prod_res = float(np.max(np.abs(product_residual(path, partner))))
            add("product_residual", prod_res, prod_res <= EXACTNESS_TOL * tol_scale)
        for p in powers:
            holds, slack = cor4_inequality_check(path, p, tol=SLACK_TOL * tol_scale)
            add(f"tail_bound_p{p:g}", slack, holds)
            jminus, jplus = power_jump_terms(path, p)
            worst = float(min(np.min(jminus), np.min(jplus)))
            add(f"jump_terms_p{p:g}", worst, worst >= -EXACTNESS_TOL * tol_scale)
        return ok, serialize_path_csv(path), rows

    results = list(_map_ordered(work, range(count), jobs))
    for index, (_, path_csv, _) in enumerate(results):
        _write_atomic(os.path.join(out_dir, f"path_{index:03d}.csv"), [path_csv])
    lines = ["path,check,value,status"]
    for _, _, rows in results:
        lines.extend(rows)
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _, _ in results)


def _run_compare(cfg, out_dir: str, seed: int, jobs: int, tol_scale: float) -> bool:
    exp = cfg["experiment"]
    depth = _count(exp, "depth", 4)
    count = _count(exp, "count", 25)

    def work(index: int):
        rng = _scenario_rng(seed, index)
        if index % 2 == 0:
            first, second = ordered_pair(rng, depth, name=f"pair-{index:03d}")
        else:
            first, second = equal_barrier_pair(rng, depth, name=f"pair-{index:03d}")
        with _named(f"pair {index}"):
            report = compare_solutions(first, second)
        scale = max(first.scale(), second.scale()) * tol_scale
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
    lines = ["pair,kind,reason,y_violation,dk_interval,dk_left,dk_right,status"]
    lines += [row for _, row in results]
    _write_atomic(os.path.join(out_dir, "summary.csv"), ["\n".join(lines) + "\n"])
    return all(ok for ok, _ in results)


_RUNNERS = {
    "solve": _run_solve,
    "penalize": _run_penalize,
    "ito-check": _run_ito,
    "oracle-check": _run_oracle,
    "compare": _run_compare,
}


def run_experiment(
    config_path: str,
    out_dir: str,
    seed: int | None = None,
    jobs: int = 1,
    tolerance_scale: float = 1.0,
    verb: str | None = None,
) -> int:
    """Execute one configured experiment and write its artifacts.

    Returns the process exit status: zero when every asserted invariant
    passed, one otherwise.  Config and numerical errors raise, as do a
    worker count below one and a tolerance scale that is not a finite
    positive number.
    """
    if int(jobs) < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0.0):
        raise ValueError(f"tolerance scale must be finite and positive, got {tolerance_scale}")
    cfg = load_config(config_path)
    kind = cfg["experiment"]["kind"]
    if verb is not None and verb != kind:
        raise ValueError(f"config kind {kind!r} does not match the verb {verb!r}")
    if seed is None:
        seed = cfg["experiment"].getint("seed", 0)
    os.makedirs(out_dir, exist_ok=True)
    ok = _RUNNERS[kind](cfg, out_dir, int(seed), int(jobs), float(tolerance_scale))
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbsdelab",
        description="Reflected-equation laboratory: deterministic batch experiments.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("solve", "reflected solves with verification reports"),
        ("penalize", "penalization convergence studies"),
        ("ito-check", "pathwise change-of-variables checks"),
        ("oracle-check", "envelope and stopped-reward brute-force checks"),
        ("compare", "ordered-pair solution comparisons"),
    ):
        cmd = sub.add_parser(verb, help=text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out-dir", default="results", help="artifact directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--jobs", type=int, default=1, help="parallel scenario workers")
        cmd.add_argument(
            "--tolerance-scale",
            type=float,
            default=1.0,
            help="multiplier on every pass/fail threshold",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(
            args.config,
            args.out_dir,
            seed=args.seed,
            jobs=args.jobs,
            tolerance_scale=args.tolerance_scale,
            verb=args.verb,
        )
    except (ValueError, RuntimeError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
