"""Benchmark of the rbsdelab laboratory, run from a source checkout.

    python3 bench/run.py --workload solve-deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 [--out FILE]

One workload runs in this process, so its peak resident memory is the
process's own.  The run:

1. picks the config seeds, then times ``SETUP_SAMPLES`` fresh
   interpreters, each from spawn until the workload's inputs are ready
   (interpreter, ``import rbsdelab``, configs written, scenarios built);
   ``setup_s`` is their median;
2. builds the inputs in this process and runs one warm-up pass with
   ``--jobs 1``, whose per-operation digests are the reference every later
   pass must reproduce (so ``solve-deep`` checks ``--jobs 1`` against
   ``--jobs 2`` bytes in every run);
3. repeats passes for ``--seconds``; with ``--trace 1`` traced and untraced
   passes alternate, layer metrics come from the traced ones and the
   tracing overhead from comparing the two.

Artifacts go to a fresh directory below ``.bench_work/`` in the checkout,
removed after each pass.  Human-readable lines come first on stdout; the
last line is the JSON result.  ``--workload all`` runs every workload
untraced and traced, each in its own process, and prints a summary table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("solve-deep", "sweep-steep", "lab-checks")
SETUP_SAMPLES = 15
MIN_TRACED_PASSES = 2

# Runs in a fresh interpreter; prints the monotonic clock once inputs exist.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup_probe(*sys.argv[2:])"
)


def load_workloads():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(name: str, seed: str, inputs_dir: str, config_seeds: str) -> None:
    load_workloads().WORKLOADS[name](int(seed), inputs_dir, json.loads(config_seeds))
    print(repr(time.perf_counter()))


def time_setup(name: str, seed: int, config_seeds: dict, work: str) -> float:
    """Seconds from spawning an interpreter until the workload's inputs exist."""
    inputs = tempfile.mkdtemp(dir=work, prefix="setup-")
    try:
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-c", SETUP_PROBE,
                str(BENCH), name, str(seed), inputs, json.dumps(config_seeds),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(inputs)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    # CLOCK_MONOTONIC is shared by all processes of the machine
    return float(proc.stdout.split()[-1]) - start


# ----------------------------------------------------------------------
# machine facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: str) -> str:
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def machine_facts(work: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "artifact_fs": _fs_type(work),
    }


# ----------------------------------------------------------------------
# measurement


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def measure(workload, seconds: float, trace: bool, work: str) -> dict:
    """Warm-up, then passes for ``seconds``; see the module docstring."""
    import tracing
    from workloads import tree_size

    tracer = tracing.Tracer()

    def one_pass(jobs: int, traced: bool):
        out = tempfile.mkdtemp(dir=work, prefix="pass-")
        try:
            cpu = time.process_time()
            if traced:
                with tracer.active():
                    elapsed, ops = workload.run_pass(out, jobs)
            else:
                elapsed, ops = workload.run_pass(out, jobs)
            cpu = time.process_time() - cpu
            size, files = tree_size(out)
        finally:
            shutil.rmtree(out)
        return elapsed, cpu, ops, size, files

    _, _, reference, size, files = one_pass(1, False)
    attempted = len(reference)
    failed = sum(not op.ok for op in reference)
    problems = [f"warm-up: {op.name} failed" for op in reference if not op.ok]
    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    layer_passes: list[dict] = []
    spans = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or not walls
        or (trace and len(traced_walls) < MIN_TRACED_PASSES)
    ):
        traced = trace and len(traced_walls) <= len(walls)
        elapsed, cpu, ops, size, files = one_pass(workload.jobs, traced)
        for op, ref in zip(ops, reference, strict=True):
            attempted += 1
            if not op.ok or op.digest != ref.digest:
                failed += 1
                why = "failed" if not op.ok else "changed its artifact digest"
                problems.append(f"pass {len(walls) + len(traced_walls) + 1}: {op.name} {why}")
        if traced:
            traced_walls.append(elapsed)
            spans = tracer.take()
            layer_passes.append(tracing.layer_metrics(spans, size, files))
        else:
            walls.append(elapsed)
            cpus.append(cpu)

    report = {
        "workload": workload.name,
        "config_seeds": workload.config_seeds,
        "digest": hashlib.sha256("\n".join(op.digest for op in reference).encode()).hexdigest(),
        "artifact_bytes": size,
        "artifact_files": files,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
        "wall_s": statistics.median(walls),
        "wall_samples": len(walls),
        "walls_s": walls,
        "pass_cpu_s": statistics.median(cpus),
        "wall_tail": tail_percentile(walls),
    }
    if trace:
        layers = tracing.median_metrics(layer_passes)
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls) / report["wall_s"] - 1.0)
        unsteady = [
            name for name in tracing.DETERMINISTIC if len({p[name] for p in layer_passes}) > 1
        ]
        report["problems"] += [f"count {name} differs between traced passes" for name in unsteady]
        layer, function, layer_self, total_self = tracing.dominant(spans)
        report.update(
            layers=layers,
            unreached_layers=tracing.unreached_layers(spans),
            traced_samples=len(traced_walls),
            dominant={
                "layer": layer,
                "function": function,
                "share": layer_self / total_self if total_self else 0.0,
                "expected": workload.expected_dominant,
            },
        )
    return report


# ----------------------------------------------------------------------
# entry points


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = load_workloads()
    import tracing

    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{name}-")
    try:
        config_seeds = workloads.WORKLOADS[name].pick_seeds(seed)
        setup = [time_setup(name, seed, config_seeds, work) for _ in range(SETUP_SAMPLES)]
        inputs = tempfile.mkdtemp(dir=work, prefix="inputs-")
        workload = workloads.WORKLOADS[name](seed, inputs, config_seeds)
        report = measure(workload, seconds, trace, work)
        report["machine"] = machine_facts(work)
    finally:
        shutil.rmtree(work)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    report["setup_s"] = statistics.median(setup)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {name}  seed {seed}  machine {json.dumps(report['machine'])}")
    print(f"artifact digest {report['digest']}  config seeds {report['config_seeds']}")
    tail = report["wall_tail"]
    print(
        f"setup_s {report['setup_s']:.4f} s (median of {SETUP_SAMPLES})  "
        f"wall_s {report['wall_s']:.4f} s (median of {report['wall_samples']} passes"
        + (f", p{tail[0]} {tail[1]:.4f} s)" if tail else ")")
        + f"  pass CPU {report['pass_cpu_s']:.4f} s"
        + f"  peak_rss_mb {report['peak_rss_mb']:.1f} MB"
        + f"  fail_ratio {report['fail_ratio']:.4g} ({report['failed']}/{report['attempted']})"
    )
    for problem in report["problems"]:
        print(f"PROBLEM {problem}")
    if trace:
        for metric, unit in tracing.METRICS.items():
            print(f"  {metric:34s} {report['layers'][metric]:14.6g} {unit}")
        dom = report["dominant"]
        verdict = "as expected" if dom["layer"] == dom["expected"] else f"expected {dom['expected']}"
        print(
            f"dominant layer {dom['layer']} ({dom['function']}, {100 * dom['share']:.0f}% "
            f"of traced self time; {verdict}); tracing overhead "
            f"{report['layers']['trace.overhead_pct']:.1f}% over {report['traced_samples']} traced passes"
        )
        print(f"layers reached by no traced call: {', '.join(report['unreached_layers']) or 'none'}")
    print("report: " + json.dumps(report))

    if trace:
        metrics = {m: {"value": report["layers"][m], "unit": u} for m, u in tracing.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = combined["workloads"][name] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 600)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.splitlines()
            report = json.loads(next(l for l in lines if l.startswith("report: "))[len("report: "):])
            combined["machine"] = report["machine"]
            entry[f"trace{trace}"] = json.loads(lines[-1])
            entry["digest"] = report["digest"]
            entry["fail_ratio"] = report["fail_ratio"]
            if trace:
                entry["dominant"] = report["dominant"]

    print()
    print(f"{'workload':12s} {'setup_s':>10s} {'wall_s':>10s} {'peak_rss_mb':>12s} {'fail_ratio':>10s}  dominant layer")
    for name, entry in combined["workloads"].items():
        m = entry["trace0"]["metrics"]
        dom = entry["dominant"]
        print(
            f"{name:12s} {m['setup_s']['value']:8.4f} s {m['wall_s']['value']:8.4f} s "
            f"{m['peak_rss_mb']['value']:9.1f} MB {entry['fail_ratio']:10.4g}  "
            f"{dom['layer']} ({dom['function']}; expected {dom['expected']})"
        )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(combined, handle, indent=1)
            handle.write("\n")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the combined results here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "rbsdelab" / "__init__.py").is_file():
        print(f"error: no rbsdelab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
