"""Checks of the benchmark itself, on reduced input sizes.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run.load_workloads()

import tracing  # noqa: E402

SMALL = {
    "solve-deep": {"depth": 8, "count": 4},
    "sweep-steep": {"depth": 10, "count": 2},
    "lab-checks": {
        "penalize_depth": 6,
        "penalize_levels": 5,
        "oracle_count": 6,
        "compare_count": 6,
        "ito_steps": 16,
        "ito_paths": 2,
    },
}


def traced_run(name: str, root: Path) -> dict:
    inputs = root / "inputs"
    work = root / "work"
    inputs.mkdir(parents=True)
    work.mkdir()
    kind = workloads.WORKLOADS[name]
    workload = kind(3, str(inputs), kind.pick_seeds(3, **SMALL[name]), **SMALL[name])
    return run.measure(workload, 0.0, True, str(work))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_two_traced_runs_report_identical_counts(name, tmp_path):
    first = traced_run(name, tmp_path / "first")
    second = traced_run(name, tmp_path / "second")
    for report in (first, second):
        assert report["problems"] == []
        assert report["failed"] == 0
        assert report["traced_samples"] >= 2
    assert first["digest"] == second["digest"]
    for metric in tracing.DETERMINISTIC:
        assert first["layers"][metric] == second["layers"][metric], metric
    assert first["layers"]["bsde.implicit_steps"] > 0
    assert "grid_path" in first["unreached_layers"]


def test_declared_metrics_match_the_printed_ones():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.METRICS
    assert [m["name"] for m in declared["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_tracer_restores_every_patched_name():
    import rbsdelab
    from rbsdelab import bsde, rbsde, tree_space

    before = (
        rbsde.solve_reflected_direct,
        rbsde.implicit_interval_step,
        rbsdelab.solve_bsde,
        bsde.GeneratorSpec.__call__,
        tree_space.AdaptedRegulatedProcess.__post_init__,
    )
    with tracing.Tracer().active():
        assert rbsde.implicit_interval_step is not before[1]
        assert rbsde.implicit_interval_step is bsde.implicit_interval_step
    after = (
        rbsde.solve_reflected_direct,
        rbsde.implicit_interval_step,
        rbsdelab.solve_bsde,
        bsde.GeneratorSpec.__call__,
        tree_space.AdaptedRegulatedProcess.__post_init__,
    )
    assert all(a is b for a, b in zip(before, after))


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-deep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
