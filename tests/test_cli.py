import re
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from rbsdelab import cli
from rbsdelab.bsde import SolverError
from rbsdelab.cli import emit_convergence_table, fit_rate, main, run_experiment
from rbsdelab.penalization import ConvergenceStudy, convergence_study
from rbsdelab.rbsde import solve_reflected_direct
from rbsdelab.scenarios import load_config, random_scenario


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def tree_of_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def reference_solution_rows(name, scenario, sol):
    """The per-node ``results.csv`` formatter the column-wise one must match."""
    tree = scenario.tree
    times = tree.grid.times()
    rows = []
    for level in range(tree.depth + 1):
        last = level == tree.depth
        for node in range(tree.n_nodes(level)):
            cells = [
                name,
                str(level),
                str(node),
                "%.17g" % float(times[level]),
                "%.17g" % float(sol.value.point[level][node]),
                "" if last else "%.17g" % float(sol.value.right[level][node]),
                "" if last else "%.17g" % float(sol.integrand[level][node]),
                "" if last else "%.17g" % float(sol.increments.interval[level][node]),
                "%.17g" % float(sol.increments.left[level][node]),
                "" if last else "%.17g" % float(sol.increments.right[level][node]),
            ]
            rows.append(",".join(cells))
    return rows


SOLVE_HEADER = "scenario,level,node,time,y_point,y_right,z,k_interval,k_left,k_right"

RANDOM_BATCH = """\
    [experiment]
    kind = solve
    depth = 3
    count = 4
    seed = 11
    method = both
    """

CONFIGURED_SINGLE_STEP = """\
    [experiment]
    kind = solve
    depth = 1
    method = direct

    [scenario]
    generator = zero
    barrier_point = 5 ; 0, 0
    barrier_right = 0
    terminal = 0, 0
    """


class TestFitRate:
    def test_exact_halving_fits_order_one(self):
        assert fit_rate([1, 2, 4, 8], [0.4, 0.2, 0.1, 0.05]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_quartering_fits_order_two(self):
        assert fit_rate([1, 4], [1.0, 1.0 / 16.0]) == pytest.approx(2.0, abs=1e-12)

    def test_needs_two_positive_gaps(self):
        assert fit_rate([4], [0.25]) is None
        assert fit_rate([1, 2, 4], [0.0, 0.0, 0.0]) is None
        assert fit_rate([1, 2, 4], [0.5, 0.0, 0.0]) is None


class TestEmitTable:
    def test_schema_and_row_count(self, rng):
        sc = random_scenario(rng, depth=3, name="emit")
        study = convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [1, 4, 16])
        text = emit_convergence_table(study)
        lines = text.strip().splitlines()
        assert lines[0] == "n,sup_gap_Y,monotonicity_violation,L1_gap_Z,L2_gap_Z,Kd_mass"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        assert text.endswith("\n")

    def test_single_level_study_has_one_row(self, rng):
        sc = random_scenario(rng, depth=2, name="single")
        study = convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [8])
        assert len(emit_convergence_table(study).strip().splitlines()) == 2

    def test_empty_study_is_rejected(self, rng):
        sc = random_scenario(rng, depth=2, name="emptyemit")
        study = convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [1])
        study.rows = []
        with pytest.raises(ValueError, match="empty study"):
            emit_convergence_table(study)


class TestSolveVerb:
    def test_random_batch_passes(self, tmp_path):
        config = write_config(tmp_path, RANDOM_BATCH)
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 4
        assert all(row["status"] == "pass" for row in summary)
        results = read_rows(out / "results.csv")
        # 4 scenarios x 15 nodes on a depth-3 tree
        assert len(results) == 60

    def test_configured_single_step_scenario(self, tmp_path):
        config = write_config(tmp_path, CONFIGURED_SINGLE_STEP)
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        results = read_rows(out / "results.csv")
        root = next(r for r in results if r["level"] == "0" and r["node"] == "0")
        assert float(root["y_point"]) == 5.0
        assert float(root["k_right"]) == 5.0
        assert float(root["y_right"]) == 0.0
        assert float(root["z"]) == 0.0
        summary = read_rows(out / "summary.csv")
        assert summary[0]["scenario"] == "configured-000"
        assert summary[0]["status"] == "pass"

    @pytest.mark.parametrize(
        "text", [RANDOM_BATCH, CONFIGURED_SINGLE_STEP], ids=["random-batch", "configured-depth-1"]
    )
    def test_results_bytes_match_the_per_node_reference(self, tmp_path, text):
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_experiment(config, str(out), jobs=2) == 0
        cfg = load_config(config)
        rows = [SOLVE_HEADER]
        for scenario in cli._solve_scenarios(cfg, cfg["experiment"].getint("seed", 0)):
            sol = solve_reflected_direct(
                scenario.terminal, scenario.gen, scenario.driver, scenario.barrier
            )
            rows.extend(reference_solution_rows(scenario.name, scenario, sol))
        assert (out / "results.csv").read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_failing_scenario_leaves_no_results_file(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, RANDOM_BATCH)
        out = tmp_path / "out"
        writing = []
        solution_rows = cli._solution_rows

        def failing_rows(name, scenario, sol):
            if name == "random-003":
                writing.append((out / "results.csv.tmp").exists())
                raise SolverError("planted failure")
            return solution_rows(name, scenario, sol)

        monkeypatch.setattr(cli, "_solution_rows", failing_rows)
        code = main(["solve", "--config", config, "--out-dir", str(out), "--jobs", "2"])
        assert code == 2
        # results.csv was already being written when the scenario failed
        assert writing == [True]
        assert not (out / "results.csv").exists()
        assert not (out / "results.csv.tmp").exists()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_ordered_map_starts_at_most_jobs_items_ahead(self, jobs):
        started = []
        results = cli._map_ordered(lambda item: started.append(item) or item, range(12), jobs)
        for expected in range(12):
            assert next(results) == expected
            # give idle workers time to start anything already handed to them
            time.sleep(0.02)
            assert len(started) <= expected + 1 + jobs
        assert sorted(started) == list(range(12))

    def test_reduction_method_passes_without_a_route_gap(self, tmp_path):
        config = write_config(tmp_path, RANDOM_BATCH.replace("method = both", "method = reduction"))
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out-dir", str(out)]) == 0
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 4
        assert all(row["status"] == "pass" and row["route_gap"] == "" for row in summary)

    def test_unknown_method_is_a_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, RANDOM_BATCH.replace("method = both", "method = fastest"))
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
        assert "unknown method 'fastest'" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = solve
            depth = 3
            count = 3
            seed = 5
            """,
        )
        first = tmp_path / "a"
        second = tmp_path / "b"
        third = tmp_path / "c"
        assert run_experiment(config, str(first)) == 0
        assert run_experiment(config, str(second)) == 0
        assert run_experiment(config, str(third), jobs=3) == 0
        assert tree_of_files(first) == tree_of_files(second)
        assert tree_of_files(first) == tree_of_files(third)


class TestPenalizeVerb:
    def test_cadlag_study_has_no_detection_mass(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = penalize
            depth = 4
            count = 1
            seed = 3
            cadlag = true
            levels = 1,4,16,64
            """,
        )
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        table = read_rows(out / "study_000.csv")
        assert [row["n"] for row in table] == ["1", "4", "16", "64"]
        assert all(float(row["Kd_mass"]) == 0.0 for row in table)
        assert all(float(row["monotonicity_violation"]) == 0.0 for row in table)
        summary = read_rows(out / "summary.csv")
        assert summary[0]["status"] == "pass"
        assert summary[0]["rate"] != ""

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = penalize
            depth = 3
            count = 2
            seed = 9
            levels = 1,8,64
            """,
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_experiment(config, str(a)) == 0
        assert run_experiment(config, str(b), jobs=2) == 0
        assert tree_of_files(a) == tree_of_files(b)


    def test_levels_below_one_are_a_usage_error(self, tmp_path, capfd):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = penalize
            depth = 3
            count = 1
            mode = classic_vs_transformed
            levels = 0,1,2
            """,
        )
        code = main(["penalize", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capfd.readouterr().err
        assert "penalty level must be a positive integer, got 0" in err
        assert "DLASCL" not in err


class TestItoVerb:
    def test_path_checks_pass_and_paths_are_written(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = ito-check
            steps = 16
            paths = 5
            dimension = 1
            seed = 2
            """,
        )
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        summary = read_rows(out / "summary.csv")
        assert all(row["status"] == "pass" for row in summary)
        checks = {row["check"] for row in summary}
        assert "quadratic_residual" in checks
        assert "product_residual" in checks
        assert "tail_bound_p1.5" in checks
        for i in range(5):
            assert (out / f"path_{i:03d}.csv").exists()


class TestOracleVerb:
    def test_brute_force_checks_pass(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = oracle-check
            depth = 3
            count = 6
            seed = 13
            """,
        )
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        summary = read_rows(out / "summary.csv")
        assert {row["check"] for row in summary} == {"envelope", "representation"}
        assert all(row["status"] == "pass" for row in summary)

    def test_depth_above_the_oracle_cap_errors(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = oracle-check
            depth = 6
            """,
        )
        code = main(["oracle-check", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 2


class TestCompareVerb:
    def test_ordered_and_equal_barrier_pairs_pass(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = compare
            depth = 4
            count = 6
            seed = 22
            """,
        )
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        summary = read_rows(out / "summary.csv")
        kinds = {row["kind"] for row in summary}
        assert kinds == {"ordered", "equal-barrier"}
        assert all(row["status"] == "pass" for row in summary)
        assert all(float(row["y_violation"]) == 0.0 for row in summary)


README_CONFIGS = re.findall(
    r"```ini\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S
)


def config_kind(text):
    return re.search(r"^kind = (\S+)$", text, re.M).group(1)


@pytest.mark.parametrize("text", README_CONFIGS, ids=config_kind)
def test_readme_configs_run_as_written(tmp_path, text):
    config = write_config(tmp_path, text)
    argv = [config_kind(text), "--config", config, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0


def test_readme_has_a_config_for_every_verb():
    assert {config_kind(text) for text in README_CONFIGS} == set(cli._RUNNERS)


class TestErrorHandling:
    def test_missing_config_is_a_usage_error(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "absent.ini"), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_kind_verb_mismatch(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = penalize
            """,
        )
        code = main(["solve", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_missing_experiment_section(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [other]
            key = value
            """,
        )
        code = main(["solve", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_scenario_rows(self, tmp_path):
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = solve
            depth = 2

            [scenario]
            barrier_point = 1 ; 2
            terminal = 0
            """,
        )
        code = main(["solve", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--jobs", "-3"),
            ("--tolerance-scale", "inf"),
            ("--tolerance-scale", "0"),
            ("--tolerance-scale", "-1"),
            ("--tolerance-scale", "nan"),
        ],
    )
    def test_invalid_jobs_or_tolerance_scale_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        config = write_config(tmp_path, RANDOM_BATCH)
        out = tmp_path / "o"
        code = main(["solve", "--config", config, "--out-dir", str(out), flag, value])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_verb_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_verb_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", "x"])
