import dataclasses
import re
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rbsdelab import cli
from rbsdelab.bsde import SolverError
from rbsdelab.cli import emit_convergence_table, fit_rate, main, run_experiment
from rbsdelab.penalization import ConvergenceStudy, convergence_study
from rbsdelab.rbsde import solve_reflected_direct
from rbsdelab.scenarios import load_config, make_tree, random_scenario, scenario_from_config


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


def solve_config_scenarios(cfg):
    """The scenarios a ``solve`` config names, built as its workers build them."""
    exp = cfg["experiment"]
    depth = exp.getint("depth", 3)
    horizon = exp.getfloat("horizon", 1.0)
    if "scenario" in cfg:
        tree = make_tree(depth, horizon)
        return [scenario_from_config(cfg["scenario"], tree, name="configured-000")]
    seed = exp.getint("seed", 0)
    return [
        random_scenario(cli._scenario_rng(seed, i), depth, horizon, name=f"random-{i:03d}")
        for i in range(exp.getint("count", 12))
    ]


def reference_results(config):
    """``results.csv`` of a direct ``solve`` config, by the per-node formatter."""
    rows = [SOLVE_HEADER]
    for scenario in solve_config_scenarios(load_config(config)):
        sol = solve_reflected_direct(
            scenario.terminal, scenario.gen, scenario.driver, scenario.barrier
        )
        rows.extend(reference_solution_rows(scenario.name, scenario, sol))
    return ("\n".join(rows) + "\n").encode()


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
        assert (out / "results.csv").read_bytes() == reference_results(config)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "text", [RANDOM_BATCH, CONFIGURED_SINGLE_STEP], ids=["random-batch", "configured-depth-1"]
    )
    def test_results_bytes_across_block_boundaries(self, tmp_path, monkeypatch, text, jobs):
        # Three-row blocks split levels 2 and 3 of the depth-3 batch mid-level;
        # the depth-1 tree keeps every level in one block.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_experiment(config, str(out), jobs=jobs) == 0
        assert (out / "results.csv").read_bytes() == reference_results(config)

    def test_failing_scenario_leaves_no_results_file(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, RANDOM_BATCH)
        out = tmp_path / "out"
        writing = []
        solution_rows = cli._solution_rows

        def failing_rows(name, sol):
            if name == "random-003":
                writing.append((out / "results.csv.tmp").exists())
                raise SolverError("planted failure")
            return solution_rows(name, sol)

        monkeypatch.setattr(cli, "_solution_rows", failing_rows)
        code = main(["solve", "--config", config, "--out-dir", str(out), "--jobs", "2"])
        assert code == 2
        # results.csv was already being written when the scenario failed
        assert writing == [True]
        assert not (out / "results.csv").exists()
        assert not (out / "results.csv.tmp").exists()

    def test_solver_error_names_its_scenario(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, RANDOM_BATCH)
        out = tmp_path / "out"
        calls = []

        def failing_direct(*data):
            calls.append(None)
            if len(calls) == 3:
                raise SolverError("planted failure")
            return solve_reflected_direct(*data)

        monkeypatch.setattr(cli, "solve_reflected_direct", failing_direct)
        assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
        assert "scenario random-002: planted failure" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

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


def direct_solution(depth, seed=0):
    sc = random_scenario(np.random.default_rng(seed), depth, name="rows")
    return sc, solve_reflected_direct(sc.terminal, sc.gen, sc.driver, sc.barrier)


class TestSolutionRows:
    @pytest.mark.parametrize("depth, block_rows", [(5, 3), (5, 8), (13, None)])
    def test_parts_hold_at_most_one_block(self, monkeypatch, depth, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        sc, sol = direct_solution(depth)
        parts = list(cli._solution_rows(sc.name, sol))
        block = cli._BLOCK_ROWS
        assert max(part.count("\n") for part in parts) == block
        # every level splits into ceil(nodes / block) parts, the last one short
        assert len(parts) == sum(-(-sc.tree.n_nodes(i) // block) for i in range(depth + 1))
        expected = "\n".join(reference_solution_rows(sc.name, sc, sol)) + "\n"
        assert "".join(parts) == expected

    def test_text_held_is_flat_in_depth(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 256)

        def drain_peak(depth):
            sc, sol = direct_solution(depth)
            tracemalloc.start()
            try:
                for _ in cli._solution_rows(sc.name, sol):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        shallow, deep = drain_peak(10), drain_peak(12)
        assert abs(deep - shallow) <= 0.1 * shallow, (shallow, deep)


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

    def test_configured_scenario_gives_one_study(self, tmp_path):
        text = CONFIGURED_SINGLE_STEP.replace("kind = solve", "kind = penalize")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        summary = read_rows(out / "summary.csv")
        assert [row["scenario"] for row in summary] == ["configured-000"]
        assert summary[0]["status"] == "pass"
        assert sorted(p.name for p in out.glob("study_*.csv")) == ["study_000.csv"]

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

    def test_sampled_studies_use_the_configured_horizon(self, tmp_path):
        text = """\
            [experiment]
            kind = penalize
            depth = 3
            count = 1
            seed = 3
            levels = 1,8,64
            horizon = {}
            """
        tables = []
        for horizon in (1, 2):
            config = write_config(tmp_path, text.format(horizon), name=f"h{horizon}.ini")
            out = tmp_path / f"h{horizon}"
            assert run_experiment(config, str(out)) == 0
            tables.append((out / "study_000.csv").read_text())
        assert tables[0] != tables[1]
        sc = random_scenario(cli._scenario_rng(3, 0), 3, 2.0, name="study-000")
        study = convergence_study(sc.terminal, sc.gen, sc.driver, sc.barrier, [1, 8, 64])
        assert tables[1] == emit_convergence_table(study)

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

    def test_an_unordered_pair_gives_an_invalid_row_and_exit_one(self, tmp_path, monkeypatch):
        ordered_pair = cli.ordered_pair

        def unordered_pair(rng, depth, name):
            low, _ = ordered_pair(rng, depth, name=name)
            return low, dataclasses.replace(low, terminal=low.terminal - 1.0)

        monkeypatch.setattr(cli, "ordered_pair", unordered_pair)
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = compare
            depth = 3
            count = 2
            seed = 22
            """,
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--out-dir", str(out)]) == 1
        invalid, equal = read_rows(out / "summary.csv")
        assert invalid == {
            "pair": "pair-000",
            "kind": "invalid",
            "reason": "terminal values are not ordered",
            "y_violation": "",
            "dk_interval": "",
            "dk_left": "",
            "dk_right": "",
            "status": "fail",
        }
        assert equal["kind"] == "equal-barrier"
        assert equal["status"] == "pass"

    def test_a_solver_error_names_its_pair_and_exits_two(self, tmp_path, monkeypatch, capsys):
        compare_solutions = cli.compare_solutions
        calls = []

        def failing_compare(first, second):
            calls.append(None)
            if len(calls) == 2:
                raise SolverError("planted failure")
            return compare_solutions(first, second)

        monkeypatch.setattr(cli, "compare_solutions", failing_compare)
        config = write_config(
            tmp_path,
            """\
            [experiment]
            kind = compare
            depth = 3
            count = 3
            seed = 22
            """,
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", config, "--out-dir", str(out)]) == 2
        assert "error: pair 1: planted failure" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


# extra scenario rows are appended to this text as unindented lines
CONFIGURED_WITH_DRIVER = textwrap.dedent(
    """\
    [experiment]
    kind = solve
    depth = 2
    method = both

    [scenario]
    generator = linear:-0.5,0.2
    barrier_point = 0 ; 0.1, -0.2 ; 0
    driver_point = 0 ; 0.3, -0.1 ; 0.2
    terminal = 0.5, 1.0, 0.0, 0.25
    """
)

CLASSIC_STUDY_WITH_DRIVER = CONFIGURED_WITH_DRIVER.replace(
    "kind = solve\ndepth = 2\nmethod = both\n",
    "kind = penalize\ndepth = 2\nmode = classic_vs_transformed\nlevels = 1,4,16\n",
)


class TestConfiguredScenarios:
    def section(self, tmp_path, text):
        return load_config(write_config(tmp_path, text))["scenario"]

    def test_driver_right_rows_default_to_the_point_rows(self, tmp_path):
        tree = make_tree(2, 1.0)
        sc = scenario_from_config(self.section(tmp_path, CONFIGURED_WITH_DRIVER), tree)
        np.testing.assert_array_equal(sc.driver.points, [0.0, 0.3, -0.1, 0.2, 0.2, 0.2, 0.2])
        np.testing.assert_array_equal(sc.driver.rights, [0.0, 0.3, -0.1])
        config = write_config(tmp_path, CONFIGURED_WITH_DRIVER)
        out = tmp_path / "out"
        assert run_experiment(config, str(out)) == 0
        assert read_rows(out / "summary.csv")[0]["status"] == "pass"

    def test_driver_right_rows_are_read(self, tmp_path):
        text = CONFIGURED_WITH_DRIVER + "driver_right = 0.1 ; -0.2, 0.4\n"
        tree = make_tree(2, 1.0)
        sc = scenario_from_config(self.section(tmp_path, text), tree)
        np.testing.assert_array_equal(sc.driver.points, [0.0, 0.3, -0.1, 0.2, 0.2, 0.2, 0.2])
        np.testing.assert_array_equal(sc.driver.rights, [0.1, -0.2, 0.4])
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, text), str(out)) == 0
        assert read_rows(out / "summary.csv")[0]["status"] == "pass"

    def test_a_bound_row_reaches_the_reduction(self, tmp_path, monkeypatch):
        bounds = []
        solve_via_reduction = cli.solve_via_reduction

        def recording_reduction(*data, bound):
            bounds.append(bound)
            return solve_via_reduction(*data, bound=bound)

        monkeypatch.setattr(cli, "solve_via_reduction", recording_reduction)
        text = CONFIGURED_WITH_DRIVER + "bound = -5, -4\n"
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, text), str(out)) == 0
        np.testing.assert_array_equal(bounds, [[-5.0, -4.0]])
        summary = read_rows(out / "summary.csv")[0]
        assert summary["status"] == "pass"
        assert summary["route_gap"] != ""

    def test_a_bound_above_the_generator_is_a_usage_error(self, tmp_path, capsys):
        text = CONFIGURED_WITH_DRIVER + "bound = 5, 5\n"
        config = write_config(tmp_path, text)
        assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert "lower-bound violation detected on samples" in capsys.readouterr().err

    def test_the_classic_study_rejects_a_bound_above_the_generator(self, tmp_path, capsys):
        text = CLASSIC_STUDY_WITH_DRIVER + "bound = 5, 5\n"
        config = write_config(tmp_path, text)
        assert main(["penalize", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert "lower-bound violation detected on samples" in capsys.readouterr().err
        sc = scenario_from_config(self.section(tmp_path, text), make_tree(2, 1.0))
        data = (sc.terminal, sc.gen, sc.driver, sc.barrier, [1, 4, 16])
        with pytest.raises(ValueError, match="lower-bound violation detected on samples"):
            convergence_study(*data, mode="classic_vs_transformed", bound=sc.bound)

    def test_the_classic_study_accepts_a_bound_below_the_generator(self, tmp_path):
        text = CLASSIC_STUDY_WITH_DRIVER + "bound = -5, -4\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["penalize", "--config", config, "--out-dir", str(out)]) == 0
        assert read_rows(out / "summary.csv")[0]["status"] == "pass"
        sc = scenario_from_config(self.section(tmp_path, text), make_tree(2, 1.0))
        data = (sc.terminal, sc.gen, sc.driver, sc.barrier, [1, 4, 16])
        study = convergence_study(*data, mode="classic_vs_transformed", bound=sc.bound)
        assert [row.n for row in study.rows] == [1, 4, 16]

    @pytest.mark.parametrize("row", ["nan,nan", "-inf,-inf", "0,inf"])
    def test_a_non_finite_bound_is_rejected_by_name(self, tmp_path, capsys, row):
        text = CONFIGURED_WITH_DRIVER + f"bound = {row}\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario configured-000: lower bound must be finite" in err
        assert "implicit step" not in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("key", ["barrier_point", "terminal"])
    def test_a_missing_required_row_is_a_usage_error(self, tmp_path, capsys, key):
        text = "\n".join(
            line for line in CONFIGURED_WITH_DRIVER.splitlines() if not line.strip().startswith(key)
        )
        config = write_config(tmp_path, text + "\n")
        assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"scenario section needs {key}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("constant:nan", "non-finite"),
            ("linear:nan,0", "non-finite"),
            ("linear:0.5,nan", "non-finite"),
            ("monotone_cubic:inf", "non-finite"),
            ("linear:0.5,x", "non-numeric"),
        ],
    )
    def test_a_bad_generator_coefficient_is_rejected_by_name(self, tmp_path, capsys, spec, problem):
        text = CONFIGURED_WITH_DRIVER.replace("linear:-0.5,0.2", spec)
        config = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"generator {spec!r} has a {problem} coefficient" in err
        assert "implicit step" not in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (
                "barrier_point",
                "0 ; 0.1, x ; 0",
                "barrier_point level row 1 is not numeric: '0.1, x'",
            ),
            (
                "barrier_point",
                "0 ; 0.1, 0, 0 ; 0",
                "barrier_point level row 1 needs 1 or 2 entries, got 3",
            ),
            (
                "barrier_point",
                "0 ; 0",
                "barrier_point expects 3 level rows separated by ';', got 2",
            ),
            ("barrier_right", "0 ; 0.1, x", "barrier_right level row 1 is not numeric: '0.1, x'"),
            (
                "barrier_right",
                "0 ; 0.1, 0, 0",
                "barrier_right level row 1 needs 1 or 2 entries, got 3",
            ),
            (
                "driver_point",
                "0 ; 0.3, x ; 0.2",
                "driver_point level row 1 is not numeric: '0.3, x'",
            ),
            (
                "driver_point",
                "0 ; 0.3, 0, 0 ; 0.2",
                "driver_point level row 1 needs 1 or 2 entries, got 3",
            ),
            ("driver_right", "0 ; 0.3, x", "driver_right level row 1 is not numeric: '0.3, x'"),
            (
                "driver_right",
                "0 ; 0.3 ; 0",
                "driver_right expects 2 level rows separated by ';', got 3",
            ),
            # a one-value terminal reaches every leaf, here below the barrier
            ("terminal", "-5", "terminal payoff fails to dominate the barrier"),
            ("terminal", "0.5, 1.0", "terminal needs 1 or 4 entries, got 2"),
            ("terminal", "0.5, x", "terminal is not numeric: '0.5, x'"),
            ("bound", "-5, x", "bound is not numeric: '-5, x'"),
            ("kind", "simulate", "unknown kind 'simulate'"),
        ],
    )
    def test_a_malformed_config_value_is_a_usage_error(self, tmp_path, capsys, key, value, message):
        lines = CONFIGURED_WITH_DRIVER.splitlines()
        if any(line.startswith(f"{key} =") for line in lines):
            lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
        else:
            lines.append(f"{key} = {value}")
        config = write_config(tmp_path, "\n".join(lines) + "\n")
        assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["solve", "penalize"])
    def test_config_error_in_a_worker_is_a_usage_error(self, tmp_path, capsys, kind, jobs):
        config = write_config(
            tmp_path,
            f"""\
            [experiment]
            kind = {kind}
            depth = 2

            [scenario]
            barrier_point = 1 ; 2
            terminal = 0
            """,
        )
        out = tmp_path / "out"
        assert main([kind, "--config", config, "--out-dir", str(out), "--jobs", str(jobs)]) == 2
        err = capsys.readouterr().err
        assert err == "error: barrier_point expects 3 level rows separated by ';', got 2\n"
        assert sorted(out.iterdir()) == []

    def test_verb_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_verb_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", "x"])
