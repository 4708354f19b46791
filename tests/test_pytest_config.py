import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # reporting a failing example imports libcst, whose import warns; the
    # repository's warning filters must leave that warning out of the run
    (tmp_path / "test_sample.py").write_text(
        textwrap.dedent(
            """\
            from hypothesis import given, strategies as st


            @given(st.integers())
            def test_fails(x):
                assert x < 0


            def test_passes():
                assert True
            """
        )
    )
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
    run = subprocess.run(
        command + ["-q", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
