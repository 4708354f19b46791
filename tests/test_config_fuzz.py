"""Configs drawn from the CLI's key table, run in-process: every run ends in
exit 0 with every row passing, exit 2 with a message that names a key or the
scenario and no artifact, or exit 1 through a failing row; nothing else.

Each key's values sit at, just inside and just outside its bounds, or do not
parse; keys of other verbs and misspelt keys are drawn too.  Runs are small:
depth at most 4, at most 3 scenarios or paths, at most 8 steps.
"""

import contextlib
import inspect
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from rbsdelab import cli
from rbsdelab.scenarios import SCENARIO_KEYS

# per key: values inside its bounds (at them where they are closed), and
# values just outside them or that do not parse
VALUES = {
    "seed": (["0", "1"], ["-1", "x"]),
    "depth": (["1", "2", "4"], ["-1", "0", "two"]),
    "count": (["1", "3"], ["0", "1.5"]),
    "paths": (["1", "3"], ["0", ""]),
    "steps": (["1", "8"], ["0", "-1"]),
    "dimension": (["1", "3"], ["0", "4"]),
    # 5e-324 gives a subnormal step, 1e300 one that breaks the contraction margins
    "horizon": (["1e-300", "1e-20", "0.5", "2"], ["-1", "0", "5e-324", "1e300", "nan", "inf"]),
    "cadlag": (["true", "false"], ["maybe"]),
    "method": (["direct", "reduction", "both"], ["fastest"]),
    "mode": (["modified", "classic_vs_transformed"], ["bogus"]),
    "levels": (["1", "1,4,16"], ["0", "4,1", "1,1", "1,x"]),
    "powers": (["1", "1.5", "2", "1,2"], ["0.99", "2.01", "1,abc"]),
}
# keys read with a large default are always given, so that every run stays small
SMALL = {"count", "paths", "steps"}
MISSPELT = ["depht", "levles", "bogus", "cout"]
# rows for a depth-2 tree; at any other depth they exit 2 under their key
SCENARIO_VALUES = {
    "generator": (["zero", "linear:-0.5,0.2", "monotone_cubic:0.2"], ["linear:nan,0", "cubic"]),
    "barrier_point": (["0 ; 0.1, -0.2 ; 0"], ["0 ; 0", "0 ; x ; 0", "nan ; 0 ; 0"]),
    "barrier_right": (["0.2 ; 0.1, -0.3"], ["0"]),
    "driver_point": (["0 ; 0.3, -0.1 ; 0.2", "0 ; 0, 0 ; 0"], ["0 ; 0, 0, 0 ; 0"]),
    "driver_right": (["0 ; 5, 5"], ["0 ; 0.3 ; 0", "0 ; inf"]),
    "terminal": (["0.5, 1.0, 0.0, 0.25", "0.5"], ["-5", "0.5, 1.0", "0.5, nan, 0, 0"]),
    "bound": (["-5, -4"], ["5, 5", "nan, nan", "-5"]),
}


def value(draw, key, table):
    """A value of ``key``: one from outside its bounds about one time in eight."""
    inside, outside = table.get(key, (["1"], []))
    return draw(st.sampled_from(outside if outside and draw(st.integers(0, 7)) == 7 else inside))


@st.composite
def configs(draw):
    """A verb and the sections of its config, as {section: {key: text}}."""
    verb = draw(st.sampled_from(list(cli._RUNNERS)))
    params = inspect.signature(cli._RUNNERS[verb][0]).parameters
    own = [name for name, p in params.items() if p.kind is p.KEYWORD_ONLY]
    keys = [key for key in own if key in SMALL or draw(st.booleans())]
    if draw(st.integers(0, 3)) == 3:
        keys.append(draw(st.sampled_from(sorted(set(cli._KEYS) - set(own)) + MISSPELT)))
    sections = {"experiment": {"kind": verb, **{key: value(draw, key, VALUES) for key in keys}}}
    if "scenario" in params and draw(st.booleans()):
        sections["scenario"] = {
            key: value(draw, key, SCENARIO_VALUES)
            for key in SCENARIO_VALUES
            if key in ("barrier_point", "terminal") or draw(st.booleans())
        }
        if draw(st.integers(0, 3)) == 3:
            sections["scenario"]["bogus"] = "3"
    return verb, sections


def ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {text}\n" for key, text in section.items())
        for name, section in sections.items()
    )


def run(verb, sections, root):
    config = Path(root) / "exp.ini"
    config.write_text(ini(sections))
    out = Path(root) / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([verb, "--config", str(config), "--out-dir", str(out)])
    return code, err.getvalue(), out


def test_every_drawn_config_ends_in_one_of_three_outcomes():
    failing_inputs = []

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(configs())
    def check(drawn):
        verb, sections = drawn
        with tempfile.TemporaryDirectory() as root:
            code, err, out = run(verb, sections, root)
            files = sorted(p.name for p in out.glob("*")) if out.exists() else []
            statuses = [
                line.rsplit(",", 1)[1]
                for line in (out / "summary.csv").read_text().splitlines()[1:]
            ] if "summary.csv" in files else []
        if code == 0:
            assert statuses and set(statuses) == {"pass"}, (sections, statuses)
        elif code == 2:
            named = [key.rstrip("s") for section in sections.values() for key in section]
            named += ["scenario", "pair"]
            assert err.startswith("error: ") and any(word in err for word in named), (sections, err)
            assert files == [], (sections, files)
        else:
            assert code == 1 and "fail" in statuses, (sections, code, err)
            failing_inputs.append(ini(sections))

    check()
    if failing_inputs:
        warnings.warn(
            "configs that exit 1 through a failing row:\n" + "\n".join(failing_inputs),
            stacklevel=1,
        )


def test_the_drawn_values_cover_every_key():
    assert set(VALUES) == set(cli._KEYS)
    assert set(SCENARIO_VALUES) == set(SCENARIO_KEYS)
