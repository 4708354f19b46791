"""Report-only probes of the rbsdelab CLI: wall time and peak memory, in-process.

    python3 .github/probes.py SOURCE PROBE OUT [--base]

SOURCE is the directory ``rbsdelab`` is imported from (the ``src`` of a
checkout), PROBE one of the names in ``PROBES``, and OUT a path prefix for
the probe's configs and artifacts.  Each probe runs in its own interpreter,
because ``ru_maxrss`` is the peak of the whole process.  The one result
line goes to stdout; it ends with the sha256 of the probe's ``results.csv``
(of its study tables and summaries, for ``penalize``; of its path tables and
summary, for ``ito-check``), so a base and a head
line show at a glance whether the bytes moved.  The exit status is the
CLI's, except with ``--base``, which reports on a pull request's base and
never fails.
"""

import glob
import hashlib
import os
import resource
import sys
import time


def sha256(paths):
    """Hex sha256 of the files' bytes, read in order; "missing" if one does not exist."""
    digest = hashlib.sha256()
    for path in paths:
        if not os.path.isfile(path):
            return "missing"
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def deep_solve(main, out):
    config = f"{out}.ini"
    with open(config, "w") as handle:
        handle.write("[experiment]\nkind = solve\ndepth = 19\ncount = 1\nseed = 1\nmethod = both\n")
    code = main(["solve", "--config", config, "--out-dir", out, "--jobs", "1"])
    return [code], [f"{out}/results.csv"]


def solve_deep(main, out):
    config = f"{out}.ini"
    with open(config, "w") as handle:
        handle.write("[experiment]\nkind = solve\ndepth = 16\ncount = 8\nseed = 1\nmethod = both\n")
    code = main(["solve", "--config", config, "--out-dir", out, "--jobs", "2"])
    return [code], [f"{out}/results.csv"]


def penalize(main, out):
    levels = ",".join(str(2**j) for j in range(13))
    codes, artifacts = [], []
    for mode in ("modified", "classic_vs_transformed"):
        config = f"{out}-{mode}.ini"
        with open(config, "w") as handle:
            handle.write(
                f"[experiment]\nkind = penalize\ndepth = 14\ncount = 4\nseed = 1001\n"
                f"levels = {levels}\nmode = {mode}\n"
            )
        codes.append(main(["penalize", "--config", config, "--out-dir", f"{out}-{mode}", "--jobs", "1"]))
        artifacts += sorted(glob.glob(os.path.join(glob.escape(f"{out}-{mode}"), "*.csv")))
    return codes, artifacts


def ito_check(main, out):
    config = f"{out}.ini"
    with open(config, "w") as handle:
        handle.write(
            "[experiment]\nkind = ito-check\nsteps = 256\npaths = 24\ndimension = 3\n"
            "powers = 1,1.5,2\nseed = 1\n"
        )
    code = main(["ito-check", "--config", config, "--out-dir", out, "--jobs", "1"])
    paths = sorted(glob.glob(os.path.join(glob.escape(out), "path_*.csv")))
    return [code], paths + [f"{out}/summary.csv"]


# name: (run, line label with "{at}" where " at the base" goes, whether the exit codes print as a list);
# run returns the exit codes and the artifact files whose sha256 the line reports
PROBES = {
    "deep-solve": (deep_solve, "deep solve{at} (depth 19, one scenario, method both, in-process)", False),
    "solve-deep": (
        solve_deep,
        "solve-deep shape{at} (depth 16, 8 scenarios, method both, --jobs 2, in-process)",
        False,
    ),
    "penalize": (
        penalize,
        "penalize studies{at} (depth 14, 4 scenarios, levels 1..4096, modified then classic, in-process)",
        True,
    ),
    "ito-check": (
        ito_check,
        "ito-check paths{at} (steps 256, 24 paths, dimension 3, powers 1,1.5,2, in-process)",
        False,
    ),
}


def main(argv):
    source, probe, out, *flags = argv
    base = flags == ["--base"]
    sys.path.insert(0, os.path.abspath(source))
    import rbsdelab
    from rbsdelab.cli import main as cli_main

    if base:
        print(f"base rbsdelab imported from {rbsdelab.__file__}")
    run, label, as_list = PROBES[probe]
    start = time.perf_counter()
    cpu = time.process_time()
    codes, artifacts = run(cli_main, out)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"{label.format(at=' at the base' if base else '')}: exit {codes if as_list else codes[0]}, "
        f"wall {wall:.2f} s, CPU {cpu:.2f} s, ru_maxrss {rss:.1f} MB, sha256 {sha256(artifacts)}"
    )
    return 0 if base else max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
