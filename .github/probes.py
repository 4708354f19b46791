"""Report-only probes of the rbsdelab CLI: wall time and peak memory, in-process.

    python3 .github/probes.py SOURCE PROBE OUT [--base]

SOURCE is the directory ``rbsdelab`` is imported from (the ``src`` of a
checkout), PROBE one of the names in ``PROBES``, and OUT a path prefix for
the probe's configs and artifacts.  Each probe runs in its own interpreter,
because ``ru_maxrss`` is the peak of the whole process.  The one result
line goes to stdout.  The exit status is the CLI's, except with ``--base``,
which reports on a pull request's base and never fails.
"""

import os
import resource
import sys
import time


def deep_solve(main, out):
    config = f"{out}.ini"
    with open(config, "w") as handle:
        handle.write("[experiment]\nkind = solve\ndepth = 19\ncount = 1\nseed = 1\nmethod = both\n")
    return [main(["solve", "--config", config, "--out-dir", out, "--jobs", "1"])]


def solve_deep(main, out):
    config = f"{out}.ini"
    with open(config, "w") as handle:
        handle.write("[experiment]\nkind = solve\ndepth = 16\ncount = 8\nseed = 1\nmethod = both\n")
    return [main(["solve", "--config", config, "--out-dir", out, "--jobs", "2"])]


def penalize(main, out):
    levels = ",".join(str(2**j) for j in range(13))
    codes = []
    for mode in ("modified", "classic_vs_transformed"):
        config = f"{out}-{mode}.ini"
        with open(config, "w") as handle:
            handle.write(
                f"[experiment]\nkind = penalize\ndepth = 14\ncount = 4\nseed = 1001\n"
                f"levels = {levels}\nmode = {mode}\n"
            )
        codes.append(main(["penalize", "--config", config, "--out-dir", f"{out}-{mode}", "--jobs", "1"]))
    return codes


# name: (run, line label with "{at}" where " at the base" goes, whether the exit codes print as a list)
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
    codes = run(cli_main, out)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"{label.format(at=' at the base' if base else '')}: exit {codes if as_list else codes[0]}, "
        f"wall {wall:.2f} s, CPU {cpu:.2f} s, ru_maxrss {rss:.1f} MB"
    )
    return 0 if base else max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
