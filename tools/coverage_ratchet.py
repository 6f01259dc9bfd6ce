#!/usr/bin/env python3
"""Zero-hit ratchet over gcov data: no new src/ function may go unexecuted.

Reads every .gcda file of a build tree configured with -DCRMC_COVERAGE=ON
(the "coverage" preset) through gcov's JSON summary, sums each src/
function's execution count over every translation unit that emitted it
(inline and template functions are emitted, and counted, in each unit that
uses them), and compares the functions that no test reached with the
committed list. A function missing from that list fails the check; listed
functions that now run are reported so the list can shrink.

    coverage_ratchet.py --build-dir build-coverage --reset
    coverage_ratchet.py --build-dir build-coverage --source-dir . \\
        --baseline tools/coverage_zero_hit.txt [--update]

--reset deletes the counters of an earlier run (ctest runs it first, as
the setup of the fixture every test of the coverage tree requires, and runs
the check last, as its cleanup). --update rewrites the baseline with the
current list. gcov's JSON output is read rather than its `-n -f` text
summary because only the JSON says which source file a function is in.
Functions that no unit emits (an uncalled inline function, an
uninstantiated template) never reach gcov and are not listed. Exit status:
0 pass, 1 new zero-hit functions, 2 usage or gcov error.
"""

import argparse
import json
import os
import subprocess
import sys


def gcda_files(build_dir):
    for d, _, names in os.walk(os.path.abspath(build_dir)):
        for n in names:
            if n.endswith(".gcda"):
                yield os.path.join(d, n)


def gcov_json(gcda):
    """gcov's JSON report for one .gcda file (one document per line)."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        cwd=os.path.dirname(gcda), capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"gcov failed on {gcda}: {proc.stderr.decode(errors='replace')}")
    for line in proc.stdout.decode().splitlines():
        if line.strip():
            yield json.loads(line)


def function_counts(build_dir, source_dir):
    """{(path under source_dir, demangled name): summed execution count}
    for every function gcov reports in a file under source_dir/src."""
    src = os.path.join(os.path.realpath(source_dir), "src") + os.sep
    counts = {}
    for gcda in gcda_files(build_dir):
        for doc in gcov_json(gcda):
            cwd = doc.get("current_working_directory", "")
            for f in doc.get("files", []):
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, os.path.realpath(source_dir))
                for fn in f.get("functions", []):
                    key = (rel, fn.get("demangled_name") or fn["name"])
                    counts[key] = counts.get(key, 0) + fn["execution_count"]
    return counts


def read_baseline(path):
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        return {line.rstrip("\n") for line in f
                if line.strip() and not line.startswith("#")}


HEADER = """\
# src/ functions that no test of the coverage tier executes, one
# "path: function" per line. tools/coverage_ratchet.py fails when a function
# outside this list goes unexecuted; regenerate with its --update flag
# (after running the whole coverage preset) when a change removes entries
# or deliberately adds one.
"""


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--source-dir")
    parser.add_argument("--baseline")
    parser.add_argument("--reset", action="store_true")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args(argv)

    if args.reset:
        removed = 0
        for gcda in list(gcda_files(args.build_dir)):
            os.remove(gcda)
            removed += 1
        print(f"removed {removed} .gcda files")
        return 0
    if not args.source_dir or not args.baseline:
        parser.error("--source-dir and --baseline are required")

    try:
        counts = function_counts(args.build_dir, args.source_dir)
    except (OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not counts:
        print("error: no gcov data for src/ under " + args.build_dir +
              " (run the whole coverage test preset first)", file=sys.stderr)
        return 2
    zero = sorted(f"{p}: {n}" for (p, n), c in counts.items() if c == 0)
    print(f"{len(counts)} src/ functions, {len(zero)} never executed")

    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as f:
            f.write(HEADER)
            f.writelines(z + "\n" for z in zero)
        print(f"wrote {args.baseline}")
        return 0

    baseline = read_baseline(args.baseline)
    new = [z for z in zero if z not in baseline]
    now_hit = sorted(baseline - set(zero))
    for z in now_hit:
        print(f"now executed or gone (drop it from the baseline): {z}")
    for z in new:
        print(f"NEW zero-hit function: {z}")
    if new:
        print(f"FAIL: {len(new)} src/ functions no test executes; add a "
              "test that reaches them, or delete them")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
