#!/usr/bin/env python3
"""Benchmark entry point for crmc (see README.md in this directory).

Usage, from the repository root:

    python3 crmcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (the crmc libraries from ../src plus this directory's
program) into $CARGO_TARGET_DIR/crmcbench (default .bench_build/crmcbench),
runs the statistics self-test, then runs the workload and samples set-up
time in fresh processes before and after it. Diagnostics lines come first;
the last line of standard output is the JSON result. Exits nonzero,
printing no result, when the build, the self-test, or the run fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh processes sampled for setup_s, half before and half after the run
# so the samples span the host's slow and fast windows; the run itself adds
# one more sample.
SETUP_SAMPLES = 20
# Generous ceilings; a normal run ends in --seconds plus a few seconds.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def run_checked(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout); returns its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build(build_dir):
    # Configured on every run: cmake refuses a build directory whose cache
    # was made from another source tree, so a shared target directory can
    # never time another checkout's sources.
    run_checked(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "-j2", "--target",
                 "crmcbench", "crmcbench_test"], BUILD_TIMEOUT_S)
    run_checked([os.path.join(build_dir, "crmcbench_test")], SETUP_TIMEOUT_S)


def tree_digest():
    """Digest of the sources the benchmark is built from (../src, this
    directory, the root CMakeLists.txt), so stored references are never
    carried over from other code."""
    root = os.path.dirname(HERE)
    h = hashlib.sha256()
    files = [os.path.join(root, "CMakeLists.txt")]
    for top in (os.path.join(root, "src"), HERE):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("no output")
    return lines[:-1], json.loads(lines[-1])


def load_fast_refs(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "crmcbench")
    try:
        build(build_dir)
        binary = os.path.join(build_dir, "crmcbench")
        base = [binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        setup = []

        def sample_setup(indices):
            for i in indices:
                out = run_checked(base + ["--setup-sample", str(i)],
                                  SETUP_TIMEOUT_S, capture=True)
                setup.append(last_json(out)[1]["setup_s"])

        if args.trace == 0:
            sample_setup(range(SETUP_SAMPLES // 2))

        # The fastest low-quantile slice time earlier runs of this workload
        # on these same sources saw, so the diagnostics can flag a run spent
        # wholly in slow mode.
        refs_path = os.path.join(build_dir, "fast_ref.json")
        refs = load_fast_refs(refs_path)
        ref_key = f"{args.workload}@{tree_digest()}"
        cmd = base + ["--trace", str(args.trace)]
        if args.trace == 0 and ref_key in refs:
            cmd += ["--fast-ref-ms", repr(refs[ref_key])]
        diagnostics, result = last_json(
            run_checked(cmd, RUN_TIMEOUT_S, capture=True))
        if args.trace == 0:
            sample_setup(range(SETUP_SAMPLES // 2, SETUP_SAMPLES))
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"crmcbench/run.py: {e}", file=sys.stderr)
        return 1

    if args.trace == 0:
        metrics = result["metrics"]
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
        diagnostics.append(json.dumps({"setup_s_samples": setup}))
        for line in diagnostics:
            noise = json.loads(line).get("host_noise")
            if noise and noise["slices"] == "RunTrials":
                refs[ref_key] = min(noise["quantile_slice_ms"],
                                    refs.get(ref_key, float("inf")))
                with open(refs_path, "w") as f:
                    json.dump(refs, f)
    for line in diagnostics:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
