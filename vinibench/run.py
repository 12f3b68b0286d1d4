#!/usr/bin/env python3
"""Entry point of the libvini benchmark (see vinibench/README.md).

Run from the repository root:

    python3 vinibench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 vinibench/run.py --self-test

Builds the benchmark and the library under it from source with CMake into
$CARGO_TARGET_DIR/vinibench (default .bench_build/vinibench), then runs the
benchmark binary; its results files go to <build dir>/results.  stdout
carries the binary's table and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics, where metrics holds exactly the
metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1); a declared metric the workload does not exercise
reads 0.  Build output goes to stderr.  The exit code is the binary's, or 2
when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vinibench")


def build(out):
    """Configure and (re)build the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", out],
        ["cmake", "--build", out, "--target", "vinibench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "vinibench")


def declared_result(line, traced):
    """The binary's result line with metrics narrowed to BENCHMARK.json's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    result = json.loads(line)
    measured = result["metrics"]
    result["metrics"] = {
        m["name"]: {"value": measured.get(m["name"], {}).get("value", 0),
                    "unit": m["unit"]}
        for m in declared
    }
    return json.dumps(result)


def main(argv):
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("vinibench: build failed", file=sys.stderr)
        return 2
    if "--self-test" in argv:
        return subprocess.run([binary] + argv, cwd=ROOT).returncode
    proc = subprocess.run(
        [binary] + argv + ["--out", os.path.join(out, "results")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2
    print("\n".join(lines[:-1]))
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    print(declared_result(lines[-1], traced))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
