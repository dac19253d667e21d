#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `san-perfbench` package from
source (release, offline, into $CARGO_TARGET_DIR, default `.bench_build`),
runs one workload in one single-threaded process, and relays its output.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
run manifest (nproc, rustc, revision, seed, repeat counts and spreads).

The metric names and units are checked against BENCHMARK.json: end-to-end
metrics with `--trace 0`, per-layer metrics with `--trace 1`. The exit code
is non-zero when the build fails, a correctness check fails, or the output
does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("perm_stream", "tenants_lossy", "chaos_suite", "mc_tiny2")
# Sources whose content identifies the code under test when the checkout
# is not a git repository.
TREE = ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench")
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_digest():
    """sha256 over the source tree, for checkouts without git metadata."""
    h = hashlib.sha256()
    for top in TREE:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def revision():
    git_dir = os.path.join(ROOT, ".git")
    if os.path.isdir(git_dir):
        r = subprocess.run(
            ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    return tree_digest()


def rustc_version():
    try:
        r = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return r.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no crates/ next to perfbench/: run from a full checkout", 2)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed ({build.returncode})", 3)

    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_REV"] = revision()
    cmd = [
        os.path.join(target, "release", "san-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 5)
    lines = run.stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}", run.returncode)

    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"last line is not a JSON result: {e}", 4)
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        fail(f"result does not match BENCHMARK.json: {sorted(got.items())}", 4)


if __name__ == "__main__":
    main()
