#!/usr/bin/env python3
"""GRANII end-to-end benchmark: build, generate inputs, measure, check.

Builds the library and the benchmark binary from this checkout's sources,
generates the workload's inputs from the seed, runs one measurement and
prints the result JSON as the last line of standard output:

    python3 perfbench/run.py --workload train-rmat --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "granii-perfbench")
WORKLOADS = ("train-rmat", "infer-gat-sharded")
# Each child process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        fail("GRANII sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail(f"cmake configure failed (see {log_path})")
        cmd = ["cmake", "--build", BUILD, "-j", str(nproc())]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail(f"build failed (see {log_path})")


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        if not os.path.isdir(".git"):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_ticks():
    """Aggregate /proc/stat CPU ticks (user .. steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def run_child(cmd, env):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        fail(f"exit code {out.returncode}: {' '.join(cmd)}")
    return out.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py): small inputs, one cold
    # set-up, and a planted fault the checks must report.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--plant", default="none",
                    choices=("none", "wrong-output", "steady-alloc"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    os.chdir(ROOT)

    build()

    # A fresh directory per run: inputs, GRANII_CACHE_DIR (plan-cache spill
    # files, shard stores) and the daemon socket never outlive the run.
    # Relative paths keep the socket path short.
    work = os.path.join(".bench_build", "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "in")
    cache = os.path.join(work, "cache")
    os.makedirs(cache)
    env = dict(os.environ)
    env["GRANII_CACHE_DIR"] = cache
    env["GRANII_NUM_THREADS"] = str(nproc())
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    try:
        gen = [BINARY, "gen", "--workload", args.workload, "--seed",
               str(args.seed), "--dir", inputs]
        if args.tiny:
            gen.append("--tiny")
        run_child(gen, env)
        cmd = [BINARY, "run", "--workload", args.workload, "--dir", inputs,
               "--cache-dir", cache, "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--model-file", os.path.join("examples", "gcn.gnn"),
               "--plant", args.plant,
               "--setups", "1" if args.tiny else "3",
               "--trace-out", os.path.join(
                   traces, f"{args.workload}-seed{args.seed}.trace.json")]
        if args.tiny:
            cmd.append("--tiny")
        before = cpu_ticks()
        stdout = run_child(cmd, env)
        after = cpu_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("perfbench-details "):
        fail("benchmark printed no result")
    details = json.loads(lines[-2].split(" ", 1)[1])
    details.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                   revision=source_revision())
    if before and after:
        # Share of all CPU time the hypervisor gave to other guests while
        # the run measured: high values explain slow runs on shared hosts.
        delta = [b - a for a, b in zip(before, after)]
        details["host_steal_pct"] = round(100.0 * delta[7] / max(1, sum(delta)), 2)
    result = json.loads(lines[-1])
    print("perfbench-details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
