#!/usr/bin/env python3
"""Builds and runs the ctxrank benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse
the build. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics, holding the end_to_end
metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). Human-readable lines, each starting with '#', come before it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ctxrank sources (src/) next to perfbench/: nothing to build")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(out, "perfbench")


def code_identity():
    """The commit when the checkout is a git repository, else a hash of src/."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, scale):
    """Runs one workload; returns (exit code, '#' lines, result object)."""
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir = os.path.join(build_dir(), "runs", tag)
    spans_dir = os.path.join(build_dir(), "spans")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--workdir", workdir,
           "--commit", code_identity()]
    if trace:
        cmd += ["--spans", os.path.join(spans_dir, tag + ".jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    stdout = None
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # Also on SIGTERM (see main): no process or snapshot outlives us.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if stdout is None:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, [l for l in lines[:-1] if l.startswith("#")], result


def select(spec, result, workload, trace):
    """Reduces the binary's metrics to the BENCHMARK.json set for the run.

    Every end_to_end metric must have been measured. A per_layer metric the
    workload has no layer for (the gateway and live-index probes' metrics
    on hot-pattern) is reported as 0 and listed.
    """
    measured = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail(f"{workload} did not measure {m['name']}")
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, absent


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    binary = build()
    code, notes, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace, "default")
    if result is None:
        fail(f"{args.workload} exited {code} without a result")
    metrics, absent = select(spec, result, args.workload, args.trace)
    for line in notes:
        print(line)
    if absent:
        print(f"# no such layer on {args.workload}, reported as 0: "
              + " ".join(absent))
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if code == 0 else 1


def self_test():
    """Runs every workload briefly at WorldConfig::Small() scale, traced and
    untraced, and checks that every BENCHMARK.json metric is measured with
    its unit on some workload, and every end_to_end metric on each."""
    spec = load_spec()
    binary = build()
    problems = []
    per_layer_seen = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, _, result = run_binary(binary, workload, 1, 1, trace,
                                         "small")
            label = f"{workload} --trace {trace}"
            if result is None or code != 0 or not result.get("correct"):
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            measured = result["metrics"]
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = measured.get(m["name"])
                if got is None:
                    if not trace:
                        problems.append(f"{label}: no {m['name']}")
                    continue
                if got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} in {got['unit']}")
                elif trace:
                    per_layer_seen.add(m["name"])
            print(f"# self-test {label}: ok", flush=True)
    for m in spec["per_layer"]:
        if m["name"] not in per_layer_seen:
            problems.append(f"per_layer {m['name']} measured on no workload")
    for p in problems:
        print(f"# self-test FAIL {p}")
    print("# self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
