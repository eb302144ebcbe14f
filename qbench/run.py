#!/usr/bin/env python3
"""Build and run the qbasis benchmark.

    python3 qbench/run.py --workload cold_zoo --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the repository root (the parent
of this directory). The first call configures and builds qbench/ (which
compiles the library from ../src) into $CARGO_TARGET_DIR/qbench, or
.bench_build/qbench when that is unset; later calls rebuild incrementally.

Each run executes the harness self-test, then one workload (or all three
with --workload all), prints the workload's table, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. The exit status is 0 only when every output check passed,
including the cross-run determinism check: the exact counters and the
response digest of a (workload, seed) must match every earlier run of the
same sources, which are kept in <build>/ledger/<source digest>/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_zoo", "zipf_serve", "drift_cycle"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(message, code):
    print("qbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "qbench")


def configured_source(out_dir):
    """The source directory a build directory was configured for, or
    None when it holds no configuration."""
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(out_dir):
    """Configure once per source tree, then build the qbench targets
    incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no qbasis sources next to %s (expected ../CMakeLists.txt "
            "and ../src)" % HERE, 2)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        configured = configured_source(out_dir)
        if configured is None or os.path.realpath(configured) \
                != os.path.realpath(HERE):
            # A build directory configured for another checkout would
            # compile that checkout's sources: start it afresh (the
            # ledger is keyed by source digest and stays).
            for entry in os.listdir(out_dir):
                path = os.path.join(out_dir, entry)
                if entry in ("ledger", "build.lock", "build.log"):
                    continue
                if os.path.isdir(path) and not os.path.islink(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs,
                      "--target", "qbench", "qbench_selftest"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step %s failed: %s" % (cmd[:2], e), 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (see %s)" % log_path, 3)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "qbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def clean_env():
    """The library reads QBASIS_* knobs (tracing, thread counts); the
    benchmark pins its own settings, so none leak in from the caller."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("QBASIS_")}


def check_ledger(out_dir, report, sources):
    """Exact counters and the response digest are pure functions of
    (workload, seed, code): compare with the first run of the same
    sources (`sources` is their digest), or record this run as the
    reference."""
    ledger = os.path.join(out_dir, "ledger", sources)
    os.makedirs(ledger, exist_ok=True)
    path = os.path.join(ledger, "%s-seed%d.json"
                        % (report["workload"], report["seed"]))
    mine = {"digest": report["digest"], "exact": report["exact"]}
    if not os.path.isfile(path):
        with open(path, "w") as f:
            json.dump(mine, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        ref = json.load(f)
    problems = []
    if ref["digest"] != mine["digest"]:
        problems.append("response digest %s differs from %s recorded by an "
                        "earlier run" % (mine["digest"], ref["digest"]))
    for key in sorted(set(ref["exact"]) | set(mine["exact"])):
        if ref["exact"].get(key) != mine["exact"].get(key):
            problems.append("exact counter %s = %s, earlier run %s"
                            % (key, mine["exact"].get(key),
                               ref["exact"].get(key)))
    return problems


def run_workload(out_dir, workload, seed, seconds, trace, prov):
    reports = os.path.join(out_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    report_path = os.path.join(reports, stem + ".json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [os.path.join(out_dir, "qbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--out", report_path]
    if trace:
        cmd += ["--spans", os.path.join(reports, stem + ".spans.json")]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=clean_env(),
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    if not os.path.isfile(report_path):
        die("%s exited with %d and wrote no report" % (workload, rc), 4)
    with open(report_path) as f:
        report = json.load(f)
    report["provenance"].update(prov)
    problems = list(report["failures"])
    if rc != 0 and not problems:
        problems.append("qbench exited with %d" % rc)
    problems += check_ledger(out_dir, report, prov["source_digest"])
    report["failures"] = problems
    report["correct"] = not problems
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_json) as f:
        spec = json.load(f)
    seconds = args.seconds or float(spec["run_seconds"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    build(out_dir)
    selftest = subprocess.run([os.path.join(out_dir, "qbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stderr)
        die("harness self-test failed", 5)

    prov = {"git_sha": git_sha(), "source_digest": source_digest()}
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        report = run_workload(out_dir, workload, args.seed, seconds,
                              args.trace, prov)
        for m in wanted:
            got = report["metrics"].get(m["name"])
            if got is None or got["value"] is None \
                    or not math.isfinite(got["value"]):
                report["failures"].append("metric %s missing" % m["name"])
                report["correct"] = False
                continue
            key = m["name"] if len(names) == 1 \
                else workload + "." + m["name"]
            metrics[key] = {"value": got["value"], "unit": m["unit"]}
        for problem in report["failures"]:
            print("FAILED %s: %s" % (workload, problem))
        print("%s: %s (git %s, source %s)" % (
            workload, "correct" if report["correct"] else "NOT CORRECT",
            prov["git_sha"] or "n/a", prov["source_digest"]))
        correct = correct and report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
