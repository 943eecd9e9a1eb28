#!/usr/bin/env python3
"""Builds and runs the loopback host -> SN -> host benchmark.

    python3 perfbench/run.py --workload fwd_small --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The program's libraries and the
harness are built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build), the harness's arithmetic tests are run, and then the
harness itself. An untraced run splits its window over PROCS fresh
processes run one after another: a single process settles at a level of
its own for its whole life, so one process per run makes runs of the same
code disagree. Process i gets the seed seed * PROCS + i. The result pools
the one-second slices of every process and takes their medians; setup_s
is the median of the processes' set-up times. Slices and set-ups during
which the hypervisor stole time from the pinned CPUs are left out, as
long as at least MIN_SLICES slices and MIN_SETUPS set-ups remain; below
that, the least-stolen ones are used. A traced run is one process over
the whole window. The last line of standard output is the JSON
result. See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150
PROCS = 10
SLICED = ("fwd_pps", "goodput_mbps", "lat_p50_us", "lat_p99_us", "sn_cpu_ns_per_pkt")
MIN_SLICES = 10
MIN_SETUPS = 5


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def least_stolen(steal, least):
    """Indices of the entries with no steal, or of the `least` with the
    least steal when fewer have none. Unknown steal (None) ranks last."""
    order = sorted(range(len(steal)), key=lambda i: (steal[i] is None, steal[i] or 0))
    clean = [i for i in order if steal[i] == 0]
    return sorted(clean if len(clean) >= least else order[:least])


def src_facts():
    """Line count of src/ (the simplicity metric) and a revision label."""
    lines = 0
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".h", ".cpp")):
                continue
            with open(os.path.join(dirpath, name), "rb") as f:
                data = f.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    return lines, rev or "src-sha256:" + digest.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build(build_dir)

    test = subprocess.run([os.path.join(build_dir, "bench_math_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        fail("the benchmark's arithmetic tests failed", 1)

    lines, rev = src_facts()
    cmd = [os.path.join(build_dir, "loopback_bench"), "--workload", a.workload,
           "--trace", str(a.trace), "--rev", rev, "--src-lines", str(lines)]
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def run(seed, seconds):
        """One harness process: its output before the result line, its slices
        and meta lines by tag, its result."""
        try:
            r = subprocess.run(cmd + ["--seed", str(seed), "--seconds", str(seconds)],
                               stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"harness did not finish within {RUN_TIMEOUT_S} s", 3)
        if r.returncode != 0:
            sys.stdout.write(r.stdout)
            sys.exit(r.returncode)
        out = r.stdout.splitlines()
        tagged = {l.split(" ", 1)[0]: json.loads(l.split(" ", 1)[1]) for l in out
                  if l.startswith(("slices ", "meta "))}
        return out[:-1], tagged, json.loads(out[-1])

    if a.trace:
        out, _, result = run(a.seed, a.seconds)
        print("\n".join(out))
        print(json.dumps(result))
        return

    procs = min(PROCS, a.seconds)
    pooled = {name: [] for name in SLICED + ("steal_ticks",)}
    setups, setup_steal, rss, results = [], [], [], []
    limited = 0
    for i in range(procs):
        seconds = a.seconds // procs + (1 if i < a.seconds % procs else 0)
        seed = a.seed * PROCS + i
        out, tagged, r = run(seed, seconds)
        slices = tagged["slices"]
        limited += tagged["meta"]["gen_limited"]
        print(f"--- process {i + 1} of {procs}: seed {seed}, {seconds} s")
        print("\n".join(out))
        for name in pooled:
            pooled[name] += slices[name]
        setups.append(r["metrics"]["setup_s"]["value"])
        setup_steal.append(slices["setup_steal_ticks"])
        rss.append(r["metrics"]["peak_rss_mb"]["value"])
        results.append(r)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    keep = least_stolen(pooled["steal_ticks"], MIN_SLICES)
    values = {}
    for name in SLICED:
        kept = [pooled[name][i] for i in keep if pooled[name][i] is not None]
        values[name] = statistics.median(kept)
    keep_setups = least_stolen(setup_steal, MIN_SETUPS)
    values["setup_s"] = statistics.median(setups[i] for i in keep_setups)
    values["delivered_frac"] = 1 - failed / attempted
    values["peak_rss_mb"] = statistics.median(rss)
    metrics = {}
    print(f"--- the run: {procs} processes; {len(keep)} of {len(pooled['fwd_pps'])} one-second"
          f" slices and {len(keep_setups)} of {procs} set-ups used (steal ticks of the pinned"
          f" CPUs: {sum(t or 0 for t in pooled['steal_ticks'])} in the windows,"
          f" {sum(t or 0 for t in setup_steal)} in the set-ups)")
    for name, m in results[0]["metrics"].items():
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"  {name:<20} {values[name]:14.4f} {m['unit']}")
    print("  setup_s is the median over the set-ups used, peak_rss_mb over the processes;"
          " delivered_frac is pooled; the rest are medians over the slices used")
    if limited:
        print(f"  GENERATOR-LIMITED in {limited} of {procs} processes: fwd_pps is not SN capacity")
    print(json.dumps({"correct": all(r["correct"] for r in results), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
