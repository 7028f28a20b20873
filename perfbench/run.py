#!/usr/bin/env python3
"""Builds and runs the SacFD layered benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload fig4-fused --seed 0 --seconds 20 --trace 0

builds perfbench/ (the SacFD libraries plus the benchmark) into .bench_build/,
runs the workload, prints a stamp line (revision, build type, host, layout,
SIMD and pool defaults) and, last, one JSON result line.  --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes a span file.

The steadiness report runs every workload K times on seeds 0..K-1 and prints
the median, the quartiles and the spread (IQR / median) of each end-to-end
metric, naming any metric whose spread is above a tenth:

    python3 perfbench/run.py --steadiness 10 --seconds 20

See perfbench/README.md for the workloads, the metrics and the noise
findings behind the design.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig4-fused", "fig4-sac", "ext5-shards", "dmr-durable"]
END_TO_END = ["step_ms_p50", "step_ms_p90", "mcells_per_s", "setup_s",
              "peak_rss_mb"]
# A run must end within 180 s; leave room for the wrapper itself.
RUN_TIMEOUT_S = 170
STEADY_SPREAD = 0.10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # Honour the build directory the caller chose for build outputs.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: SacFD sources (src/) not found next to perfbench/")
        return None
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def host_stamp():
    """Revision, host and source fingerprint for every result."""
    revision = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu_model = "unknown"
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for index in sorted(os.listdir(cache_root)):
            base = os.path.join(cache_root, index)
            level = read_text(os.path.join(base, "level"))
            kind = read_text(os.path.join(base, "type"))
            size = read_text(os.path.join(base, "size"))
            if level and kind and size:
                suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
                caches["L" + level + suffix] = size
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"revision": revision, "source_sha256": digest.hexdigest()[:16],
            "nproc": nproc, "cpu_model": cpu_model, "caches": caches}


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The run's shard processes share its session: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    return proc.returncode, out.splitlines()


def single(args, binary):
    rc, lines = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    if not lines:
        return rc or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: no result line")
        return rc or 1
    # The program's own stamp (build and defaults) joins the host stamp.
    stamp = host_stamp()
    for line in lines[:-1]:
        try:
            stamp.update(json.loads(line)["stamp"])
        except (ValueError, KeyError, TypeError):
            print(line)
    print(json.dumps({"stamp": stamp}))
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(lines[-1], flush=True)
    return rc


def steadiness(args, binary):
    workloads = [args.workload] if args.workload else WORKLOADS
    failed = False
    summary = {}
    for workload in workloads:
        values = {m: [] for m in END_TO_END}
        for k in range(args.steadiness):
            seed = args.seed + k
            rc, lines = run_once(binary, workload, seed, args.seconds, 0)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            if rc or not result.get("correct"):
                failed = True
                log("perfbench: %s seed %d failed (exit %d)" %
                    (workload, seed, rc))
                continue
            for m in END_TO_END:
                values[m].append(result["metrics"][m]["value"])
            log("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (m, values[m][-1]) for m in END_TO_END)))
        summary[workload] = {}
        print("%s (%d runs)" % (workload, len(values[END_TO_END[0]])))
        for m in END_TO_END:
            v = values[m]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            flag = "  <-- spread above %.2f" % STEADY_SPREAD \
                if spread > STEADY_SPREAD else ""
            print("  %-13s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.4f%s"
                  % (m, statistics.median(v), q1, q3, spread, flag))
            summary[workload][m] = {"median": statistics.median(v), "q1": q1,
                                    "q3": q3, "spread": spread,
                                    "values": v}
    print(json.dumps({"steadiness": summary}))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="K",
                    help="run each workload K times and report spreads")
    args = ap.parse_args()
    if not args.steadiness and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.steadiness:
        return steadiness(args, binary)
    return single(args, binary)


if __name__ == "__main__":
    sys.exit(main())
