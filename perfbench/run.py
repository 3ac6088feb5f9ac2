#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_fold --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout. The first call builds
perfbench/wildbench (Release) into $CARGO_TARGET_DIR, default .bench_build.
The run then starts the binary PROCESSES times, each in a fresh process.
Each process sets the workload up once and repeats its timed region for its
share of --seconds. With --trace 0 the last stdout line carries the
end-to-end metrics. With --trace 1 it carries the per-layer metrics, and
each process also writes a Chrome trace to <build>/traces/<workload>.json.
BENCHMARK.json at the checkout root names the metrics and their units; see
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("panel_live", "fleet_fold")
# Fresh processes per run: each one gives a setup_s and a peak_rss_mb sample.
PROCESSES = 3
# A run must end within 180 s; stop starting processes past this point.
HARD_LIMIT_S = 150.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "wildbench"


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit}


def run_process(binary, args, index, deadline):
    """One fresh process; returns its JSON record or None on failure."""
    tmp = build_dir() / "tmp" / f"{args.workload}-{os.getpid()}-{index}"
    # A traced process also runs the traced repetition and the layer drills;
    # half the budget keeps a traced run about as long as an untraced one.
    budget = args.seconds / PROCESSES * (0.5 if args.trace else 1.0)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--tmp", str(tmp), "--budget", f"{budget:.3f}",
           "--scale", str(args.scale), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} process {index} timed out")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        log(proc.stderr.strip())
        log(f"run.py: {args.workload} process {index} exited {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records):
    run_s = median([s for r in records for s in r["run_s"]])
    return {
        "setup_s": median([r["setup_s"] for r in records]),
        "run_s": run_s,
        "throughput_mpkt_s": records[0]["packets"] / run_s / 1e6,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
    }


def per_layer(records):
    names = sorted({name for r in records for name in r["layers"]})
    layers = {name: median([r["layers"][name] for r in records if name in r["layers"]])
              for name in names}
    layers["bench.tracing_overhead_share"] = median(
        [r["traced_run_s"] / median(r["run_s"]) - 1.0 for r in records])
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (panel days, fleet users)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="plant a shard fault that the retry policy skips")
    args = parser.parse_args()
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"run.py: cannot build the benchmark: {error}")
        return 1

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    records, crashed = [], 0
    for index in range(PROCESSES):
        if index > 0 and time.monotonic() - start > HARD_LIMIT_S / 2:
            break
        record = run_process(binary, args, index, deadline)
        if record is None:
            crashed += 1
        else:
            records.append(record)
    if not records:
        log("run.py: no process produced a result")
        return 1

    host = host_fingerprint()
    build_info = records[0]["build"]
    host.update(build_info)
    host["threads"] = records[0]["threads"]
    if build_info["build_type"] != "Release":
        log(f"run.py: WARNING: {build_info['build_type']} build; numbers are not comparable")
    print("# host " + json.dumps(host, sort_keys=True), flush=True)

    attempted = crashed + sum(r["user_runs"] + r["checks_run"] for r in records)
    failed = crashed + sum(r["failed_user_runs"] + len(r["checks_failed"]) for r in records)
    for r in records:
        for check in sorted(set(r["checks_failed"])):
            print(f"# check failed: {check}", flush=True)
    print(f"# failed_share {failed / attempted:.6g} ({failed} of {attempted})", flush=True)

    if args.trace:
        values, table = per_layer(records), spec["per_layer"]
    else:
        values, table = end_to_end(records), spec["end_to_end"]
        values["ok_share"] = 1.0 - failed / attempted
    metrics = {}
    for entry in table:
        name = entry["name"]
        if name not in values:
            log(f"run.py: metric {name} was not measured")
            return 1
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"# {name:34s} {values[name]:>16.6g} {entry['unit']}", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
