#!/usr/bin/env python3
"""Smoke test of the repository benchmark at minimal input size.

    python3 perfbench/smoke_test.py

Run from the root of a source checkout. For every workload, in both modes,
perfbench/run.py must print each metric BENCHMARK.json names, with its
unit, and report no failed operation (ok_share 1, failed_share 0). A
fault planted on one user, which the retry policy skips, must show up as a
failed operation (ok_share below 1). Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: ROOT, WORKLOADS, build())

SCALE = "0.05"


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result


def expect(ok, message):
    if not ok:
        raise AssertionError(message)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.build()
    for workload in run.WORKLOADS:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} operations failed")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in table},
                   f"{label}: metrics {sorted(metrics)}")
            for m in table:
                got = metrics[m["name"]]
                expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
                expect(isinstance(got["value"], (int, float)), f"{label}: {m['name']} value")
            if trace == 0:
                expect(metrics["ok_share"]["value"] == 1.0, f"{label}: ok_share below 1")
            else:
                chrome = run.build_dir() / "traces" / f"{workload}.json"
                spans = json.loads(chrome.read_text())
                names = {event.get("name") for event in spans}
                expect({"workload.run", "workload.query"} <= names,
                       f"{label}: Chrome trace lacks the workload spans")
            print(f"ok   {label}", flush=True)

    for workload in run.WORKLOADS:
        result = bench(workload, 0, "--inject-fault")
        ok_share = result["metrics"]["ok_share"]["value"]
        expect(not result["correct"] and result["failed"] > 0 and ok_share < 1.0,
               f"{workload} --inject-fault: the planted fault did not show (ok_share {ok_share})")
        print(f"ok   {workload} --inject-fault: ok_share {ok_share:.4f}", flush=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"FAIL {error}", file=sys.stderr)
        sys.exit(1)
