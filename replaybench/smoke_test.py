#!/usr/bin/env python3
"""Smoke test of the benchmark runner at tiny sizes.

    python3 replaybench/smoke_test.py

Runs every workload of BENCHMARK.json with --size smoke, untraced twice and
traced once, and checks that each run passes its output check, emits every
end-to-end (untraced) or per-layer (traced) metric, and reproduces the same
decision digest. Then checks that the runner fails without a result in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure. Takes about a minute once built.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def check(cond, message):
    if not cond:
        print(f"smoke_test: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, seed=5):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    check(done.returncode == 0,
          f"{workload} trace={trace} exited {done.returncode}:\n"
          f"{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    check(len(lines) >= 2, f"{workload}: expected detail and result lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace in (0, 0, 1):
            detail, result = run(name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{name}: output check")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name}: attempted/failed")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check([m["name"] for m in wanted] == list(result["metrics"]),
                  f"{name} trace={trace}: metric names")
            for m in wanted:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      f"{name}: metric {m['name']} = {got}")
            for m in spec["end_to_end"] if not trace else []:
                check(result["metrics"][m["name"]]["value"] > 0,
                      f"{name}: end-to-end metric {m['name']} is not positive")
            digests.append(detail["run"]["day_digests"])
        # A traced run replays the first half of the days.
        check(all(d == digests[0][:len(d)] for d in digests),
              f"{name}: day digests differ {digests}")
        print(f"smoke_test: {name} ok (day digests {digests[0]})")

    # Without the program's sources the runner must fail and print nothing.
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    done = subprocess.run(
        [sys.executable] + spec["command"][1:] +
        ["--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          "runner succeeded without the program's sources")
    print("smoke_test: bare checkout fails as expected")
    print("smoke_test: all checks passed")


if __name__ == "__main__":
    main()
