#!/usr/bin/env python3
"""Repository benchmark: builds the replay runner from source and runs one
workload.

    python3 replaybench/run.py --workload paper-peak --seed 1 --seconds 30 --trace 0

Run from the repository root. The runner and the program's libraries are
built with CMake (Release) into $CARGO_TARGET_DIR/replaybench, or
.bench_build/replaybench when that variable is unset. The last line of
standard output is the result object {correct, attempted, failed, metrics};
the line before it carries provenance and the decision digest. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Any failed output check, a decision digest
that differs from an earlier run of the same workload and seed, or a
missing metric exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Seeds: DEFAULT_SEED for everyday runs; HELDOUT_SEED is kept out of tuning
# and used only to confirm a claimed gain on inputs it was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 20201

FIRST_RUN_BUDGET_S = 880  # a run that also builds
RUN_BUDGET_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "replaybench"


def build(out_dir):
    """Configures (once) and builds the runner. Returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "replay",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out_dir / "replay"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_sha256():
    """Hash of the program sources and the runner, for checkouts that are
    not git trees."""
    h = hashlib.sha256()
    files = list((ROOT / "src").rglob("*")) + [BENCH_DIR / "replay.cc"]
    for path in sorted(files):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(out_dir, prefix, day_digests):
    """Decisions are bit-identical per (workload, seed): every run in this
    build tree must reproduce, day by day, the digests of the first."""
    path = out_dir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for day, digest in enumerate(day_digests):
        key = f"{prefix}/day{day}"
        if known.setdefault(key, digest) != digest:
            fail(f"decision digest {digest} for {key} differs from the "
                 f"earlier run's {known[key]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke = tiny inputs, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("the program's sources (src/) are not in this checkout")
    start = time.monotonic()
    out_dir = build_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    fresh = not (out_dir / "replay").exists()
    binary = build(out_dir)
    budget = FIRST_RUN_BUDGET_S if fresh else RUN_BUDGET_S

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--size={args.size}"]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd.append(f"--trace-out={traces}/{args.size}-{args.workload}-"
                   f"seed{args.seed}.json")
    # The runner forks a process per replayed day: give it a process group
    # of its own, so that a timeout stops all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, budget - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        fail("replay runner timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"replay runner failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])

    source = source_sha256()
    check_digests(out_dir,
                  f"{source[:16]}/{args.size}/{args.workload}/seed{args.seed}",
                  result["day_digests"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            fail(f"runner did not report metric {m['name']}")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}

    provenance = {
        "git_sha": git_sha(),
        "src_sha256": source,
        "build_type": result["build_type"],
        "compiler": result["compiler"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
    }
    detail = {k: v for k, v in result.items() if k != "metrics"}
    print(json.dumps({"provenance": provenance, "run": detail}))
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
