#!/usr/bin/env python3
"""Build and run the cloudlens end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload cold-resident --seed 42 \
        --seconds 16 --trace 0 [--out results.jsonl]

Configures and builds bench_e2e (Release) into .bench_build/ on first use,
and runs `bench_e2e --smoke` once per built binary (the fixed-input output
checks, including bench_population's scale-0.3 checksum). Then runs the
workload in a scratch directory under .bench_build/ (TMPDIR points there
too, so shard spills stay inside the checkout), checks that the result
names exactly the metrics BENCHMARK.json declares, and relays it as the
last line of stdout. Build and progress output go to stderr. Exits
non-zero without printing a result when the build, the smoke check, the
run or a check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
SMOKE_TIMEOUT_S = 300


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "bench_e2e"


def smoke_once(binary, work, env):
    """Runs `bench_e2e --smoke` unless it already passed for this binary."""
    stamp = binary.with_name("smoke.passed")
    built = str(binary.stat().st_mtime_ns)
    if stamp.exists() and stamp.read_text() == built:
        return
    try:
        proc = subprocess.run([str(binary), "--smoke",
                               f"--work-dir={work / 'smoke'}"],
                              cwd=work, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=SMOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"smoke check: no result within {SMOKE_TIMEOUT_S} s")
    if proc.returncode:
        fail(f"smoke check failed (bench_e2e --smoke exited with "
             f"{proc.returncode})")
    stamp.write_text(built)


def check_result(line, workload, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys are {sorted(result)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[n for n in want if n in got and got[n] != want[n]]}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: outputs failed their checks")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the tagged result to this "
                        "JSON-lines file (e2e_compare.py input)")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    work = build_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={work / 'run'}",
           f"--trace-dir={BENCH_DIR / 'out'}"]
    if args.trace:
        cmd.append("--trace")
    if args.out:
        cmd.append(f"--out={Path(args.out).resolve()}")
    try:
        smoke_once(binary, work, env)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), file=sys.stderr)
    if proc.returncode:
        fail(f"{args.workload}: bench_e2e exited with {proc.returncode}")
    check_result(lines[-1], args.workload, args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
