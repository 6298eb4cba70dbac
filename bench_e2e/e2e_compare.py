#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, workload by workload.

Usage:
    python3 bench_e2e/e2e_compare.py BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]

Each set is a JSON-lines file as written by `bench_e2e --out=FILE` (or
`run.py --out FILE`): one object per run with "workload", "seed" and
"result" (the benchmark's result line). Untraced runs only are compared.

For every workload x end-to-end metric it prints each side's median and
quartiles, the fraction of pairs the new side wins (runs paired by seed,
ties count for neither), and a verdict:

  gain          new wins >= 9/10 of the pairs and the medians differ by
                more than the base's own quartile distance, in the
                metric's better direction;
  regressed     new median worse than base by more than the bound, with a
                base spread within the bound;
  unresolved    the base's spread (quartile distance / median) exceeds the
                bound, and not every new run beats every base run; or, for
                a time metric (unit s, ms or 1/s), the host drifted by more
                than the bound between the two sets (see below);
  within-bound  otherwise.

Host drift: every record carries host_ref_ms, the median time a fixed
memory-bound loop took before each rep. On a shared host it rises when
neighbours take memory bandwidth, and the product's times rise with it.
Each workload's header gives both sides' median of it; where they differ
by more than a time metric's bound, that metric's difference is the host's
as much as the change's, so it reads unresolved.

Exits 1 when any pairing regressed, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

TIME_UNITS = {"s", "ms", "1/s"}


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base, new, metric, host_drift):
    name, lower = metric["name"], metric["better"] == "lower"
    value = lambda run: run["result"]["metrics"][name]["value"]
    b = [value(r) for r in base]
    n = [value(r) for r in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)

    new_by_seed = {r["seed"]: value(r) for r in new}
    pairs = [(value(r), new_by_seed[r["seed"]]) for r in base
             if r["seed"] in new_by_seed]
    if not pairs:  # different seeds: pair by run order
        pairs = list(zip(b, n))
    better = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
    wins = sum(1 for x, y in pairs if better(x, y))
    win_frac = wins / len(pairs) if pairs else 0.0

    spread = (bq3 - bq1) / bmed if bmed else float("inf")
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse = change if lower else -change
    all_better = all(better(x, y) for x in b for y in n)
    if metric["unit"] in TIME_UNITS and abs(host_drift) > metric["bound"]:
        verdict = "unresolved"
    elif win_frac >= 0.9 and abs(nmed - bmed) > (bq3 - bq1) and worse < 0:
        verdict = "gain"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "regressed"
    else:
        verdict = "within-bound"
    return [name, f"{bmed:.6g}", f"[{bq1:.6g}, {bq3:.6g}]", f"{nmed:.6g}",
            f"[{nq1:.6g}, {nq3:.6g}]", f"{100 * change:+.1f}%",
            f"{wins}/{len(pairs)}", f"{metric['bound']:.2f}",
            f"{spread:.3f}", verdict]


def main():
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=str(here.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    base, new = load(args.base), load(args.new)
    header = ["metric", "base median", "base q1..q3", "new median",
              "new q1..q3", "change", "new wins", "bound", "base spread",
              "verdict"]
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"\n{workload}: missing from "
                  f"{'base' if workload not in base else 'new'} set")
            continue
        refs = [[r["host_ref_ms"] for r in side[workload] if "host_ref_ms" in r]
                for side in (base, new)]
        host, host_drift = "", 0.0
        if all(refs):
            b, n = (statistics.median(v) for v in refs)
            host_drift = (n - b) / b
            host = f"; host reference loop {b:.1f} -> {n:.1f} ms ({100 * host_drift:+.0f}%)"
        rows = [header] + [compare(base[workload], new[workload], m, host_drift)
                           for m in spec["end_to_end"]]
        regressed |= any(r[-1] == "regressed" for r in rows[1:])
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        print(f"\n{workload} ({len(base[workload])} base runs, "
              f"{len(new[workload])} new runs{host})")
        for r in rows:
            print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
