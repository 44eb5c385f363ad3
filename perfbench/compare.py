"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py --out`` appended.  Refuses (exit 2) when
any two records carry different machine fingerprints, because numbers from
different machines or backends are not comparable.  Otherwise prints, per
workload and end-to-end metric, each side's median and quartiles and the
change, and exits 1 if a median got worse by more than the metric's bound
in BENCHMARK.json, if a NEW run failed its output checks, or if NEW lacks
a workload and trace setting that BASE has.  Per-layer records
(``--trace 1``) are compared the same way, without a bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) > 1:
        print("refusing to compare: fingerprints differ:\n  " + "\n  ".join(sorted(prints)),
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    for workload in sorted({r["workload"] for r in base}):
        for trace in (0, 1):
            b_all, n_all = ([r["result"] for r in side if r["workload"] == workload
                             and r["trace"] == trace] for side in (base, new))
            if not b_all:
                continue
            if not n_all:
                print(f"{workload} (trace {trace}): no new runs: MISSING")
                regressions += 1
                continue
            b_runs, n_runs = ([r for r in runs if r["correct"]] for runs in (b_all, n_all))
            for side, runs, good in (("base", b_all, b_runs), ("new", n_all, n_runs)):
                if len(good) < len(runs):
                    print(f"{workload} (trace {trace}): {len(runs) - len(good)} of "
                          f"{len(runs)} {side} runs failed their output checks"
                          + (": FAILED" if side == "new" else ""))
            if len(n_runs) < len(n_all):
                regressions += 1
            if not b_runs or not n_runs:
                continue
            print(f"{workload} (trace {trace}): {len(b_runs)} base runs, {len(n_runs)} new runs")
            for name in b_runs[0]["metrics"]:
                meta = metrics[name]
                b = quartiles([r["metrics"][name]["value"] for r in b_runs])
                n = quartiles([r["metrics"][name]["value"] for r in n_runs])
                change = (n[1] - b[1]) / b[1] if b[1] else 0.0
                worse = change if meta["better"] == "lower" else -change
                verdict = ""
                if "bound" in meta:
                    spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
                    if worse > meta["bound"]:
                        verdict = "WORSE"
                        regressions += 1
                    elif spread > meta["bound"]:
                        verdict = "unresolved"
                    else:
                        verdict = f"within {meta['bound']:g}"
                elif b[1] == n[1] == 0:
                    continue
                print(f"  {name:<40} base {b[1]:<12.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                      f"new {n[1]:<12.6g} [{n[0]:.6g}, {n[2]:.6g}]  "
                      f"{change:+8.2%} {meta['unit']:<8} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
