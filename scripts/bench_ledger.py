#!/usr/bin/env python3
"""Add one row to the end-to-end benchmark ledger, BENCH_e2e.json.

    benchmark/run.sh --repeat 3
    benchmark/run.sh --traced
    python3 scripts/bench_ledger.py benchmark/results/<sha>-seed42 \\
        benchmark/results/<sha>-seed42-traced

A set is a path prefix naming <prefix>-<k>.json, as for `run.sh compare`;
`run.sh --smoke` files share that naming and are skipped. From the
untraced set the row keeps, per (workload, metric), the median and
quartiles over its runs, computed as `run.sh compare` computes them
(Python's statistics.quantiles, n=4). From the traced set it keeps, per
(workload, metric), the median over its runs. A row for the same sha and
seed is replaced; rows stay in the order they were first added.
"""

import glob
import json
import os
import statistics
import sys

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_e2e.json")
COMMAND = (
    "benchmark/run.sh --repeat 3 && benchmark/run.sh --traced && "
    "python3 scripts/bench_ledger.py benchmark/results/<sha>-seed<N> "
    "benchmark/results/<sha>-seed<N>-traced"
)


def load_set(prefix):
    paths = sorted(glob.glob(glob.escape(prefix) + "-*.json"))
    runs = [json.load(open(p)) for p in paths if p[len(prefix) + 1 : -5].isdigit()]
    runs = [r for r in runs if not r["smoke"]]
    if not runs:
        sys.exit(f"bench_ledger: no runs named {prefix}-<k>.json")
    return runs


def per_metric(runs):
    """{workload: {metric: ([values], unit)}} over a set's runs."""
    out = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for name, m in result["metrics"].items():
                values, _ = out.setdefault(workload, {}).setdefault(name, ([], m["unit"]))
                values.append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    untraced, traced = load_set(argv[0]), load_set(argv[1])
    head = untraced[0]
    row = {
        "sha": head["sha"],
        "nproc": head["nproc"],
        "seed": head["seed"],
        "rustc": head["rustc"],
        "runs": len(untraced),
        "traced_runs": len(traced),
        "end_to_end": {
            w: {m: dict(summary(v), unit=u) for m, (v, u) in metrics.items()}
            for w, metrics in per_metric(untraced).items()
        },
        "per_layer": {
            w: {m: statistics.median(v) for m, (v, _) in metrics.items()}
            for w, metrics in per_metric(traced).items()
        },
    }
    ledger = {"command": COMMAND, "rows": []}
    if os.path.exists(LEDGER):
        ledger = json.load(open(LEDGER))
    key = (row["sha"], row["seed"])
    rows = ledger["rows"]
    at = next((i for i, r in enumerate(rows) if (r["sha"], r["seed"]) == key), None)
    if at is None:
        rows.append(row)
    else:
        rows[at] = row
    with open(LEDGER, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print(f"bench_ledger: {'added' if at is None else 'replaced'} {row['sha']} seed {row['seed']}")


if __name__ == "__main__":
    main(sys.argv[1:])
