"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the `<workload>-seed<n>-trace<t>.json` files that
bench/run.py writes into bench/results/. For every workload and metric this
prints each side's median with its quartiles and the relative change of the
medians. An end-to-end metric whose median got worse by more than its bound
in BENCHMARK.json is marked REGRESSION; one whose own spread on the base side
exceeds the bound is marked unresolved.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(directory: str) -> dict:
    values = defaultdict(list)  # (workload, metric) -> values over runs
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for metric, entry in result["metrics"].items():
            values[(result["workload"], metric)].append(entry["value"])
        values[(result["workload"], "failed/attempted")].append(
            result["failed"] / result["attempted"])
    return values


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    base, new = _load(argv[0]), _load(argv[1])
    for key in sorted(base.keys() & new.keys()):
        workload, metric = key
        (bq1, bmed, bq3), (nq1, nmed, nq3) = _summary(base[key]), _summary(new[key])
        change = (nmed - bmed) / bmed if bmed else 0.0
        verdict = ""
        if metric in bounds:
            bound, direction = bounds[metric]
            worse = change if direction == "lower" else -change
            if bmed and (bq3 - bq1) / bmed > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
        elif metric in better and change:
            verdict = "better" if (change < 0) == (better[metric] == "lower") else "worse"
        print(f"{workload:14s} {metric:30s} {bmed:12.5g} [{bq1:.5g}, {bq3:.5g}] -> "
              f"{nmed:12.5g} [{nq1:.5g}, {nq3:.5g}] {100 * change:+7.1f}% {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
