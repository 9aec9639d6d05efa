"""Benchmark of powertree's counting pipeline.

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the library is imported from its
`src/` directory. A run repeats rounds of the workload's operations until
`--seconds` have passed (at least one round). Each round runs in a fresh
process with one thread, one round at a time, as each `powertree` invocation
does, and checks its results against oracles that do not use the library.
The last line of standard output is one JSON object: end-to-end metrics
with `--trace 0`, per-layer metrics from spans around the library's
functions with `--trace 1`. `--workload all` runs every workload both ways
and prints a table. See README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_group_s": "s", "peak_rss_mib": "MiB"}


def _import_powertree():
    """powertree from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import powertree
    if Path(powertree.__file__).resolve().parent != SRC / "powertree":
        raise SystemExit(f"error: imported powertree from {powertree.__file__}, not {SRC}")
    return powertree


def _child(args, flag: str) -> str:
    """Run this script as a child in mode `flag`; return its last line of output."""
    done = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--trace", str(args.trace), flag],
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {flag} child failed (exit {done.returncode})")
    return lines[-1]


def setup_probe(args) -> None:
    """Import powertree, make the workload's inputs and report this process's CPU time."""
    WORKLOADS[args.workload](_import_powertree(), args.seed)
    print("ready", time.process_time(), flush=True)


def measure_setup(args) -> float:
    """Median CPU time a fresh interpreter spends until the workload is ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        word, _, seconds = _child(args, "--setup-probe").partition(" ")
        if word != "ready":
            raise SystemExit("error: set-up probe did not get ready")
        samples.append(float(seconds))
    return statistics.median(samples)


def cpu_seconds() -> float:
    """CPU time of this process's threads and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def one_round(args) -> None:
    """One pass over the workload's operations in this process, then its checks.

    Operations are timed one by one on the process CPU clock. The peak
    memory is read before the checks, so their matrices do not count.
    """
    pt = _import_powertree()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(pt)
    workload = WORKLOADS[args.workload](pt, args.seed)
    times, failures = [], []
    slowest = 0.0
    clock_start = time.perf_counter()
    for op in workload.ops():
        start = cpu_seconds()
        try:
            result = op.call()
        except Exception as exc:  # counted, reported, and the round goes on
            times.append(cpu_seconds() - start)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        elapsed = cpu_seconds() - start
        times.append(elapsed)
        if op.group:
            slowest = max(slowest, elapsed)
        workload.record(op, result)
    clock_s = time.perf_counter() - clock_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "wall_s": sum(times), "slowest_group_s": slowest, "peak_rss_mib": peak_rss_mib,
        "clock_s": clock_s, "attempted": len(times), "failures": failures,
        "problems": workload.check(),
        "layers": tracer.layer_metrics() if tracer else None,
    }))


def run_workload(args) -> dict:
    if not (SRC / "powertree" / "__init__.py").is_file():
        raise SystemExit(f"error: no powertree sources under {SRC}")
    setup_s = None if args.trace else measure_setup(args)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(json.loads(_child(args, "--round")))

    def median(metric):
        return statistics.median(r[metric] for r in rounds)

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in rounds[0]["layers"]}
        layers["trace.wall_s"] = median("wall_s")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in layers.items()}
    else:
        values = {"setup_s": setup_s, "wall_s": median("wall_s"),
                  "slowest_group_s": median("slowest_group_s"),
                  "peak_rss_mib": median("peak_rss_mib")}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failures = [f for r in rounds for f in r["failures"]]
    problems = sorted({p for r in rounds for p in r["problems"]})
    for line in failures + problems:
        print(line, file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": len(failures),
              "metrics": metrics}
    _save(args, result, rounds)
    return result


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_useful") else "count"


def _save(args, result, rounds) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  python=sys.version.split()[0], rounds=rounds)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def run_all(args) -> dict:
    """Every workload untraced and traced."""
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            table[(name, trace)] = run_workload(argparse.Namespace(
                workload=name, seed=args.seed, seconds=args.seconds, trace=trace))
    for name in WORKLOADS:
        plain, traced = table[(name, 0)], table[(name, 1)]
        print(f"== {name}: correct {plain['correct'] and traced['correct']}, "
              f"attempted {plain['attempted']}, failed {plain['failed']}")
        for metric, entry in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    / plain["metrics"]["wall_s"]["value"] - 1)
        print(f"  {'tracing overhead':32s} {100 * overhead:14.1f} %")
    return {f"{name}/trace{trace}": result for (name, trace), result in table.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args)
    elif args.round:
        one_round(args)
    else:
        result = run_all(args) if args.workload == "all" else run_workload(args)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
