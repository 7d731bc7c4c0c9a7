"""Steadiness summary: run the benchmark on several seeds and summarise.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --out results.jsonl
    python3 perfbench/steady.py --summarize results.jsonl [second.jsonl]

The first form runs ``perfbench/run.py`` once per seed and workload, one
run at a time, appends every result line to ``--out`` and prints the
summary.  The second only summarises saved results; given two files, it
also compares each metric's median in the second set with the first.

For each workload and end-to-end metric the summary gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``.  A spread is steady when it is below a third of the
bound; ``setup_s`` is judged only by its median.  The summary also gives
``setup_first_s``, the set-up time of the first of a run's set-ups alone,
to show what the median over repeated set-ups buys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Figures that ``run.py`` prints beside the metrics and the summary shows.
FIGURES = ("setup_first_s",)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = completed.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    figures = {}
    for line in lines[1:-1]:
        name, value = line.split()[:2]
        if name in FIGURES:
            figures[name] = float(value)
    return {"workload": workload, "seed": seed, "trace": trace,
            "figures": figures, **outcome}


def summarize(records: list[dict], spec: dict) -> dict:
    """Median, quartiles and spread per (workload, metric)."""
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    rows = {}
    for record in records:
        if record["trace"] or not record["correct"]:
            continue
        values = {name: metric["value"]
                  for name, metric in record["metrics"].items()}
        values.update(record.get("figures", {}))
        for name, value in values.items():
            rows.setdefault((record["workload"], name), []).append(value)
    summary = {}
    for (workload, name), values in sorted(rows.items()):
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        summary[(workload, name)] = {
            "runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "bound": bounds.get(name),
        }
    return summary


def print_summary(summary: dict, previous: dict | None = None) -> bool:
    """Print the table; returns whether every metric is steady."""
    steady = True
    header = (f"{'workload':<14} {'metric':<14} {'runs':>4} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    if previous is not None:
        header += "   median vs first set"
    print(header)
    for (workload, name), row in summary.items():
        bound = row["bound"]
        if bound is None:
            verdict, bound = "figure", "-"
        elif name == "setup_s":
            verdict = "median only"
        elif row["spread"] < bound / 3:
            verdict = "steady"
        elif row["spread"] <= bound:
            verdict = "within bound"
            steady = False
        else:
            verdict = "TOO NOISY"
            steady = False
        line = (f"{workload:<14} {name:<14} {row['runs']:>4} "
                f"{row['median']:>12.5g} {row['q1']:>12.5g} {row['q3']:>12.5g} "
                f"{row['spread']:>7.3f} {bound:>6}  {verdict}")
        if (previous is not None and (workload, name) in previous
                and row["bound"] is not None):
            before = previous[(workload, name)]["median"]
            change = row["median"] / before - 1
            line += f"   {change:+.3f}"
            if abs(change) > bound:
                line += " OUTSIDE BOUND"
                steady = False
        print(line)
    return steady


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path, nargs="+")
    args = parser.parse_args(argv)

    if args.summarize:
        first = summarize(read_records(args.summarize[0]), spec)
        if len(args.summarize) == 1:
            return 0 if print_summary(first) else 1
        second = summarize(read_records(args.summarize[1]), spec)
        return 0 if print_summary(second, first) else 1

    records = []
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            record = run_once(workload, seed, args.seconds, 0)
            records.append(record)
            if args.out is not None:
                with args.out.open("a") as sink:
                    sink.write(json.dumps(record) + "\n")
            if not record["correct"]:
                print(f"{workload} seed {seed}: {record['failed']} of "
                      f"{record['attempted']} operations failed")
    return 0 if print_summary(summarize(records, spec)) else 1


if __name__ == "__main__":
    sys.exit(main())
