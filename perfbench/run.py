"""End-to-end benchmark of the Safe Browsing reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload population --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``population``, ``navigate-http`` and
``ingest``.  A run sets the workload up three times, each from nothing
after the previous one is torn down, keeps the last set-up and checks
every verdict against the planted ground truth:

* ``--trace 0`` runs short rounds for ``--seconds`` seconds with tracing
  and metrics off, and reports the end-to-end metrics of the quietest
  tenth of the rounds (see :func:`quiet_rounds`);
* ``--trace 1`` runs a fixed number of rounds untraced, then the same number
  traced, and reports the per-layer split of the traced rounds.  The counts
  depend only on the seed, so they repeat exactly.

Human-readable figures go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Scratch space for the SQLite file-size probe (removed after use).
WORK_DIR = ROOT / ".bench_work"
#: Set-ups per run; ``setup_s`` is import plus their median.
SETUP_REPEATS = 3
#: Share of the timed rounds the end-to-end metrics are taken from.
QUIET_SHARE = 0.1


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the lower rank on ties)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def pin_to_one_cpu() -> None:
    """Run on one CPU: the client thread and a co-hosted service thread then
    hand over on one core instead of waking each other across CPUs, whose
    latency on a shared virtual machine swings from run to run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("population", "navigate-http", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        flip_first: bool = False, import_seconds: float = 0.0) -> dict:
    """Set up, run and check one workload; returns the result object."""
    from workloads import WORKLOADS, Tally

    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            # Tear the previous set-up down completely, so that only one is
            # ever alive and peak RSS is that of a single set-up.
            workload.close()
            del workload
            gc.collect()
        workload = WORKLOADS[workload_name](seed, flip_first=flip_first)
        setups.append(workload.build())
    try:
        workload.prepare()
        gc.collect()
        if trace:
            return traced_run(workload, setups, import_seconds)
        tally = Tally()
        index = 0
        while tally.wall < seconds:
            workload.run_round(index, tally)
            index += 1
        return end_to_end(tally, setups, import_seconds)
    finally:
        workload.close()


def quiet_rounds(rounds: list) -> list:
    """The tenth of the rounds that ran fastest per verdict.

    Other tenants of a shared host slow this process by up to half, in
    bursts of milliseconds that come thicker in stretches of seconds to
    minutes.  A round is one client joining, one batch published or a few
    dozen navigations: tens of milliseconds of work whose make-up is fixed
    (each workload sets how many of a round's verdicts need a full-hash
    exchange), so its fastest ones are those the other tenants disturbed
    least, and a change to the program moves those as much as any.  Rounds
    without verdicts (navigate-http's poll rounds) are ranked apart, by
    their wall time, and the same share of them is kept.
    """
    quiet = []
    for kind in (True, False):
        ranked = sorted(
            (round_ for round_ in rounds if bool(round_.verdicts) is kind),
            key=lambda round_: round_.wall / max(round_.verdicts, 1))
        quiet += ranked[:max(1, round(len(ranked) * QUIET_SHARE))]
    return quiet


def pooled(rounds: list, samples: str) -> list[float]:
    return [value for round_ in rounds for value in getattr(round_, samples)]


def end_to_end(tally, setups, import_seconds: float) -> dict:
    setup_s = import_seconds + statistics.median(s.total for s in setups)
    quiet = quiet_rounds(tally.rounds)
    quiet_wall = sum(round_.wall for round_ in quiet)
    checks, syncs = pooled(quiet, "checks"), pooled(quiet, "syncs")
    metrics = {
        "setup_s": (setup_s, "s"),
        "urls_per_s": (sum(round_.verdicts for round_ in quiet) / quiet_wall,
                       "1/s"),
        "check_p50_ms": (percentile(checks, 0.5) * 1e3, "ms"),
        "check_p90_ms": (percentile(checks, 0.9) * 1e3, "ms"),
        "sync_p50_ms": (percentile(syncs, 0.5) * 1e3, "ms"),
        "sync_p90_ms": (percentile(syncs, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    every_check = pooled(tally.rounds, "checks")
    every_sync = pooled(tally.rounds, "syncs")
    figures = {
        "setup_first_s": import_seconds + setups[0].total,
        "rounds": len(tally.rounds),
        "quiet_rounds": len(quiet),
        "quiet_checks": len(checks),
        "quiet_syncs": len(syncs),
        "timed_s": tally.wall,
        "checks": len(every_check),
        "syncs": len(every_sync),
        "urls_per_s_all_rounds": tally.verdicts / tally.wall,
        "check_p50_ms_all_rounds": percentile(every_check, 0.5) * 1e3,
        "check_p99_ms_all_rounds": percentile(every_check, 0.99) * 1e3,
        "sync_p99_ms_all_rounds": percentile(every_sync, 0.99) * 1e3,
        "roundtrip_share": tally.roundtrips / tally.verdicts,
    }
    publishes = pooled(quiet, "publishes")
    if publishes:
        # Ingest only: the time before a new entry reaches every client.
        figures.update({
            "publish_p50_ms": percentile(publishes, 0.5) * 1e3,
            "publish_p90_ms": percentile(publishes, 0.9) * 1e3,
            "entries_per_s": sum(round_.entries for round_ in quiet)
            / quiet_wall,
        })
    return result(tally, metrics, figures)


def traced_run(workload, setups, import_seconds: float) -> dict:
    from layers import targets
    from spans import LayerTotals, SpanRecorder, patched
    from workloads import Tally

    rounds = workload.trace_rounds
    untraced = Tally()
    for index in range(rounds):
        workload.run_round(index, untraced)
    recorder = SpanRecorder()
    traced = Tally()
    bytes_before = workload.wire_bytes()
    with patched(targets(recorder)):
        for index in range(rounds, 2 * rounds):
            workload.run_round(index, traced)
    wire_bytes = workload.wire_bytes() - bytes_before
    totals = recorder.totals()
    empty = LayerTotals(0, 0, 0.0, 0.0)

    def layer(name: str) -> LayerTotals:
        return totals.get(name, empty)

    transport_s = (layer("transport.full_hash").seconds
                   + layer("transport.update").seconds)
    # Over HTTP, a send's wall time is the codec on both ends, the server's
    # work and the network service; the remainder is the service.
    overhead_s = (transport_s - layer("wireformat").seconds
                  - layer("server.process_full_hash").seconds
                  - layer("server.process_update").seconds
                  if transport_s else 0.0)
    file_bytes = workload.file_bytes_per_prefix(WORK_DIR)
    if WORK_DIR.is_dir():
        WORK_DIR.rmdir()
    seconds = {
        "setup.import_s": import_seconds,
        "corpus.build_s": statistics.median(s.corpus for s in setups),
        "server.provision_s": statistics.median(s.provision for s in setups),
        "setup.start_s": statistics.median(s.start for s in setups),
        "urls.canonicalize.s": layer("urls.canonicalize").self_seconds,
        "urls.decompose.s": layer("urls.decompose").self_seconds,
        "hashing.digests.s": layer("hashing.digests").self_seconds,
        "datastructures.update.s": layer("datastructures.update").self_seconds,
        "datastructures.probe.s": layer("datastructures.probe").self_seconds,
        "client.check.self_s": layer("client.check").self_seconds,
        "client.update.self_s": layer("client.update").self_seconds,
        "transport.full_hash.s": layer("transport.full_hash").seconds,
        "transport.update.s": layer("transport.update").seconds,
        "wireformat.s": layer("wireformat").self_seconds,
        "netservice.overhead_s": overhead_s,
        "server.process_full_hash.s":
            layer("server.process_full_hash").self_seconds,
        "server.process_update.s": layer("server.process_update").self_seconds,
        "storage.flush.s": layer("storage.flush").self_seconds,
        "ingest.step.s": layer("ingest.step").self_seconds,
        "trace.unattributed_s": traced.wall - recorder.root_seconds(
            threading.main_thread().ident),
    }
    counts = {
        "urls.canonicalize.calls": layer("urls.canonicalize").calls,
        "hashing.digests.expressions": layer("hashing.digests").count,
        "datastructures.update.prefixes": layer("datastructures.update").count,
        "datastructures.probe.prefixes": layer("datastructures.probe").count,
        "transport.full_hash.calls": layer("transport.full_hash").calls,
        "transport.bytes": wire_bytes,
        "server.process_full_hash.prefixes":
            layer("server.process_full_hash").count,
        "server.process_update.prefixes_sent":
            layer("server.process_update").count,
        "storage.flush.calls": layer("storage.flush").calls,
        "storage.flush.ops": layer("storage.flush").count,
        "ingest.step.mutations": layer("ingest.step").count,
    }
    ratios = {
        "client.plan_reuse_ratio":
            1 - layer("urls.canonicalize").calls / traced.verdicts,
        "client.update.share": layer("client.update").seconds / traced.wall,
        "exchange.roundtrip_share": traced.roundtrips / traced.verdicts,
        "trace.overhead_ratio": traced.wall / untraced.wall,
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update((name, (value, "count")) for name, value in counts.items())
    metrics.update((name, (value, "ratio")) for name, value in ratios.items())
    metrics["storage.file_bytes_per_prefix"] = (file_bytes, "B/prefix")
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    figures = {"rounds": 2 * rounds, "untraced_s": untraced.wall,
               "traced_s": traced.wall, "spans": len(recorder.spans)}
    return result(untraced, metrics, figures)


def result(tally, metrics: dict, figures: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "figures": figures,
    }


def main(argv: list[str] | None = None) -> int:
    pin_to_one_cpu()
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401 - imports the program: the first set-up step

    import_seconds = perf_counter() - PROCESS_START
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  import_seconds=import_seconds)
    figures = outcome.pop("figures")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in figures.items():
        print(f"  {name:<34} {value}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
