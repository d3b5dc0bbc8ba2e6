"""easyqg benchmark: cold-process jobs, checked against independent answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory.
Each round runs the workload's whole job list once, one fresh process per
job.  A run repeats whole rounds while another one still fits into
``--seconds`` (always at least one) and reports per-round medians, so a
run measures a whole number of rounds of the same jobs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced and one traced and prints the per-layer metrics of the traced
round, plus the tracing overhead; each traced job's spans go to stderr as
one JSON line.  Either kind prints the metrics ``BENCHMARK.json`` lists for
it, with the units given there.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; stderr gets the
SHA-256 of each job's stdout in the first round, so runs can be compared.
Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

import runner
import workloads


def run_round(jobs, trace: bool) -> list[runner.Result]:
    return [runner.run_job(job, trace) for job in jobs]


def round_metrics(results: list[runner.Result]) -> dict[str, float]:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results if r.peak_rss_mb is not None),
    }


def layer_metrics(results: list[runner.Result]) -> dict[str, float]:
    """Sum the tracer's per-layer values over the jobs of a round."""
    totals: dict[str, float] = {}
    for r in results:
        if r.trace is not None:
            for name, value in r.trace["metrics"].items():
                totals[name] = totals.get(name, 0) + value
    totals["cli.stdout_bytes"] = sum(len(r.stdout) for r in results)
    return totals


def declared_units(trace: bool) -> dict[str, str]:
    """The metrics that BENCHMARK.json lists for this kind of run, with their units."""
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(runner.ROOT, "src", "easyqg", "cli.py")):
        print(f"error: no easyqg sources under {runner.ROOT}/src", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))

    jobs = workloads.build(args.workload, args.seed)
    runner.warm_up()
    rounds: list[list[runner.Result]] = []
    started = time.monotonic()
    if args.trace:
        rounds = [run_round(jobs, False), run_round(jobs, True)]
    else:
        while True:
            rounds.append(run_round(jobs, False))
            elapsed = time.monotonic() - started
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break

    results = [r for rnd in rounds for r in rnd]
    correct = True
    for r in results:
        if r.failed and not r.known_fault:
            correct = False
            print(f"FAIL {r.job.name}: {r.problem}", file=sys.stderr)
    for r in rounds[0]:
        if r.known_fault:
            print(f"known fault {r.job.name}: {r.job.fault.note}", file=sys.stderr)
    # every round must print the same bytes for the same job; the digests let
    # runs of the same seed be compared with each other too
    for rnd in rounds[1:]:
        for first, again in zip(rounds[0], rnd):
            if first.stdout != again.stdout:
                correct = False
                print(f"FAIL {again.job.name}: stdout differs between rounds", file=sys.stderr)
    print(json.dumps({"stdout_sha256": {r.job.name: hashlib.sha256(r.stdout).hexdigest()
                                        for r in rounds[0]}}, sort_keys=True), file=sys.stderr)

    if args.trace:
        untraced, traced = (round_metrics(rnd)["wall_s"] for rnd in rounds)
        values = layer_metrics(rounds[1])
        values["trace.wall_s"] = traced
        values["trace.overhead_pct"] = 100 * (traced / untraced - 1)
        for r in rounds[1]:
            if r.trace is not None:
                print(json.dumps({"job": r.job.name, "trace_id": r.trace["trace_id"],
                                  "spans": r.trace["spans"]}), file=sys.stderr)
    else:
        per_round = [round_metrics(rnd) for rnd in rounds]
        values = {m: statistics.median(pr[m] for pr in per_round) for m in per_round[0]}
        values["setup_s"] = statistics.median(r.setup_s for r in results if r.setup_s is not None)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both measured "
              "and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
