"""The holoflow benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 40 --trace 0

Closed loop with one caller: rounds run back to back, each in a fresh
worker process (perfbench/worker.py) that imports holoflow from ./src, runs
the round's checks at --jobs 1 in-process and exits, the way a user runs a
batch and waits for the verdict.  A fresh process per round also means a
memo inside holoflow starts empty every round, as it does for a user.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
each round twice, untraced and then traced, plus one parallel-sweep check,
and prints the per-layer metrics.  The last line of stdout is one JSON
object; the lines before it give every metric by name and unit, and the
run's provenance.  A copy with the samples and the spans of the first
traced round goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_ROUNDS = 3
COUNTED_ROUNDS = 3  # per-layer counts cover traced rounds 0..2, which replay exactly for a seed
# On a host whose cores are shared, CPU speed drifts by up to 1.6x over
# seconds to minutes, which moves a median of raw wall times by more than any
# bound worth having.  Each worker times a fixed pure-Python probe before its
# first check and after every check, and a time is multiplied by
# PROBE_REFERENCE_S / (probe time around it).  That cancels the drift and keeps
# the unit: seconds on a machine where the probe takes 5 ms.
PROBE_REFERENCE_S = 0.005
WORKER_TIMEOUT_S = 120


def spawn(workload: str, seed: int, round_index: int, mode: str) -> dict:
    """Run one worker process to completion and return its report."""
    started = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_index),
               mode, repr(started)]
    checks = 1 if mode == "jobs2" else workloads.CHECKS_PER_ROUND[workload]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        why = f"timed out after {WORKER_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = f"exited {proc.returncode}: " + (proc.stderr.strip().splitlines() or ["no output"])[-1]
    # every check of a round whose worker died counts as failed
    return {"crashed": True, "checks": checks, "failed": checks,
            "problems": [f"{mode} round {round_index} {why}"]}


def median(values):
    return statistics.median(values) if values else 0.0


def speed_factor(record: dict) -> float:
    """One rescaling factor for a whole round, for times that are not split by check."""
    return PROBE_REFERENCE_S / statistics.median(record["probes"])


def rescaled_verdict(record: dict) -> float:
    """The round's check times, each rescaled by the mean of the probes on either side."""
    p = record["probes"]
    return sum(t * 2 * PROBE_REFERENCE_S / (before + after)
               for t, before, after in zip(record["check_s"], p, p[1:]))


def rescaled_setup(record: dict) -> float:
    return record["setup_s"] * PROBE_REFERENCE_S / record["probes"][0]


def end_to_end(workload: str, plain: list[dict]) -> dict:
    verdicts = [rescaled_verdict(r) for r in plain]
    items = workloads.ITEMS_PER_ROUND[workload]
    return {
        "setup_s": (median([rescaled_setup(r) for r in plain]), "s"),
        "verdict_s": (median(verdicts), "s"),
        "verdict_p75_s": (statistics.quantiles(verdicts, n=4)[2] if len(verdicts) > 1
                          else verdicts[0], "s"),
        "checks_per_s": (median([items / v for v in verdicts]), "1/s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in plain]), "MB"),
    }


def wall_clock(plain: list[dict]) -> dict:
    """Raw medians, printed beside the rescaled metrics and kept in the results file."""
    return {
        "setup_wall_s": (median([r["setup_s"] for r in plain]), "s"),
        "verdict_wall_s": (median([r["verdict_s"] for r in plain]), "s"),
    }


CALL_COUNTS = {
    "cells.boundary.calls": "cells.boundary",
    "cells.children.calls": "cells.children",
    "cells.cells_near.calls": "cells.cells_near",
    "operators.coeff_b.calls": "operators.coeff_b",
    "operators.apply_operator.calls": "operators.apply_operator",
    "operators.explicit_coeff_b.calls": "operators.explicit_coeff_b",
    "poly.reduce.calls": "poly.reduce",
    "poly.mul.calls": "poly.mul",
    "poly.derive.calls": "poly.derive",
    "poly.substitute.calls": "poly.substitute",
    "states.exp_state.calls": "states.exp_state",
    "states.ym_covariance.calls": "states.ym_covariance",
    "states.isserlis_moment.calls": "states.isserlis_moment",
}
SITE_COUNTS = ("verify.gauge.sites", "verify.compat.sites", "verify.welldefined.sites")
SWEEPS = ("verify.gauge", "verify.compat", "verify.welldefined")
SELF_TIMES = {
    "cells.self_s": ("cells.boundary", "cells.children", "cells.cells_near"),
    "operators.coeff_b.self_s": ("operators.coeff_b",),
    "operators.apply_operator.self_s": ("operators.apply_operator",),
    "verify.sweep.self_s": SWEEPS,
    "poly.reduce.self_s": ("poly.reduce",),
    "poly.mul.self_s": ("poly.mul",),
    "poly.derive.self_s": ("poly.derive",),
    "states.exp_state.self_s": ("states.exp_state",),
    # the pairing pipeline: ym_moment with the covariance inversions and pairing sums it calls
    "states.ym_moment.self_s": ("states.ym_moment", "states.ym_covariance",
                                "states.isserlis_moment"),
    "states.covariance_window.self_s": ("states.covariance_window",),
    "states.psd_probe.self_s": ("states.psd_probe",),
    "cli.self_s": ("cli",),
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: list[dict], traced: list[dict], jobs: dict) -> dict:
    """Counts and ratios over the first COUNTED_ROUNDS traced rounds; times as per-round medians."""
    calls, counts, distinct = Counter(), Counter(), Counter()
    for r in traced[:COUNTED_ROUNDS]:
        calls.update(r["trace"]["calls"])
        counts.update(r["trace"]["counts"])
        distinct.update(r["trace"]["distinct"])
    metrics = {name: (calls[key], "count") for name, key in CALL_COUNTS.items()}
    metrics.update({name: (counts[name], "count") for name in SITE_COUNTS})
    for key in ("operators.coeff_b", "states.ym_covariance"):
        metrics[f"{key}.repeat_ratio"] = (
            1 - _share(distinct[key], calls[key]) if calls[key] else 0.0, "ratio")
    metrics["poly.reduce.noop_ratio"] = (_share(counts["poly.reduce.noop"], calls["poly.reduce"]),
                                         "ratio")

    for name, keys in SELF_TIMES.items():
        metrics[name] = (median([speed_factor(r) * sum(r["trace"]["self_s"].get(k, 0.0)
                                                       for k in keys) for r in traced]), "s")
    metrics["operators.coeff_b.us_per_call"] = (median([
        1e6 * speed_factor(r) * _share(r["trace"]["self_s"].get("operators.coeff_b", 0.0),
                                       r["trace"]["calls"].get("operators.coeff_b", 0))
        for r in traced]), "us")
    metrics["verify.sites_per_s"] = (median([
        _share(sum(r["trace"]["counts"].get(s, 0) for s in SITE_COUNTS),
               speed_factor(r) * sum(r["trace"]["total_s"].get(k, 0.0) for k in SWEEPS))
        for r in traced]), "1/s")
    metrics["trace.overhead_ratio"] = (
        median([rescaled_verdict(r) for r in traced])
        / median([rescaled_verdict(r) for r in plain]) - 1, "ratio")
    metrics["verify.jobs2_speedup"] = (jobs.get("speedup", 0.0), "ratio")
    return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(workload: str, args, rounds: int) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "items_per_round": workloads.ITEMS_PER_ROUND[workload],
        "checks_per_round": workloads.CHECKS_PER_ROUND[workload],
        "probe_reference_s": PROBE_REFERENCE_S,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads.WORKLOADS), "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, args) -> dict:
    """Run rounds of one workload until args.seconds have passed; summarise them."""
    deadline = time.monotonic() + args.seconds
    plain, traced = [], []
    round_index = 0
    while round_index < MIN_ROUNDS or time.monotonic() < deadline:
        plain.append(spawn(workload, args.seed, round_index, "plain"))
        if args.trace:
            traced.append(spawn(workload, args.seed, round_index, "traced"))
        round_index += 1
    jobs = spawn(workload, args.seed, 0, "jobs2") if args.trace else {}

    records = plain + traced + ([jobs] if jobs else [])
    summary = {
        "workload": workload,
        "problems": [p for r in records for p in r["problems"]],
        "attempted": sum(r["checks"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    plain = [r for r in plain if "crashed" not in r]
    traced = [r for r in traced if "crashed" not in r]
    if not plain or (args.trace and not traced):
        return summary
    summary["e2e"] = end_to_end(workload, plain)
    summary["metrics"] = per_layer(plain, traced, jobs) if args.trace else summary["e2e"]
    summary["sites"] = plain[0]["sites"]
    summary["wall"] = wall_clock(plain)
    summary["provenance"] = provenance(workload, args, len(plain))
    summary["samples"] = {"verdict_s": [r["verdict_s"] for r in plain],
                          "setup_s": [r["setup_s"] for r in plain],
                          "check_s": [r["check_s"] for r in plain],
                          "probes_s": [r["probes"] for r in plain],
                          "traced_verdict_s": [r["verdict_s"] for r in traced]}
    summary["spans"] = traced[0]["trace"]["spans"] if traced else []
    return summary


def report(summary: dict, args) -> None:
    """Print a workload's metrics by name and unit; keep them with every sample in results/."""
    failed_ratio = _share(summary["failed"], summary["attempted"])
    print("provenance:", json.dumps(summary["provenance"], sort_keys=True))
    for name, (value, unit) in {**summary["e2e"], **summary["wall"]}.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<34} {failed_ratio:>14.6g} "
          f"({summary['failed']} of {summary['attempted']} checks)")
    print("sites checked in round 0:",
          ", ".join(f"{k}={v}" for k, v in sorted(summary["sites"].items())))
    if args.trace:
        for name, (value, unit) in sorted(summary["metrics"].items()):
            print(f"{name:<34} {value:>14.6g} {unit}")
    for p in summary["problems"][:20]:
        print("FAILED:", p)

    record = {key: summary[key] for key in ("provenance", "problems", "sites", "samples", "spans")}
    record["failed_ratio"] = failed_ratio
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in
                         {**summary["e2e"], **summary["wall"], **summary["metrics"]}.items()}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{summary['workload']}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "holoflow" / "__init__.py").is_file():
        print(f"no holoflow source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [measure(name, args) for name in names]
    crashed = [s for s in summaries if "metrics" not in s]
    if crashed:
        for s in crashed:
            print(f"{s['workload']}: every round crashed:", *s["problems"][:5], sep="\n  ",
                  file=sys.stderr)
        return 1
    for s in summaries:
        report(s, args)
    prefix = len(names) > 1
    metrics = {(f"{s['workload']}:{k}" if prefix else k): {"value": v, "unit": u}
               for s in summaries for k, (v, u) in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
