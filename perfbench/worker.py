"""One round of a workload in a fresh process: set up, run every check, report.

    python3 perfbench/worker.py WORKLOAD SEED ROUND MODE SPAWNED

MODE is "plain" (no tracing), "traced" (per-layer tracing on) or "jobs2"
(the parallel-sweep sanity check).  SPAWNED is the parent's
time.monotonic() just before it started this process; both read the same
system-wide clock, so setup_s covers interpreter start, `import holoflow`
and input generation.  Prints one JSON object on stdout.  run.py starts
this; record_reference.py reuses its functions.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # measure the checkout's source, never an installed copy

import workloads  # noqa: E402  (this directory is on sys.path when run as a script)
from tracer import Tracer, install, rebind  # noqa: E402


def load_program():
    """Import the CLI and the states layer from ROOT/src."""
    import holoflow
    from holoflow import cli, states

    expected = ROOT / "src" / "holoflow"
    if Path(holoflow.__file__).resolve().parent != expected:
        raise SystemExit(f"imported holoflow from {holoflow.__file__}, not from {expected}")
    return cli, states


class SiteCounter:
    """Counts the reports every sweep returns, per condition, for the correctness gate."""

    def __init__(self):
        self.sites = Counter()
        self.violations = 0

    def install(self) -> None:
        from holoflow import verify

        for fn in (verify.gauge_sweep, verify.compat_sweep, verify.welldefined_property):
            rebind(fn, self._counting(fn))

    def _counting(self, fn):
        def counted(*args, **kwargs):
            reports = fn(*args, **kwargs)
            self.sites.update(r.condition for r in reports)
            self.violations += sum(1 for r in reports if not r.passed)
            return reports
        return counted


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_check(check: workloads.Check, program, runner, counter: SiteCounter,
              tracer: Tracer | None = None) -> dict:
    """Run one check; return its exit code, per-condition sites, violations and output digest."""
    cli, states = program
    counter.sites.clear()
    counter.violations = 0
    if check.kind == "sphere":
        try:
            report = states.verify_sphere([Fraction(a) for a in check.argv], workloads.SPHERE_DEGREE)
        except Exception as exc:  # an exception is a failed check, not a crashed run
            return {"error": repr(exc)}
        text = json.dumps(report.to_json(), sort_keys=True).encode()
        return {"exit": 0 if report.all_equal else 1, "sites": {"monomials": len(report.items)},
                "violations": len(report.mismatches), "digest": _digest(text)}

    with tracer.span("cli") if tracer else nullcontext():
        result = runner.invoke(cli.main, list(check.argv))
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return {"error": repr(result.exception)}
    sites = dict(counter.sites)
    if check.argv[0] == "covariance":
        signs = [line for line in result.stdout.splitlines()
                 if line.startswith("leading principal minor signs: ")]
        sites = {"minors": len(signs[0].split(":", 1)[1].split(","))} if signs else {}
    return {"exit": result.exit_code, "sites": sites, "violations": counter.violations,
            "digest": _digest(result.stdout_bytes)}


def speed_probe() -> float:
    """Seconds for a fixed pure-Python task of exact-rational and dict work, like holoflow's."""
    t0 = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 1500):
        total += Fraction(i % 17 - 8, i % 11 + 1)
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def jobs2_round(program, runner) -> dict:
    """The same verify-compat at --jobs 1 and --jobs 2 must print identical bytes."""
    cli, _ = program
    timings, outputs, problems = [], [], []
    for jobs in ("1", "2"):
        t0 = time.perf_counter()
        result = runner.invoke(cli.main, [*workloads.JOBS_ARGV, "--jobs", jobs])
        timings.append(time.perf_counter() - t0)
        outputs.append(result.stdout_bytes)
        if result.exit_code != 0:
            problems.append(f"jobs2: --jobs {jobs} exited {result.exit_code}")
    if outputs[0] != outputs[1]:
        problems.append("jobs2: --jobs 2 printed different bytes than --jobs 1")
    return {"checks": 1, "failed": int(bool(problems)), "problems": problems,
            "speedup": timings[0] / timings[1]}


def main(argv: list[str]) -> int:
    workload, seed, round_index, mode, spawned = argv[1:6]
    program = load_program()
    from click.testing import CliRunner

    runner = CliRunner()
    if mode == "jobs2":
        print(json.dumps(jobs2_round(program, runner)))
        return 0

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
    counter = SiteCounter()
    counter.install()
    checks = workloads.make_round(workload, int(seed), int(round_index))
    setup_s = time.monotonic() - float(spawned)

    # A speed probe before the first check and after each one lets run.py
    # rescale every check's time by the CPU speed around it.
    probes, check_s, outcomes = [speed_probe()], [], []
    for check in checks:
        t0 = time.perf_counter()
        outcomes.append(run_check(check, program, runner, counter, tracer))
        check_s.append(time.perf_counter() - t0)
        probes.append(speed_probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = load_reference()
    found = [workloads.problems(check, outcome, reference.get(check.key))
             for check, outcome in zip(checks, outcomes)]
    result = {
        "setup_s": setup_s,
        "verdict_s": sum(check_s),
        "check_s": check_s,
        "probes": probes,
        "rss_mb": rss_mb,
        "checks": len(checks),
        "failed": sum(1 for p in found if p),
        "sites": dict(sum((Counter(o.get("sites", {})) for o in outcomes), Counter())),
        "problems": [p for check_problems in found for p in check_problems],
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
