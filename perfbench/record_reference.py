"""Record perfbench/reference.json: what each reference input reports at this commit.

    python3 perfbench/record_reference.py

reference.json maps a check's input (kind plus argument list) to its exit
code, per-condition site counts, violation count and output digest.  A
check whose input is listed must reproduce all four exactly; any other
check is held to the seed-independent invariants in workloads.problems.
Recorded inputs:

* every lattice-sweep clean check and the covariance check (they do not
  depend on the seed);
* the fault sweep for every fault acceptance criterion 9 can draw, so every
  seed's fault sweep is compared exactly;
* the sphere-identity and welldefined checks of rounds 0..REFERENCE_ROUNDS-1
  of seed 0, the default seed.

Run it only at a commit whose outputs are known to be right; a later change
that alters any recorded output is caught by the benchmark as failed checks.
"""

from __future__ import annotations

import itertools
import json

import worker
import workloads

DEFAULT_SEED = 0
REFERENCE_ROUNDS = 64


def reference_checks() -> list[workloads.Check]:
    checks = [*workloads.LATTICE_CLEAN, workloads.COVARIANCE]
    faults = [("a0", None, delta) for delta in (-2, -1, 1, 2)]
    faults += [(kind, index, delta) for kind in ("alpha", "beta")
               for index in itertools.product(range(3), repeat=3) for delta in (-2, -1, 1, 2)]
    checks += [workloads.fault_check(workloads.fault_spec(*fault)) for fault in faults]
    for workload in ("sphere-identity", "quotient-algebra"):
        for round_index in range(REFERENCE_ROUNDS):
            checks += workloads.make_round(workload, DEFAULT_SEED, round_index)
    return list({c.key: c for c in checks}.values())


def main() -> None:
    from click.testing import CliRunner

    program = worker.load_program()
    counter = worker.SiteCounter()
    counter.install()
    runner = CliRunner()
    reference = {}
    for check in reference_checks():
        outcome = worker.run_check(check, program, runner, counter)
        found = workloads.problems(check, outcome, None)
        if found:
            raise SystemExit("refusing to record a failing check: " + "; ".join(found))
        reference[check.key] = outcome
    path = worker.HERE / "reference.json"
    lines = (f"{json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
             for key in sorted(reference))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(reference)} reference outcomes in {path}")


if __name__ == "__main__":
    main()
