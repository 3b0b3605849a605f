"""The benchmark's workloads: seeded inputs, the checks they run, and what each must report.

A workload is a batch of exact checks that one process runs back to back,
the way a user runs holoflow and waits for the verdict.  Round r of a run
with seed s draws its inputs from Random(f"{workload}:{s}:{r}"), so rounds
differ from each other (a run's median averages over many inputs rather
than one draw) and the same seed always replays the same rounds.

This module imports nothing from holoflow at import time: the parent
process of a run loads it for the names and sizes, and stays small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SPHERE_DEGREE = 6
WELLDEFINED_TRIALS = 10
FAULT_WINDOW = 5  # the smallest window at which every in-range d=3 fault is detected
FAULT_SITES = 3600


@dataclass(frozen=True)
class Check:
    """One check: a CLI argument list (kind "cli") or an area vector (kind "sphere")."""

    label: str
    kind: str
    argv: tuple
    expect_exit: int
    expect_sites: dict = field(default_factory=dict)  # condition -> exact count, every one > 0
    fault: bool = False  # must report at least one violation

    @property
    def key(self) -> str:
        """The input, as reference.json keys it."""
        return self.kind + " " + " ".join(self.argv)

    @property
    def items(self) -> int:
        return sum(self.expect_sites.values())


def _cli(label, *argv, sites, exit_code=0, fault=False) -> Check:
    return Check(label, "cli", tuple(argv), exit_code, sites, fault)


def draw_fault(rng: random.Random) -> tuple:
    """A single-entry table fault, drawn as acceptance criterion 9 draws it."""
    kind = rng.choice(("alpha", "beta", "beta", "a0"))
    index = None if kind == "a0" else (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
    delta = rng.choice((-2, -1, 1, 2))
    return kind, index, delta


def fault_spec(kind: str, index, delta: int) -> str:
    """The --op JSON of the d=3 cubical family with one table entry shifted by delta."""
    from holoflow.operators import CubicalFamilyOp

    broken = CubicalFamilyOp.main(3).perturbed(kind, index, delta)
    return json.dumps(broken.to_json(), sort_keys=True)


def fault_check(spec: str) -> Check:
    return _cli("fault-d3", "verify-invariance", "--op", spec, "--scales", "0",
                "--window", str(FAULT_WINDOW), "--jobs", "1",
                sites={"gauge": FAULT_SITES}, exit_code=1, fault=True)


LATTICE_CLEAN = (
    _cli("gauge-d4", "verify-invariance", "--d", "4", "--scales", "-1,0,1", "--window", "1",
         "--jobs", "1", sites={"gauge": 2880}),
    _cli("gauge-alt3", "verify-invariance", "--op", "alt3", "--scales", "-1,0,1", "--window", "1",
         "--jobs", "1", sites={"gauge": 144}),
    _cli("compat-d4", "verify-compat", "--d", "4", "--scales", "0", "--window", "1", "--jobs", "1",
         sites={"compat_a": 6, "compat_b": 198}),
    _cli("compat-d3", "verify-compat", "--d", "3", "--scales", "-1,0", "--window", "2", "--jobs", "1",
         sites={"compat_a": 6, "compat_b": 306}),
)

COVARIANCE = _cli("covariance-psd", "covariance", "--d", "3", "--window", "2", "--psd",
                  sites={"minors": 36})

# The parallel-sweep sanity check of a traced run: this argument list at
# --jobs 1 and at --jobs 2 must print the same bytes.
JOBS_ARGV = ("verify-compat", "--d", "4", "--scales", "0", "--window", "2")

SPHERE_MONOMIALS = {3: 28, 4: 84, 5: 210}  # monomials of degree <= 6 in n - 1 variables


def _lattice_sweep(rng: random.Random) -> list[Check]:
    return [*LATTICE_CLEAN, fault_check(fault_spec(*draw_fault(rng)))]


def _sphere_identity(rng: random.Random) -> list[Check]:
    checks = []
    for n in (3, 4, 5):
        weights = [rng.randint(1, 20) for _ in range(n)]  # as acceptance criterion 5
        total = sum(weights)
        areas = tuple(f"{w}/{total}" for w in weights)
        checks.append(Check(f"sphere-n{n}", "sphere", areas, 0, {"monomials": SPHERE_MONOMIALS[n]}))
    return checks


def _quotient_algebra(rng: random.Random) -> list[Check]:
    checks = []
    for op in ("cubical", "alt3"):
        checks.append(_cli(f"welldefined-{op}", "welldefined", "--op", op, "--window", "1",
                           "--trials", str(WELLDEFINED_TRIALS), "--seed", str(rng.randrange(2**31)),
                           sites={"welldefined": WELLDEFINED_TRIALS * 8}))
    checks.append(COVARIANCE)
    return checks


WORKLOADS = {
    "lattice-sweep": _lattice_sweep,
    "sphere-identity": _sphere_identity,
    "quotient-algebra": _quotient_algebra,
}

# Fixed per workload, whatever the seed: residual sites, compared monomials,
# welldefined probes and principal minors in one round.
ITEMS_PER_ROUND = {
    "lattice-sweep": sum(c.items for c in LATTICE_CLEAN) + FAULT_SITES,
    "sphere-identity": sum(SPHERE_MONOMIALS.values()),
    "quotient-algebra": 2 * WELLDEFINED_TRIALS * 8 + COVARIANCE.items,
}
CHECKS_PER_ROUND = {"lattice-sweep": len(LATTICE_CLEAN) + 1,
                    "sphere-identity": len(SPHERE_MONOMIALS),
                    "quotient-algebra": 3}


def make_round(workload: str, seed: int, round_index: int) -> list[Check]:
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return WORKLOADS[workload](rng)


def problems(check: Check, outcome: dict, reference: dict | None) -> list[str]:
    """Every way the outcome differs from what the check must report; empty when it passed.

    A condition that checked zero sites fails, because every expected count
    is positive and counts must match exactly.
    """
    if outcome.get("error"):
        return [f"{check.label}: {outcome['error']}"]
    found = []
    if outcome["exit"] != check.expect_exit:
        found.append(f"{check.label}: exit {outcome['exit']}, expected {check.expect_exit}")
    if outcome["sites"] != check.expect_sites:
        found.append(f"{check.label}: sites {outcome['sites']}, expected {check.expect_sites}")
    if check.fault and not outcome["violations"]:
        found.append(f"{check.label}: the injected fault was not detected")
    if not check.fault and outcome["violations"]:
        found.append(f"{check.label}: {outcome['violations']} violations in a clean check")
    if reference is not None:
        for name in ("exit", "sites", "violations", "digest"):
            if outcome[name] != reference[name]:
                found.append(f"{check.label}: {name} differs from the recorded reference")
    return found
