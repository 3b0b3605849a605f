"""perfbench's tracer binds holoflow names at install time; a deleted one breaks every traced run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# install() rebinds cells.boundary, cells.children, cells.cells_near, Polynomial.derive,
# LinearIdeal.reduce and others; a coeff_b lookup's post hook reads Cell.plane
TRACED_LOOKUP = """
from tracer import Tracer, install
from holoflow.cells import Cell
from holoflow.operators import CubicalFamilyOp

tracer = Tracer()
install(tracer)
CubicalFamilyOp.main(3).coeff_b(Cell(0, (1, 1, 0)), Cell(0, (1, 1, 2)))
print(tracer.calls["operators.coeff_b"], len(tracer.keys["operators.coeff_b"]))
"""

# the benchmark's site counter wraps the sweeps by identity wherever holoflow binds them, so the
# CLI must call the names it imports for its checks to count any site
COUNTED_SWEEPS = """
import json
import sys
from collections import Counter

from click.testing import CliRunner
from tracer import rebind
from holoflow import cli, verify

sites = Counter()


def counting(fn):
    def counted(*args, **kwargs):
        reports = fn(*args, **kwargs)
        sites.update(r.condition for r in reports)
        return reports
    return counted


for fn in (verify.gauge_sweep, verify.compat_sweep):
    rebind(fn, counting(fn))
result = CliRunner().invoke(cli.main, sys.argv[1:])
print(json.dumps({"exit": result.exit_code, "sites": sites}))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    # -B: no bytecode lands under perfbench/
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run([sys.executable, "-B", "-c", *args],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result


def test_the_benchmark_tracer_installs_and_counts_a_lookup():
    assert _run(TRACED_LOOKUP).stdout.split() == ["1", "1"]


@pytest.mark.parametrize("argv, sites", [
    (("verify-invariance", "--d", "4", "--scales", "-1,0,1", "--window", "1"), {"gauge": 2880}),
    (("verify-compat", "--d", "4", "--window", "1"), {"compat_a": 6, "compat_b": 198}),
], ids=["gauge", "compat"])
def test_the_benchmark_counts_every_site_the_cli_sweeps(argv, sites):
    assert json.loads(_run(COUNTED_SWEEPS, *argv).stdout) == {"exit": 0, "sites": sites}
