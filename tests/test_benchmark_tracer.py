"""perfbench's tracer binds holoflow names at install time; a deleted one breaks every traced run."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_the_benchmark_tracer_installs_and_counts_a_lookup():
    # -B: no bytecode lands under perfbench/
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run([sys.executable, "-B", "-c", TRACED_LOOKUP],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "1"]
