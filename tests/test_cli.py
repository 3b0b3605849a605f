"""CLI surface: commands, formats, exit codes, determinism."""

import csv
import io
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from holoflow.cells import Cell, box_cells
from holoflow.cli import main
from holoflow.operators import CubicalFamilyOp, ExplicitOp


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def explicit_window_spec(perturb=None):
    """A finite table mirroring the main d=3 family on a small box."""
    fam = CubicalFamilyOp.main(3)
    plaquettes = list(box_cells(0, (-1, -1, -1), (3, 3, 3), dim=2))
    a = {p: fam.coeff_a(p) for p in plaquettes}
    b = {}
    for i, p in enumerate(plaquettes):
        for q in plaquettes[i:]:
            v = fam.coeff_b(p, q)
            if v:
                b[(p, q)] = v
    op = ExplicitOp(a, b)
    if perturb:
        op = op.with_entry(*perturb)
    return json.dumps(op.to_json())


# -- verify-invariance ---------------------------------------------------------


def test_invariance_clean_run(runner):
    result = invoke(runner, "verify-invariance", "--d", "3", "--window", "2")
    assert result.exit_code == 0
    assert "0 violations" in result.output


def test_invariance_alt_family(runner):
    result = invoke(runner, "verify-invariance", "--op", "alt3", "--window", "2")
    assert result.exit_code == 0
    assert "0 violations" in result.output


def test_invariance_json_deterministic(runner):
    args = ("verify-invariance", "--d", "3", "--window", "2", "--scales", "-1,0",
            "--format", "json")
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["summary"]["violations"] == 0
    assert payload["summary"]["sites"] > 0
    assert payload["violations"] == []


def test_invariance_parallel_output_identical(runner):
    base = invoke(runner, "verify-invariance", "--window", "2", "--format", "json")
    jobs2 = invoke(runner, "verify-invariance", "--window", "2", "--format", "json",
                   "--jobs", "2")
    via_env = invoke(runner, "verify-invariance", "--window", "2", "--format", "json",
                     env={"HOLOFLOW_JOBS": "2"})
    assert base.output == jobs2.output == via_env.output


def test_invariance_detects_explicit_fault(runner, tmp_path):
    spec = explicit_window_spec(perturb=(Cell(0, (1, 1, 0)), Cell(0, (0, 1, 1)), Fraction(3)))
    path = tmp_path / "broken.json"
    path.write_text(spec)
    result = runner.invoke(main, ["verify-invariance", "--op", str(path), "--window", "1"])
    assert result.exit_code == 1
    assert "FAIL gauge" in result.output
    assert "[1,1,1]@0" in result.output

    clean = tmp_path / "clean.json"
    clean.write_text(explicit_window_spec())
    ok = invoke(runner, "verify-invariance", "--op", str(clean), "--window", "1")
    assert ok.exit_code == 0


@pytest.mark.parametrize("override", ['[[0,0],"alpha",1]', '[[-1,0,0],"beta",5]'])
def test_invariance_rejects_unread_override(runner, override):
    spec = '{"variant":"cubical","overrides":[%s]}' % override
    result = runner.invoke(main, ["verify-invariance", "--op", spec, "--window", "1"])
    assert result.exit_code == 2
    assert "never read" in result.output


def test_invariance_without_complete_cells_is_not_a_pass(runner, tmp_path):
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(ExplicitOp(a={Cell(0, (1, 1, 0)): 12}, b={}).to_json()))
    result = runner.invoke(main, ["verify-invariance", "--op", str(path), "--window", "1"])
    assert result.exit_code == 2
    assert "no sites" in result.output


FAULT_SPEC = json.dumps(CubicalFamilyOp.main(3).perturbed("alpha", (0, 0, 1), 1).to_json())


@pytest.mark.parametrize("args, status", [
    (("verify-compat", "--d", "4", "--window", "2"), 0),
    (("verify-invariance", "--op", FAULT_SPEC, "--window", "2"), 1),
])
def test_jobs_do_not_change_output(runner, args, status):
    serial = runner.invoke(main, [*args, "--jobs", "1"])
    parallel = runner.invoke(main, [*args, "--jobs", "2"])
    assert serial.exit_code == parallel.exit_code == status
    assert serial.stdout_bytes == parallel.stdout_bytes


def test_invariance_usage_errors(runner):
    assert runner.invoke(main, ["verify-invariance", "--op", "{bad json"]).exit_code == 2
    assert runner.invoke(main, ["verify-invariance", "--op", "mystery"]).exit_code == 2
    assert runner.invoke(main, ["verify-invariance", "--scales", "a,b"]).exit_code == 2
    assert runner.invoke(
        main, ["verify-invariance", "--op", "sphere", "--areas", "1/2,1/2"]
    ).exit_code == 2


# -- verify-compat ---------------------------------------------------------------


def test_compat_clean_run(runner):
    result = invoke(runner, "verify-compat", "--d", "3", "--window", "2",
                    "--scales", "-1,0")
    assert result.exit_code == 0
    assert "0 violations" in result.output
    assert "= -8" in result.output  # the printed cross-scale interaction sum


def test_compat_alt_family(runner):
    result = invoke(runner, "verify-compat", "--op", "alt3", "--window", "2")
    assert result.exit_code == 0


def test_compat_rejects_explicit_tables(runner, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(explicit_window_spec())
    assert runner.invoke(main, ["verify-compat", "--op", str(path)]).exit_code == 2


# -- sphere-check ------------------------------------------------------------------


def test_sphere_check_happy_path(runner):
    result = invoke(runner, "sphere-check", "--areas", "1/2,1/4,1/4", "--max-degree", "4")
    assert result.exit_code == 0
    assert "0 mismatches" in result.output
    assert "x1^2:" in result.output


def test_sphere_check_json(runner):
    result = invoke(runner, "sphere-check", "--areas", "1/3,1/3,1/3",
                    "--max-degree", "2", "--format", "json")
    payload = json.loads(result.output)
    assert payload["all_equal"] is True
    squares = [i for i in payload["items"] if i["monomial"] == "x1^2"]
    assert squares and squares[0]["exp_state"] == {"1": "4/9"}


def test_sphere_check_rejects_bad_areas(runner):
    assert runner.invoke(main, ["sphere-check", "--areas", "1/2,1/4"]).exit_code == 2
    assert runner.invoke(main, ["sphere-check", "--areas", "x"]).exit_code == 2
    assert runner.invoke(
        main, ["sphere-check", "--areas", "1/2,1/2", "--max-degree", "1"]
    ).exit_code == 2


# -- tables ---------------------------------------------------------------------------


def test_tables_alt3(runner):
    result = invoke(runner, "tables", "--op", "alt3", "--range", "3")
    assert result.exit_code == 0
    assert "a([1,1,0]@0) = 1" in result.output
    assert "b([1,1,0]@0, [1,1,2]@0) = -1" in result.output


def test_tables_csv(runner):
    result = invoke(runner, "tables", "--d", "3", "--range", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["p", "q", "value"]
    assert ["[1,1,0]@0", "[0,1,1]@0", "2"] in rows


# -- moments ----------------------------------------------------------------------------


def test_moments_sphere_pipelines_agree(runner):
    result = invoke(runner, "moments", "--op", "sphere", "--areas", "1/2,1/4,1/4",
                    "--poly", "x1^2*x2^2", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["equal"] is True
    assert payload["exp_state"] == payload["ym_moment"] == {"2": "5/16"}


def test_moments_lattice(runner):
    result = invoke(runner, "moments", "--poly", "x[1,1,0]@0*x[0,1,1]@0",
                    "--format", "json")
    payload = json.loads(result.output)
    assert payload["moment"] == {"1": "-4"}


def test_moments_rejects_bad_poly(runner):
    assert runner.invoke(main, ["moments", "--poly", "x0+"]).exit_code == 2
    assert runner.invoke(
        main, ["moments", "--op", "sphere", "--areas", "1/2,1/2", "--poly", "x2"]
    ).exit_code == 2  # x2 is outside the euclidean universe x1


# -- covariance ----------------------------------------------------------------------


def test_covariance_csv_is_symmetric_with_reference_diagonal(runner):
    result = invoke(runner, "covariance", "--d", "3", "--window", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["row", "col", "value"]
    assert ["[1,1,0]@0", "[1,1,0]@0", "20"] in rows
    entries = {(r, c): v for r, c, v in rows[1:]}
    assert all(entries[(r, c)] == entries[(c, r)] for r, c in entries)


def test_covariance_psd_probe(runner):
    result = invoke(runner, "covariance", "--d", "3", "--window", "1", "--psd")
    assert result.exit_code == 0
    assert "leading principal minor signs:" in result.output


def test_covariance_psd_needs_text_or_json(runner):
    assert runner.invoke(
        main, ["covariance", "--window", "1", "--psd", "--format", "csv"]
    ).exit_code == 2


def test_covariance_decimal_column(runner):
    result = invoke(runner, "covariance", "--window", "1", "--format", "csv",
                    "--decimal", "2")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["row", "col", "value", "decimal"]
    assert ["[1,1,0]@0", "[1,1,0]@0", "20", "20.00"] in rows


# -- welldefined --------------------------------------------------------------------


def test_welldefined_sphere(runner):
    result = invoke(runner, "welldefined", "--op", "sphere", "--areas", "1/2,1/4,1/4",
                    "--trials", "5")
    assert result.exit_code == 0
    assert "0 violations" in result.output


def test_welldefined_lattice(runner):
    result = invoke(runner, "welldefined", "--d", "3", "--trials", "3")
    assert result.exit_code == 0


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_welldefined_needs_a_trial(runner, trials):
    result = runner.invoke(main, ["welldefined", "--d", "3", "--trials", trials])
    assert result.exit_code == 2
    assert "checked 0 sites" not in result.output


def test_welldefined_detects_fault(runner, tmp_path):
    spec = explicit_window_spec(perturb=(Cell(0, (1, 1, 0)), Cell(0, (0, 1, 1)), Fraction(3)))
    path = tmp_path / "broken.json"
    path.write_text(spec)
    result = runner.invoke(main, ["welldefined", "--op", str(path), "--trials", "5"])
    assert result.exit_code == 1


# -- output plumbing -------------------------------------------------------------------


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    direct = invoke(runner, "verify-invariance", "--window", "1", "--format", "json")
    to_file = invoke(runner, "verify-invariance", "--window", "1", "--format", "json",
                     "--out", str(target))
    assert to_file.output == ""
    assert target.read_text() == direct.output
