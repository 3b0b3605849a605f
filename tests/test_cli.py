"""CLI surface: commands, formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import click
import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from holoflow.cells import Cell, boundary, box_cells
from holoflow import cli, operators
from holoflow.cli import main
from holoflow.operators import CubicalFamilyOp, ExplicitOp
from holoflow import states
from holoflow.states import MAX_DEGREE
from holoflow.verify import (MAX_SWEEP_SITES, MAX_WELLDEFINED_PROBES, ResidualReport,
                             base_plaquettes, default_cubes, sweep_sites)


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


# the six faces of one scale-0 cube, with no interactions: every gauge site fails
CUBE_FACES_OP = json.dumps(ExplicitOp({p: 12 for p in boundary(Cell(0, (1, 1, 1)))},
                                      {}).to_json())


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
    assert base.output == jobs2.output


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


REPEATED_OVERRIDE_OP = '{"variant":"cubical","overrides":[[[0,0,0],"alpha",1],[[0,0,0],"alpha",3]]}'
INDEXED_A0_OP = '{"variant":"cubical","overrides":[[[1,2,3],"a0",5]]}'


CONFLICTING_B_OP = ('{"variant":"explicit","a":{"1":"1","2":"1"},'
                    '"b":[["1","2","1"],["2","1","2"]]}')


@pytest.mark.parametrize("spec, reason", [
    (REPEATED_OVERRIDE_OP, "given twice"),
    (INDEXED_A0_OP, "a0 override index"),
    (CONFLICTING_B_OP, "conflicting symmetric b-entries for (1, 2)"),
    ('{"variant":"cubical","overrides":[[[0,0,1],"gamma",1]]}', "bad table override key"),
    ('{"variant":"nope"}', "unknown operator variant 'nope'"),
])
def test_ambiguous_overrides_are_usage_errors(runner, spec, reason):
    # the last of two values would win silently, an a0 index would be dropped, and b(1, 2)
    # would be whichever entry came last; an unknown kind or variant is not guessed at
    result = runner.invoke(main, ["verify-invariance", "--op", spec, "--window", "1"])
    assert_usage_error(result)
    assert reason in result.output


def test_invariance_without_complete_cells_is_not_a_pass(runner, tmp_path):
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(ExplicitOp(a={Cell(0, (1, 1, 0)): 12}, b={}).to_json()))
    result = runner.invoke(main, ["verify-invariance", "--op", str(path), "--window", "1"])
    assert result.exit_code == 2
    assert "no sites" in result.output


@pytest.mark.parametrize("args, reason", [
    (("welldefined", "--op", '{"variant":"explicit","a":{"[1,1,0]@0":"12"}}', "--trials", "1"),
     "no 3-cells with all faces inside the operator universe"),
    (("tables", "--op", '{"variant":"explicit","a":{"1":"1","2":"1"}}'),
     "explicit operator has no lattice variables to dump"),
], ids=["welldefined-no-3-cell", "tables-no-cell"])
def test_an_explicit_operator_with_nothing_to_check_is_a_usage_error(runner, args, reason):
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert result.output.splitlines()[-1] == f"Error: {reason}"


def test_explicit_operator_at_several_scales_is_a_usage_error(runner, tmp_path):
    # an explicit universe is finite: each further scale would sweep the same sites again
    path = tmp_path / "clean.json"
    path.write_text(explicit_window_spec())
    result = runner.invoke(main, ["verify-invariance", "--op", str(path), "--window", "1",
                                  "--scales", "0,5,7"])
    assert_usage_error(result)
    assert "sweep one scale" in result.output


def test_explicit_operator_at_another_scale_is_a_usage_error(runner):
    # the universe sits at scale 0, so sweeping "scale 5" would sweep scale 0 and mislabel it
    args = ["verify-invariance", "--op", CUBE_FACES_OP, "--window", "1", "--format", "json"]
    result = runner.invoke(main, [*args, "--scales", "5"])
    assert_usage_error(result)
    assert "universe is at scale 0, not 5" in result.output
    own, default = runner.invoke(main, [*args, "--scales", "0"]), runner.invoke(main, args)
    assert own.exit_code == default.exit_code == 1
    assert own.stdout_bytes == default.stdout_bytes
    assert json.loads(own.stdout)["config"]["scales"] == [0]
    assert json.loads(own.stdout)["summary"] == {"sites": 6, "violations": 6}


@pytest.mark.parametrize("option", [("--scale", "3"), ("--scale", "0"), ("--d", "3")],
                         ids=["scale3", "scale0", "d3"])
@pytest.mark.parametrize("command, extra", [
    ("tables", ("--range", "1")),
    ("moments", ("--poly", "x[1,1,0]@0^2")),
    ("covariance", ("--window", "1")),
    ("welldefined", ("--trials", "1")),
], ids=["tables", "moments", "covariance", "welldefined"])
def test_lattice_options_with_a_json_spec_are_usage_errors(runner, command, extra, option):
    # a spec fixes d and scale itself; given explicitly, even at its default, the option is refused
    spec = '{"variant":"cubical"}'
    result = runner.invoke(main, [command, "--op", spec, *extra, *option])
    assert_usage_error(result)
    assert f"{option[0]} is not read for this operator" in result.output
    assert runner.invoke(main, [command, "--op", spec, *extra]).exit_code == 0


@pytest.mark.parametrize("args", [
    ("verify-invariance", "--op", '{"variant":"cubical"}', "--window", "1", "--d", "4"),
    ("verify-compat", "--op", '{"variant":"cubical"}', "--window", "1", "--d", "3"),
    ("moments", "--areas", "1/2,1/2", "--poly", "x1^2", "--scale", "1"),
    ("welldefined", "--op", "sphere", "--areas", "1/2,1/2", "--trials", "1", "--d", "3"),
    ("welldefined", "--op", "sphere", "--areas", "1/2,1/2", "--trials", "2", "--window", "3"),
    ("welldefined", "--areas", "1/2,1/2", "--trials", "1", "--window", "1"),
    ("welldefined", "--op", CUBE_FACES_OP, "--trials", "1", "--window", "1"),
], ids=["invariance-spec-d", "compat-spec-d", "moments-areas-scale", "welldefined-sphere-d",
        "welldefined-sphere-window", "welldefined-areas-window", "welldefined-explicit-window"])
def test_lattice_options_with_a_spec_or_a_sphere_are_usage_errors(runner, args):
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert "is not read for this operator" in result.output


@pytest.mark.parametrize("args", [
    ("moments", "--op", "cubical", "--poly", "x[1,1,0]@0^2"),
    ("moments", "--op", '{"variant":"sphere","areas":["1/2","1/2"]}', "--poly", "x1^2"),
    ("welldefined", "--op", "alt3", "--trials", "1"),
    ("welldefined", "--op", '{"variant":"cubical"}', "--trials", "1"),
    ("welldefined", "--op", CUBE_FACES_OP, "--trials", "1"),
], ids=["moments-cubical", "moments-sphere-spec", "welldefined-alt3", "welldefined-spec",
        "welldefined-explicit"])
def test_areas_that_do_not_build_the_operator_are_a_usage_error(runner, args):
    # refused, not parsed, even when they would name a sphere's areas
    assert runner.invoke(main, list(args)).exit_code in (0, 1)
    for areas in ("garbage", "1/2,1/2"):
        result = runner.invoke(main, [*args, "--areas", areas])
        assert_usage_error(result)
        assert result.output.splitlines()[-1] == ("Error: --areas is not read for this operator:"
                                                  " only a sphere is built from its areas")


def test_shorthand_names_win_over_files_in_the_working_directory(runner, tmp_path, monkeypatch):
    cases = [["moments", "--op", "sphere", "--areas", "1/3,1/3,1/3", "--poly", "x1^2"],
             ["moments", "--op", "cubical", "--poly", "x[1,1,0]@0^2"],
             ["welldefined", "--op", "alt3", "--trials", "2"]]
    elsewhere = [runner.invoke(main, args) for args in cases]
    for name in ("sphere", "cubical", "alt3"):
        (tmp_path / name).write_text('{"variant":"sphere","areas":["1/2","1/2"]}')
    monkeypatch.chdir(tmp_path)
    for args, before in zip(cases, elsewhere):
        result = runner.invoke(main, args)
        assert result.exit_code == before.exit_code == 0
        assert result.stdout_bytes == before.stdout_bytes
    from_file = runner.invoke(main, ["moments", "--op", "./sphere", "--poly", "x1^2",
                                     "--format", "json"])
    assert from_file.exit_code == 0
    assert json.loads(from_file.stdout)["operator"]["areas"] == ["1/2", "1/2"]


@pytest.mark.parametrize("command", ["verify-invariance", "verify-compat"])
def test_sweeps_take_no_scale_option(runner, command):
    # both sweeps read --scales only
    result = runner.invoke(main, [command, "--window", "1", "--scale", "5"])
    assert_usage_error(result)
    assert "--scale" in result.output


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


@pytest.mark.parametrize("args", [
    ("verify-invariance", "--scales", "0,0"),
    ("verify-compat", "--scales", "-1,-1"),
])
def test_repeated_scale_is_a_usage_error(runner, args):
    result = runner.invoke(main, [*args, "--window", "1"])
    assert_usage_error(result)
    assert "repeated scale" in result.output


def test_invariance_usage_errors(runner):
    assert runner.invoke(main, ["verify-invariance", "--op", "{bad json"]).exit_code == 2
    assert runner.invoke(main, ["verify-invariance", "--op", "mystery"]).exit_code == 2
    assert runner.invoke(main, ["verify-invariance", "--scales", "a,b"]).exit_code == 2
    empty = runner.invoke(main, ["verify-invariance", "--scales", ","])
    assert empty.exit_code == 2 and empty.output.splitlines()[-1] == "Error: empty scales list"
    assert runner.invoke(
        main, ["verify-invariance", "--op", "sphere", "--areas", "1/2,1/2"]
    ).exit_code == 2


SPHERE_SPEC_OP = '{"variant":"sphere","areas":["1/2","1/2"]}'


@pytest.mark.parametrize("command", ["verify-invariance", "verify-compat", "tables", "covariance"])
def test_a_sphere_spec_needs_sphere_check(runner, command):
    # a SphereOp is an ExplicitOp too: this check alone keeps it off the lattice commands
    result = runner.invoke(main, [command, "--op", SPHERE_SPEC_OP, *OP_COMMANDS[command]])
    assert_usage_error(result)
    assert result.output.splitlines()[-1] == ("Error: this command needs a lattice operator;"
                                              " use sphere-check")


@pytest.mark.parametrize("args", [("welldefined", "--trials", "2"), ("moments", "--poly", "x1^2")],
                         ids=lambda args: args[0])
def test_a_sphere_spec_runs_where_a_sphere_is_read(runner, args):
    result = invoke(runner, args[0], "--op", SPHERE_SPEC_OP, *args[1:])
    assert result.exit_code == 0


# -- verify-compat ---------------------------------------------------------------


def test_compat_clean_run(runner):
    result = invoke(runner, "verify-compat", "--d", "3", "--window", "2",
                    "--scales", "-1,0")
    assert result.exit_code == 0
    assert "0 violations" in result.output
    assert "= -8" in result.output  # the printed cross-scale interaction sum


def test_compat_text_prefix_shares_the_sweep_row(runner, monkeypatch):
    # the prefix fetches the (0,1)-plane row at the sweeps' reach first, so
    # each of the three planes is pushed once, none regrown
    pushed = []
    push_row = CubicalFamilyOp._push_row

    def counting(self, pa, pb, reach):
        pushed.append((pa, pb))
        return push_row(self, pa, pb, reach)

    monkeypatch.setattr(CubicalFamilyOp, "_push_row", counting)
    result = invoke(runner, "verify-compat", "--d", "3", "--scales", "-1,0", "--window", "2")
    assert result.exit_code == 0
    assert result.output.startswith("cross-scale interaction sums")
    assert sorted(pushed) == [(0, 1), (0, 2), (1, 2)]


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


@pytest.mark.parametrize("args", [
    ("sphere-check", "--areas", "1/2,1/2", "--max-degree", str(MAX_DEGREE + 1)),
    ("moments", "--areas", "1/2,1/2", "--poly", f"x1^{MAX_DEGREE + 1}"),
])
def test_degree_above_the_cap_is_a_usage_error(runner, args):
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert f"exceeds the maximum {MAX_DEGREE}" in result.output


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


# [1,1,0]@0, the first cell, has partners at its own scale within range 1 and 2, one at
# scale 1 at coordinate distance 0, an integer one and a stored zero
EXPLICIT_TABLES_OP = ('{"variant":"explicit","a":{"[1,1,0]@0":"1","[1,2,1]@0":"1",'
                      '"[1,3,0]@0":"1","[1,1,0]@1":"1","7":"2"},'
                      '"b":[["[1,1,0]@0","[1,2,1]@0","1/2"],["[1,1,0]@0","[1,3,0]@0","1/3"],'
                      '["[1,1,0]@0","[1,1,0]@1","1/4"],["[1,1,0]@0","7","1/5"],'
                      '["[1,1,0]@0","[1,1,0]@0","0"]]}')
MIXED_PARTNER_OP = ('{"variant":"explicit","a":{"[1,1,0]@0":"1","7":"1"},'
                    '"b":[["[1,1,0]@0","7","1/2"]]}')


def test_tables_of_a_cell_with_an_integer_partner(runner):
    result = invoke(runner, "tables", "--op", MIXED_PARTNER_OP)
    assert result.exit_code == 0
    assert result.output == "a([1,1,0]@0) = 1\n"


@pytest.mark.parametrize("radius, partners", [("1", ["[1,2,1]@0"]),
                                              ("2", ["[1,2,1]@0", "[1,3,0]@0"])])
def test_explicit_tables_list_only_partners_at_the_cells_scale(runner, radius, partners):
    result = invoke(runner, "tables", "--op", EXPLICIT_TABLES_OP, "--range", radius,
                    "--format", "csv")
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert [q for p, q, _ in rows[1:]] == partners


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


@pytest.mark.parametrize("poly, reason", [
    ("x1**2", "empty factor"), ("*x1", "empty factor"), ("x1*", "empty factor"),
    ("*", "empty factor"), ("x1+", "dangling sign"), ("x1^", "bad exponent"),
    ("+-", "dangling sign"), ("x1--", "dangling sign"), ("  ", "empty polynomial literal"),
])
def test_a_malformed_literal_is_a_usage_error(runner, poly, reason):
    # "x1**2" was read as 2*x1 and printed exp_state = 0
    result = runner.invoke(main, ["moments", "--areas", "1/2,1/4,1/4", "--poly", poly])
    assert_usage_error(result)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and reason in errors[0]


def test_moments_rejects_bad_poly(runner):
    assert runner.invoke(main, ["moments", "--poly", "x0+"]).exit_code == 2
    squared = invoke(runner, "moments", "--areas", "1/2,1/4,1/4", "--poly", "x1^2")
    assert squared.output.splitlines()[0] == "exp_state = 1/2*lambda"
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


@pytest.mark.parametrize("args", [
    ("verify-invariance", "--op", "alt3", "--window", "1"),
    ("verify-compat", "--window", "1"),
    ("sphere-check", "--areas", "1/2,1/4,1/4", "--max-degree", "2"),
    ("tables", "--range", "1"),
    ("moments", "--poly", "x[1,1,0]@0^2"),
    ("covariance", "--window", "1"),
    ("welldefined", "--window", "1", "--trials", "1"),
], ids=lambda args: args[0])
def test_an_unwritable_out_is_a_usage_error(runner, tmp_path, args):
    target = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, [*args, "--out", str(target)])
    assert_usage_error(result)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: cannot write --out {str(target)!r}: No such file or directory"]
    assert not target.parent.exists()


@pytest.mark.parametrize("parent, reason", [(None, "No such file or directory"),
                                            ("", "Not a directory")], ids=["missing", "file"])
@pytest.mark.parametrize("args", [
    ("verify-invariance", "--d", "4", "--scales", "-1,0", "--window", "4"),
    ("verify-compat", "--window", "1"),
], ids=lambda args: args[0])
def test_an_unwritable_out_exits_before_any_sweep(runner, monkeypatch, tmp_path, args, parent,
                                                  reason):
    def unswept(*args):
        raise AssertionError("swept before --out was checked")

    for name in ("gauge_sweep", "compat_sweep"):
        monkeypatch.setattr(cli, name, unswept)
    target = tmp_path / "parent" / "out.txt"
    if parent is not None:
        target.parent.write_text(parent)
    result = runner.invoke(main, [*args, "--out", str(target)])
    assert_usage_error(result)
    assert result.output.splitlines()[-1] == f"Error: cannot write --out {str(target)!r}: {reason}"


# -- golden outputs --------------------------------------------------------------------
# Every command x format, pinned by exit code and the sha256 of stdout, so that a
# change to the output plumbing that alters a single byte fails here.

FAULT_OP = '{"variant":"cubical","overrides":[[[0,0,1],"alpha",1]]}'

# beta(5,0,0) reaches ten steps: at window 10 labels pass -10 and 10, where string order is
# not numeric order ("[-1," < "[-10," < "[-2,")
WIDE_FAULT_OP = '{"variant":"cubical","overrides":[[[5,0,0],"beta",1]]}'

# beta(2,0,0) is 0 in the cubical table, so this override adds interactions
ZERO_ENTRY_OP = '{"variant":"cubical","overrides":[[[2,0,0],"beta",1]]}'
GOLDEN_CASES = {
    "invariance": ("verify-invariance", "--window", "1"),
    "invariance-fault": ("verify-invariance", "--op", FAULT_OP, "--window", "2"),
    "invariance-fault-decimal": ("verify-invariance", "--op", FAULT_OP, "--window", "2",
                                 "--decimal", "3"),
    # violations at two scales, each scale's printed in canonical order, -1 then 0
    "invariance-wide-fault": ("verify-invariance", "--op", WIDE_FAULT_OP, "--scales", "-1,0",
                              "--window", "10"),
    "compat-d3": ("verify-compat", "--d", "3", "--window", "1", "--scales", "-1,0"),
    "compat-d4": ("verify-compat", "--d", "4", "--window", "1"),
    "compat-fault": ("verify-compat", "--op", FAULT_OP, "--window", "2"),
    "sphere-check": ("sphere-check", "--areas", "1/2,1/4,1/4", "--max-degree", "4"),
    # the shape of the benchmark's sphere-identity rounds: five areas, degree 6
    "sphere-check-n5": ("sphere-check", "--areas", "3/17,5/17,2/17,4/17,3/17",
                        "--max-degree", "6"),
    "tables": ("tables", "--range", "2"),
    "tables-d4": ("tables", "--d", "4", "--range", "3"),
    "tables-alt3": ("tables", "--op", "alt3", "--range", "3"),
    "tables-zero-entry-override": ("tables", "--op", ZERO_ENTRY_OP, "--range", "3"),
    "tables-explicit": ("tables", "--op", EXPLICIT_TABLES_OP, "--range", "2"),
    "moments-sphere": ("moments", "--op", "sphere", "--areas", "1/2,1/4,1/4",
                       "--poly", "x1^2*x2^2"),
    "moments-lattice": ("moments", "--poly", "x[1,1,0]@0*x[0,1,1]@0"),
    "covariance": ("covariance", "--window", "1"),
    "covariance-decimal": ("covariance", "--window", "1", "--decimal", "3"),
    "covariance-psd": ("covariance", "--window", "1", "--psd"),
    # the first zero pivot (step 16) has dependent leading columns: every later minor is 0
    "covariance-psd-w2": ("covariance", "--window", "2", "--psd"),
    "welldefined-sphere": ("welldefined", "--op", "sphere", "--areas", "1/2,1/4,1/4",
                           "--trials", "5"),
    "welldefined-lattice": ("welldefined", "--d", "3", "--trials", "3"),
    # the only case in which a CubicalFamilyOp reports nonzero witnesses
    "welldefined-d4": ("welldefined", "--d", "4", "--window", "1", "--trials", "2",
                       "--seed", "0"),
    "welldefined-fault": ("welldefined", "--op", explicit_window_spec(
        perturb=(Cell(0, (1, 1, 0)), Cell(0, (0, 1, 1)), Fraction(3))), "--trials", "5"),
}
GOLDEN = {
    ('invariance', 'text'): (0, 'c645bacd8ec9d863'),
    ('invariance', 'json'): (0, '5e5b740eae646e39'),
    ('invariance', 'csv'): (0, '022a028102cc7d4a'),
    ('invariance-fault', 'text'): (1, '2ceb241f1983a50d'),
    ('invariance-fault', 'json'): (1, '3c123ae927ad17cd'),
    ('invariance-fault', 'csv'): (1, '7e683a326565243d'),
    ('invariance-fault-decimal', 'text'): (1, '9ec2fc4f93d58f6f'),
    ('invariance-fault-decimal', 'json'): (1, '3c123ae927ad17cd'),
    ('invariance-fault-decimal', 'csv'): (1, 'efadbeae7a4a58f5'),
    ('invariance-wide-fault', 'text'): (1, '18595543c09c53c6'),
    ('invariance-wide-fault', 'json'): (1, '3e2008c32fca11b7'),
    ('invariance-wide-fault', 'csv'): (1, '04867f64a1218ab0'),
    ('compat-d3', 'text'): (0, '392530d76f985d6c'),
    ('compat-d3', 'json'): (0, 'bbc49c0f14f7e21c'),
    ('compat-d3', 'csv'): (0, '022a028102cc7d4a'),
    ('compat-d4', 'text'): (0, '0c178a3278157c6a'),
    ('compat-d4', 'json'): (0, 'b0b3235e24266602'),
    ('compat-d4', 'csv'): (0, '022a028102cc7d4a'),
    ('compat-fault', 'text'): (1, 'baa67ac1608d17c2'),
    ('compat-fault', 'json'): (1, '7e20eeeb27c19879'),
    ('compat-fault', 'csv'): (1, '459b6eb52b9d03d8'),
    ('sphere-check', 'text'): (0, '62ea3f3f94edf069'),
    ('sphere-check', 'json'): (0, '26f39754f1ea69c1'),
    ('sphere-check', 'csv'): (0, '0c39aed9677a6544'),
    ('sphere-check-n5', 'text'): (0, 'b63ae0893be15c12'),
    ('sphere-check-n5', 'json'): (0, '7e9c77df8ca86674'),
    ('sphere-check-n5', 'csv'): (0, 'd50f02c5a229451d'),
    ('tables', 'text'): (0, '233e1aaba623ff33'),
    ('tables', 'json'): (0, '1ca44da86c1ba879'),
    ('tables', 'csv'): (0, '9d4eb7570b779a6e'),
    ('tables-d4', 'text'): (0, '349b628b89fd704f'),
    ('tables-d4', 'json'): (0, 'dc6a074496baa17d'),
    ('tables-alt3', 'text'): (0, 'a6f804c35669034b'),
    ('tables-alt3', 'json'): (0, '4303a79b153660ef'),
    ('tables-zero-entry-override', 'text'): (0, 'a4040721af60be62'),
    ('tables-zero-entry-override', 'json'): (0, '1d47d7d1aefe96cd'),
    ('tables-explicit', 'text'): (0, 'c7f7a05c6ce91c7f'),
    ('tables-explicit', 'json'): (0, '07914e1302e64b91'),
    ('tables-explicit', 'csv'): (0, 'c33843a7dae81977'),
    ('moments-sphere', 'text'): (0, 'ef26243a21b137d7'),
    ('moments-sphere', 'json'): (0, '679ae1de9e3eb408'),
    ('moments-sphere', 'csv'): (0, 'f90211ec2c427a76'),
    ('moments-lattice', 'text'): (0, 'a54151c16f903365'),
    ('moments-lattice', 'json'): (0, '49a46b7bdcbf8dad'),
    ('moments-lattice', 'csv'): (0, 'fb56110fcfb38f46'),
    ('covariance', 'text'): (0, 'c861c37f18bc65dc'),
    ('covariance', 'json'): (0, 'df1915cd73bb2dde'),
    ('covariance', 'csv'): (0, '9b5fdc2dd30c6030'),
    ('covariance-decimal', 'text'): (0, 'c861c37f18bc65dc'),
    ('covariance-decimal', 'json'): (0, 'df1915cd73bb2dde'),
    ('covariance-decimal', 'csv'): (0, '9d84ad212bb4dd46'),
    ('covariance-psd', 'text'): (0, 'efc065748ca6abd8'),
    ('covariance-psd', 'json'): (0, '39f67d9e3d0f476a'),
    ('covariance-psd', 'csv'): (2, 'e3b0c44298fc1c14'),
    ('covariance-psd-w2', 'text'): (0, '19a3f362d9aba0e5'),
    ('covariance-psd-w2', 'json'): (0, 'b0bf47c4db851f4c'),
    ('covariance-psd-w2', 'csv'): (2, 'e3b0c44298fc1c14'),
    ('welldefined-sphere', 'text'): (0, 'c2ea13599bcd0b55'),
    ('welldefined-sphere', 'json'): (0, '1e2ddcc27e154061'),
    ('welldefined-sphere', 'csv'): (0, '022a028102cc7d4a'),
    ('welldefined-lattice', 'text'): (0, 'e3914f06094913bc'),
    ('welldefined-lattice', 'json'): (0, 'd042e61ad0f1117b'),
    ('welldefined-lattice', 'csv'): (0, '022a028102cc7d4a'),
    ('welldefined-d4', 'text'): (1, 'ef44dbcf3f7bc3e2'),
    ('welldefined-d4', 'json'): (1, '6dba3b6fda76bbd0'),
    ('welldefined-fault', 'text'): (1, '823d20d6e65456f0'),
    ('welldefined-fault', 'json'): (1, 'e46789638c8f76a9'),
    ('welldefined-fault', 'csv'): (1, '3c8e0617a70db918'),
}


def _golden_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN))
def test_output_is_pinned(runner, tmp_path, case, fmt):
    args = [*GOLDEN_CASES[case], "--format", fmt]
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert (result.exit_code, _golden_digest(result.stdout_bytes)) == GOLDEN[case, fmt]

    target = tmp_path / "out.txt"
    to_file = runner.invoke(main, [*args, "--out", str(target)])
    assert to_file.exit_code == result.exit_code
    assert to_file.stdout_bytes == b""
    assert (target.read_bytes() if target.exists() else b"") == result.stdout_bytes


def test_tally_sorts_each_sweeps_violations_on_its_own():
    # each sweep's violations arrive out of order, and the second's sort before the first's
    def report(head: str, label: str, value: int) -> ResidualReport:
        return ResidualReport("gauge", (head, label), Fraction(value))

    first = [report("[1,1,1]@0", "[2,1,0]@0", 1), report("[1,1,1]@0", "[1,1,2]@0", 0),
             report("[1,1,1]@0", "[10,1,0]@0", 2)]
    second = [report("[-1,-1,-1]@-1", "[0,-1,-2]@-1", 3),
              report("[-1,-1,-1]@-1", "[-10,-1,-2]@-1", 4)]
    sites, bad = cli._tally(iter([first, second]))
    # unsorted would give 1, 2, 3, 4 and one sort across both sweeps 4, 3, 2, 1
    assert (sites, [r.value for r in bad]) == (5, [2, 1, 4, 3])


# -- exit contract: bad input is a usage error (exit 2), never a traceback ------------


def assert_usage_error(result):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit), result.exception


# a minimal run of each command that reads --d
D_COMMANDS = {
    "verify-invariance": ("--window", "1"),
    "verify-compat": ("--window", "1"),
    "tables": ("--range", "1"),
    "covariance": ("--window", "1"),
    "welldefined": ("--trials", "1"),
    "moments": ("--poly", "x[1,1,0]@0"),
}


@pytest.mark.parametrize("command", sorted(D_COMMANDS))
def test_d2_is_a_usage_error(runner, command):
    assert set(D_COMMANDS) == {name for name, cmd in main.commands.items()
                               if any(param.name == "d" for param in cmd.params)}
    result = runner.invoke(main, [command, *D_COMMANDS[command], "--d", "2"])
    assert_usage_error(result)
    assert "Traceback" not in result.output
    assert result.output.splitlines()[-1] == ("Error: invalid operator spec:"
                                              " cubical families need d >= 3")


# two integer variables and no cells: no lattice site and no 3-cell
INTEGER_OP = '{"variant":"explicit","a":{"1":"1","2":"1"}}'


@pytest.mark.parametrize("args, message", [
    (("verify-invariance", "--window", "1"), "nothing to check: this configuration has no sites"),
    (("welldefined", "--trials", "1"), "no 3-cells with all faces inside the operator universe"),
], ids=["invariance", "welldefined"])
def test_an_operator_with_no_cells_is_a_usage_error(runner, args, message):
    result = runner.invoke(main, [*args, "--op", INTEGER_OP])
    assert_usage_error(result)
    assert "Traceback" not in result.output
    assert result.output.splitlines()[-1] == f"Error: {message}"


@pytest.mark.parametrize("args", [("--jobs", "0"), ("--jobs", "-5")])
def test_jobs_must_be_positive(runner, args):
    result = runner.invoke(main, ["verify-invariance", "--window", "1", *args])
    assert_usage_error(result)
    assert "checked" not in result.output


def test_the_sweep_bound_admits_its_count_and_refuses_one_more():
    cli._check_sweep_size(MAX_SWEEP_SITES, 1)
    with pytest.raises(click.UsageError, match=f"gives {MAX_SWEEP_SITES + 1} sweep sites") as e:
        cli._check_sweep_size(MAX_SWEEP_SITES + 1, 1)
    assert e.value.exit_code == 2


def test_the_probe_bound_admits_its_count_and_refuses_one_more():
    assert 2500 * 8 == MAX_WELLDEFINED_PROBES  # --window 1 at d=3 holds 8 cubes
    cli._check_probe_count(2500, 8)
    with pytest.raises(click.UsageError, match=f"gives {2501 * 8} probes") as e:
        cli._check_probe_count(2501, 8)
    assert e.value.exit_code == 2


@pytest.mark.parametrize("args, sites", [
    (("verify-invariance", "--d", "4", "--scales", "-1,0,1", "--window", "1"), 2880),
    (("verify-compat", "--d", "3", "--scales", "-1,0", "--window", "2"), 306),
])
def test_sweep_sites_above_the_bound_are_a_usage_error(runner, monkeypatch, args, sites):
    # the command's sites across its scales; compat_a sites are not counted
    monkeypatch.setattr(cli, "MAX_SWEEP_SITES", sites)
    assert invoke(runner, *args).exit_code == 0
    monkeypatch.setattr(cli, "MAX_SWEEP_SITES", sites - 1)
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert f"gives {sites} sweep sites, above the maximum {sites - 1}" in result.output
    assert "checked" not in result.output


@pytest.mark.parametrize("command", ["verify-invariance", "verify-compat"])
def test_a_huge_window_exits_before_sweeping(runner, command):
    result = runner.invoke(main, [command, "--window", str(10**9), "--scales", "0,1"])
    assert_usage_error(result)
    assert f"above the maximum {MAX_SWEEP_SITES}" in result.output


# two cells 160 apart span a box of 524,880 cubes
FAR_CELLS_OP = json.dumps(ExplicitOp({Cell(0, (1, 1, 0)): 12, Cell(0, (161, 161, 160)): 12},
                                     {}).to_json())


@pytest.mark.parametrize("args", [
    ("verify-invariance", "--d", "15", "--window", "1"),
    ("verify-invariance", "--op", FAR_CELLS_OP, "--window", "6"),
    ("verify-compat", "--d", "15", "--window", "20"),
], ids=["d15", "far-cells", "compat-d15"])
def test_an_oversized_sweep_exits_before_listing_a_cell(runner, monkeypatch, args):
    def unlisted(*_, **__):
        raise AssertionError("a cell was listed")

    for name in ("default_cubes", "base_plaquettes", "box_cells"):
        monkeypatch.setattr(cli, name, unlisted)
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert f"above the maximum {MAX_SWEEP_SITES}" in result.output


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_sweep_counts_from_the_box_equal_the_listed_centers(runner, monkeypatch, d):
    # with the bound at 0 every run exits 2 and names the count it made from the box
    monkeypatch.setattr(cli, "MAX_SWEEP_SITES", 0)
    for command, centers in (("verify-invariance", default_cubes(d, 0)),
                             ("verify-compat", base_plaquettes(d, 0))):
        for window in (1, 2, 3):
            result = runner.invoke(main, [command, "--d", str(d), "--window", str(window)])
            assert_usage_error(result)
            assert f"gives {sweep_sites(centers, window)} sweep sites," in result.output


@pytest.mark.parametrize("args, plaquettes", [
    (("covariance", "--window", "1", "--format", "csv"), 12),
    (("covariance", "--d", "4", "--window", "1", "--psd"), 24),
], ids=["d3", "d4-psd"])
def test_covariance_windows_above_the_bound_are_a_usage_error(runner, monkeypatch, args,
                                                              plaquettes):
    monkeypatch.setattr(states, "MAX_WINDOW_PLAQUETTES", plaquettes)
    assert invoke(runner, *args).exit_code == 0
    monkeypatch.setattr(states, "MAX_WINDOW_PLAQUETTES", plaquettes - 1)
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert f"holds {plaquettes} plaquettes, above the maximum {plaquettes - 1}" in result.output


def test_sphere_monomials_above_the_bound_are_a_usage_error(runner, monkeypatch):
    # 28 monomials of degree <= 6 in the euclidean coordinates x1, x2
    args = ("sphere-check", "--areas", "1/2,1/4,1/4", "--max-degree", "6")
    monkeypatch.setattr(states, "MAX_SPHERE_MONOMIALS", 28)
    assert invoke(runner, *args).exit_code == 0
    monkeypatch.setattr(states, "MAX_SPHERE_MONOMIALS", 27)
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert "3 areas at degree 6 give 28 monomials, above the maximum 27" in result.output
    assert "checked" not in result.output


TWELVE_AREAS = ",".join(["1/12"] * 12)


def test_a_huge_sphere_check_exits_before_listing_a_monomial(runner, monkeypatch):
    def unlisted(*_):
        raise AssertionError("a monomial was listed")

    monkeypatch.setattr(states, "euclidean_monomials", unlisted)
    result = runner.invoke(main, ["sphere-check", "--areas", TWELVE_AREAS, "--max-degree", "12"])
    assert_usage_error(result)
    assert f"give 1352078 monomials, above the maximum {states.MAX_SPHERE_MONOMIALS}" in (
        result.output)


def test_a_huge_covariance_window_exits_before_listing_a_plaquette(runner, monkeypatch):
    def unlisted(*_):
        raise AssertionError("a plaquette was listed")

    monkeypatch.setattr(CubicalFamilyOp, "window_plaquettes", unlisted)
    result = runner.invoke(main, ["covariance", "--window", str(10**6)])
    assert_usage_error(result)
    assert f"above the maximum {states.MAX_WINDOW_PLAQUETTES}" in result.output


@pytest.mark.parametrize("args, probes", [
    (("welldefined", "--d", "3", "--trials", "3"), 24),
    (("welldefined", "--d", "4", "--window", "2", "--trials", "1"), 96),
    (("welldefined", "--op", "sphere", "--areas", "1/2,1/4,1/4", "--trials", "5"), 5),
    (("welldefined", "--op", CUBE_FACES_OP, "--trials", "4"), 4),
], ids=["d3", "d4-window2", "sphere", "explicit"])
def test_welldefined_probes_above_the_bound_are_a_usage_error(runner, monkeypatch, args, probes):
    # trials x the 3-cells of the ideal's box, or x 1 for a sphere
    monkeypatch.setattr(cli, "MAX_WELLDEFINED_PROBES", probes)
    assert runner.invoke(main, list(args)).exit_code in (0, 1)
    monkeypatch.setattr(cli, "MAX_WELLDEFINED_PROBES", probes - 1)
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert f"gives {probes} probes, above the maximum {probes - 1}" in result.output
    assert "checked" not in result.output


@pytest.mark.parametrize("args", [
    ("--d", "4", "--window", "12", "--trials", "1"),
    ("--window", str(10**9), "--trials", "1"),
    ("--trials", str(MAX_WELLDEFINED_PROBES + 1), "--op", "sphere", "--areas", "1/2,1/2"),
    ("--window", "1", "--trials", "2501"),
], ids=["d4-window12", "huge-window", "sphere-trials", "d3-trials-one-over"])
def test_an_oversized_welldefined_run_exits_before_listing_a_cell(runner, monkeypatch, args):
    def unlisted(*_):
        raise AssertionError("a cell was listed")

    monkeypatch.setattr(cli, "box_cells", unlisted)
    monkeypatch.setattr(cli, "bianchi_form", unlisted)
    result = runner.invoke(main, ["welldefined", *args])
    assert_usage_error(result)
    assert f"above the maximum {MAX_WELLDEFINED_PROBES}" in result.output


@pytest.mark.parametrize("args", [
    ("covariance", "--window", "1", "--format", "csv"),
    ("verify-invariance", "--op", FAULT_OP, "--window", "1"),
])
def test_decimal_must_be_nonnegative(runner, args):
    assert_usage_error(runner.invoke(main, [*args, "--decimal", "-1"]))


FLOAT_EXPLICIT_OP = ('{"variant":"explicit","a":{"[1,1,0]@0":0.1,"[0,1,1]@0":12},'
                     '"b":[["[1,1,0]@0","[0,1,1]@0",0.1]]}')


@pytest.mark.parametrize("spec", [
    '{"variant":"sphere","areas":["1/0","1"]}',
    '{"variant":"explicit","a":{"[1,1,0]@0":"1/0"}}',
    '{"variant":"cubical","overrides":[[[0,0,1],"alpha",1.5]]}',
    '{"variant":"cubical","overrides":[[[0,0,1],"alpha",true]]}',
    FLOAT_EXPLICIT_OP,
    '{"variant":"explicit","a":{"[1,1,0]@0":12,"[0,1,1]@0":12},'
    '"b":[["[1,1,0]@0","[0,1,1]@0",true]]}',
    '{"variant":"sphere","areas":[0.5,0.25,0.25]}',
])
def test_malformed_numbers_in_a_spec_are_usage_errors(runner, spec):
    result = runner.invoke(main, ["welldefined", "--op", spec, "--trials", "1"])
    assert_usage_error(result)
    assert "invalid operator spec" in result.output


NON_OBJECT_A_OP = '{"variant":"explicit","a":[1]}'
MIXED_DIM_OP = '{"variant":"explicit","a":{"[0,1,1,0]@0":1,"[1,1,0]@0":2}}'


def test_explicit_a_that_is_not_an_object_is_a_usage_error(runner):
    result = runner.invoke(main, ["tables", "--op", NON_OBJECT_A_OP])
    assert_usage_error(result)
    assert "is not an object" in result.output


@pytest.mark.parametrize("command", ["verify-invariance", "welldefined"])
def test_mixed_ambient_dimensions_are_a_usage_error(runner, command):
    result = runner.invoke(main, [command, "--op", MIXED_DIM_OP, "--window", "1"])
    assert_usage_error(result)
    assert "mixed ambient dimensions" in result.output


@pytest.mark.parametrize("spec", [
    '{"variant":"cubical","d":3.5}',
    '{"variant":"cubical","d":true}',
    '{"variant":"cubical","scale":3.5}',
    '{"variant":"cubical","scale":true}',
    '{"variant":"alt3","scale":true}',
    '{"variant":"alt3","d":3.5}',
])
def test_non_integer_dimension_or_scale_is_a_usage_error(runner, spec):
    result = runner.invoke(main, ["verify-invariance", "--op", spec, "--window", "1",
                                  "--format", "json"])
    assert_usage_error(result)
    assert "is not an integer" in result.output


@pytest.mark.parametrize("args", [
    ("tables", "--op", "alt3", "--d", "4", "--range", "1"),
    ("tables", "--op", '{"variant":"alt3","d":4}', "--range", "1"),
    ("verify-compat", "--op", "alt3", "--d", "4", "--window", "1"),
], ids=["tables-shorthand", "tables-spec", "compat-shorthand"])
def test_alt3_in_another_dimension_is_a_usage_error(runner, args):
    result = runner.invoke(main, list(args))
    assert_usage_error(result)
    assert "three-dimensional" in result.output


@pytest.mark.parametrize("args", [("tables", "--range", "1"), ("verify-compat", "--window", "1")],
                         ids=["tables", "compat"])
def test_alt3_reads_its_own_dimension(runner, args):
    own = runner.invoke(main, [*args, "--op", "alt3"])
    given = runner.invoke(main, [*args, "--op", "alt3", "--d", "3"])
    assert own.exit_code == given.exit_code == 0
    assert own.stdout_bytes == given.stdout_bytes


# Each command with the options that size its run.  All but --jobs and --decimal
# are always passed, so no example falls back to a large default (a window of 6,
# 100 trials); those two default to one worker and no rounding.
SIZED_OPTIONS = {
    "verify-invariance": ("--window", "--jobs", "--decimal"),
    "verify-compat": ("--window", "--jobs", "--decimal"),
    "covariance": ("--window", "--decimal"),
    "welldefined": ("--window", "--trials"),
    "tables": ("--range",),
    "moments": (),
    "sphere-check": ("--max-degree",),
}
OP_SPECS = [
    "cubical", "alt3", "sphere", "mystery", "{bad json", FAULT_OP, SPHERE_SPEC_OP,
    '{"variant":"sphere","areas":["1/0","1"]}',
    '{"variant":"cubical","overrides":[[[0,0,1],"alpha",1.5]]}',
    '{"variant":"cubical","overrides":[[[0,0,1],"alpha",true]]}',
    '{"variant":"cubical","overrides":[[[0,0],"alpha",1]]}',
    '{"variant":"cubical","overrides":[[[-1,0,0],"beta",5]]}',
    '{"variant":"cubical","d":3.5,"scale":true}',
    REPEATED_OVERRIDE_OP, INDEXED_A0_OP,
    FLOAT_EXPLICIT_OP, NON_OBJECT_A_OP, MIXED_DIM_OP, CUBE_FACES_OP, MIXED_PARTNER_OP,
]
# --d and --scale choose a cubical family; drawn or left out.  --d 4 is left
# out: a d=4 covariance window of 2 with --psd takes tens of seconds.  --d 15
# is drawn for verify-invariance only, whose sweep is then over the site bound
# at every window; a d=15 compat sweep is under it and runs for minutes.
D_VALUES, SCALE_VALUES = ["2", "3"], ["-1", "0", "1"]
LATTICE_OPTIONS = {
    "verify-invariance": {"--d": [*D_VALUES, "15"]},
    "verify-compat": {"--d": D_VALUES},
    "covariance": {"--d": D_VALUES, "--scale": SCALE_VALUES},
    "welldefined": {"--d": D_VALUES, "--scale": SCALE_VALUES},
    "tables": {"--d": D_VALUES, "--scale": SCALE_VALUES},
    "moments": {"--d": D_VALUES, "--scale": SCALE_VALUES},
}


@st.composite
def cli_arguments(draw):
    command = draw(st.sampled_from(sorted(SIZED_OPTIONS)))
    args = [command, "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    for option in SIZED_OPTIONS[command]:
        if option in ("--jobs", "--decimal") and draw(st.booleans()):
            continue
        values = ["-1", "0", "1", "2"]
        if option == "--window" and command in ("verify-invariance", "verify-compat",
                                                 "covariance"):
            values.append(str(10**6))  # above the site or plaquette bound: rejected unlisted
        if option == "--max-degree":
            values.append("12")  # above the monomial bound with twelve areas: rejected unlisted
        args += [option, draw(st.sampled_from(values))]
    op = draw(st.sampled_from([None, *OP_SPECS]))
    if command != "sphere-check" and op is not None:
        args += ["--op", op]
    if command == "sphere-check" or command in ("moments", "welldefined") and draw(st.booleans()):
        args += ["--areas", draw(st.sampled_from(["1/2,1/4,1/4", "1/2,1/0", "1/3,1/3,1/3",
                                                  TWELVE_AREAS]))]
    if command == "moments":
        args += ["--poly", draw(st.sampled_from(["x1^2*x2^2", "x[1,1,0]@0*x[0,1,1]@0", "x0+",
                                                 "x1^4000"]))]
    if command == "covariance" and draw(st.booleans()):
        args.append("--psd")
    for option, choices in LATTICE_OPTIONS.get(command, {}).items():
        if draw(st.booleans()):
            args += [option, draw(st.sampled_from(choices))]
    if command == "verify-invariance" and draw(st.booleans()):
        args += ["--scales", draw(st.sampled_from(["0", "5", "0,1"]))]
    return args


# With 12 key bits a d=3 family's rows hold a reach of at most 7, with 15 at most 15: each
# command at the widest configuration whose rows fit, and at the next one.
KEY_CAPACITY_CASES = [
    (12, "tables --range 7", "tables --range 8", 8),
    (12, "covariance --window 3 --psd", "covariance --window 4 --psd", 8),
    (15, "moments --poly x[1,1,0]@0*x[1,1,14]@0", "moments --poly x[1,1,0]@0*x[1,1,16]@0", 16),
    (15, "welldefined --window 4 --trials 1", "welldefined --window 5 --trials 1", 16),
    (15, "verify-invariance --window 14", "verify-invariance --window 15", 16),
    (15, "verify-compat --window 6", "verify-compat --window 7", 16),
    (15, "verify-compat --window 6 --format json", "verify-compat --window 7 --format json", 16),
]


@pytest.mark.parametrize("bits, widest, past, reach", KEY_CAPACITY_CASES,
                         ids=[past for _, _, past, _ in KEY_CAPACITY_CASES])
def test_a_row_past_the_offset_keys_is_a_usage_error(monkeypatch, runner, bits, widest, past, reach):
    monkeypatch.setattr(operators, "_KEY_BITS", bits)
    assert runner.invoke(main, widest.split()).exit_code == 0
    result = runner.invoke(main, past.split())
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    capacity = {12: 7, 15: 15}[bits]
    assert result.output.splitlines()[-1] == (f"Error: a row of reach {reach} does not fit the d=3"
                                              f" offset keys, which hold a reach of at most"
                                              f" {capacity}")


@settings(max_examples=50, deadline=None)
@given(cli_arguments(), st.sampled_from([None, "out.txt", "missing/out.txt"]))
def test_exit_contract_holds_for_any_arguments(tmp_path_factory, args, out):
    # --out is left out, a writable file, or a file in a directory that does not exist
    if out is not None:
        args = [*args, "--out", str(tmp_path_factory.mktemp("out") / out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in ((0, 1, 2) if out != "missing/out.txt" else (2,)), args
    assert result.exception is None or isinstance(result.exception, SystemExit), args


# Each command that takes --op, at fixed small sizes, for the grid below.
OP_COMMANDS = {
    "verify-invariance": ("--window", "1"),
    "verify-compat": ("--window", "1"),
    "covariance": ("--window", "1"),
    "welldefined": ("--window", "1", "--trials", "2"),
    "tables": ("--range", "1"),
    "moments": ("--poly", "x[1,1,0]@0^2*x[0,1,1]@0^2"),
}


@pytest.mark.parametrize("spec", OP_SPECS)
@pytest.mark.parametrize("command", sorted(OP_COMMANDS))
def test_exit_contract_holds_for_every_command_and_operator(runner, command, spec):
    # every (command, spec) pair, which the drawn arguments above reach only now and then
    result = runner.invoke(main, [command, "--op", spec, *OP_COMMANDS[command]])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception


def test_importing_the_cli_starts_no_process_machinery():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, holoflow.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded.strip() == "[]"
