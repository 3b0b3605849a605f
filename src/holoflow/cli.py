"""Command-line front end: verification sweeps, table dumps, state evaluation.

Exit status contract: 0 = every check passed, 1 = violations found,
2 = usage or configuration error.  All numbers are emitted as exact "p/q"
strings; --decimal adds a rounded column without ever replacing the exact
one.  Output is deterministic byte-for-byte for a fixed configuration and
seed: printed violations are sorted canonically within each sweep.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

import click
from click.core import ParameterSource

from .cells import Cell, box_cell_count, box_cells, format_cell
from .operators import CubicalFamilyOp, SphereOp, operator_from_json
from .poly import Polynomial, _number_text, bianchi_form, parse_polynomial
from .states import (
    covariance_window,
    exp_state,
    format_lambda_poly,
    psd_probe,
    verify_sphere,
    ym_moment,
)
from .verify import (
    MAX_SWEEP_SITES,
    MAX_WELLDEFINED_PROBES,
    ResidualReport,
    base_plaquettes,
    box_sweep_sites,
    child_interaction_sum,
    compat_sweep,
    default_cubes,
    gauge_sweep,
    violations,
    welldefined_property,
)


@click.group()
def main():
    """Exact verification of invariant second-order operators on holonomy algebras."""


# -- shared option handling ---------------------------------------------------


def _parse_areas(text: str) -> list[Fraction]:
    try:
        return [Fraction(_number_text(part.strip())) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad areas {text!r}; expected fractions like 1/2,1/4,1/4")


def _resolve_operator(op_text: str | None, d: int, scale: int, areas: str | None):
    """The operator --op (or --areas) names; a shorthand wins over a file "./name" reads.

    Only the cubical and alt3 shorthands and the default read --d and
    --scale, and only a sphere reads --areas.  Giving an option the operator
    does not read is a usage error; the defaults pass.
    """
    shorthand, sphere = False, not op_text and bool(areas)  # --areas alone: the sphere
    if op_text:
        op_text = op_text.strip()
        if op_text.startswith("{"):
            try:
                spec = json.loads(op_text)
            except json.JSONDecodeError as e:
                raise click.UsageError(f"bad operator JSON: {e}")
        elif op_text in ("cubical", "alt3"):
            spec, shorthand = {"variant": op_text, "d": d, "scale": scale}, True
        elif op_text == "sphere":
            if not areas:
                raise click.UsageError("--op sphere needs --areas")
            sphere = True
        elif not os.path.exists(op_text):
            raise click.UsageError(f"unrecognized operator spec {op_text!r}")
        else:
            try:
                spec = json.loads(Path(op_text).read_text())
            except (OSError, json.JSONDecodeError) as e:
                raise click.UsageError(f"cannot read operator spec {op_text!r}: {e}")
    elif not areas:
        spec, shorthand = {"variant": "cubical", "d": d, "scale": scale}, True
    if sphere:
        spec = {"variant": "sphere", "areas": [str(a) for a in _parse_areas(areas)]}
    else:
        _refuse_given(("areas",), "only a sphere is built from its areas")
    if not shorthand:
        _refuse_given(("d", "scale"), "a JSON spec or a sphere operator fixes its own universe")
    try:
        return operator_from_json(spec)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        raise click.UsageError(f"invalid operator spec: {e}")


def _refuse_given(names: Sequence[str], reason: str) -> None:
    """A usage error for the first of these options given on the command line, which the
    operator does not read; their defaults pass."""
    ctx = click.get_current_context()
    for name in names:
        if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"--{name} is not read for this operator: {reason}")


def _parse_scales(text: str) -> list[int]:
    try:
        out = [int(_number_text(part)) for part in text.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"bad scales {text!r}; expected integers like -1,0,1")
    if not out:
        raise click.UsageError("empty scales list")
    if len(set(out)) < len(out):
        raise click.UsageError(f"repeated scale in {text!r}; each scale is swept once")
    return out


def _render(fmt: str, out: str | None, status: int, as_json: Callable[[], dict],
            as_csv: Callable[[], list[list]], as_text: Callable[[], list[str]]) -> NoReturn:
    """Write a command's result in the asked-for format, then exit with `status`.

    `as_json` returns the JSON object, `as_csv` the CSV rows with the header
    first and `as_text` the text lines.  Each is a zero-argument callable and
    only the one for `fmt` is called, so no other form is ever built.
    """
    if fmt == "json":
        text = json.dumps(as_json(), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(as_csv())
        text = buf.getvalue()
    else:
        text = "\n".join(as_text()) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as e:
            raise click.UsageError(f"cannot write --out {out!r}: {e.strerror or e}")
    else:
        click.echo(text, nl=False)
    sys.exit(status)


def _rounded(value: Fraction, digits: int) -> str:
    return f"{float(value):.{digits}f}"


def _exact_rows(header: list[str], rows, decimal: int | None) -> list[list[str]]:
    """CSV rows whose last cell is an exact value; --decimal adds a rounded copy after it."""
    if decimal is not None:
        header = [*header, "decimal"]
    out = [header]
    for *cells, value in rows:
        row = [*cells, str(value)]
        if decimal is not None:
            row.append(_rounded(value, decimal))
        out.append(row)
    return out


def _tally(sweeps: Iterable[list[ResidualReport]]) -> tuple[int, list[ResidualReport]]:
    """The site count and the violations of each sweep's reports in turn, each sweep's sorted
    canonically on its own, so that sweeps keep their given order.

    A sweep's reports are dropped once counted, so only its violations outlive it.
    """
    sites, bad = 0, []
    for reports in sweeps:
        sites += len(reports)
        bad += sorted(violations(reports))
        del reports
    return sites, bad


def _render_residuals(command: str, op, config: dict, sites: int, bad: list[ResidualReport],
                      fmt: str, out: str | None, decimal: int | None = None,
                      prefix: Sequence[str] = ()) -> NoReturn:
    """Render a count of checked sites and their violations; `prefix` lines lead the text
    form only."""
    if not sites:
        raise click.UsageError("nothing to check: this configuration has no sites")

    def fail_line(r: ResidualReport) -> str:
        line = f"FAIL {r.condition} {' '.join(r.site)} -> {r.value}"
        return line if decimal is None else f"{line} ({_rounded(r.value, decimal)})"

    _render(
        fmt, out, 1 if bad else 0,
        lambda: {"command": command, "operator": op.to_json(), "config": config,
                 "summary": {"sites": sites, "violations": len(bad)},
                 "violations": [r.to_json() for r in bad]},
        lambda: _exact_rows(["condition", "site", "value"],
                            [(r.condition, " ".join(r.site), r.value) for r in bad], decimal),
        lambda: [*prefix, *map(fail_line, bad),
                 f"checked {sites} sites: {len(bad)} violations"],
    )


def _writable_out(ctx, param, out: str | None) -> str | None:
    """--out, once its directory is known to exist and to be writable, so that a path that
    cannot be written exits 2 before any work; _render still reports a failed write."""
    if out is None:
        return out
    parent = Path(out).parent
    if not parent.exists():
        code = errno.ENOENT
    elif not parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return out
    raise click.UsageError(f"cannot write --out {out!r}: {os.strerror(code)}")


_OP_OPT = click.option("--op", "op_text", default=None,
                       help="Operator: inline JSON, a JSON file, or cubical|alt3|sphere.")
_D_OPT = click.option("--d", "d", type=int, default=3, show_default=True,
                      help="Ambient dimension for cubical operators.")
_SCALE_OPT = click.option("--scale", type=int, default=0, show_default=True,
                          help="Lattice scale for cubical operators.")
_FMT_OPT = click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
                        default="text", show_default=True)
_OUT_OPT = click.option("--out", default=None, type=click.Path(dir_okay=False, writable=True),
                        callback=_writable_out, help="Write output to a file instead of stdout.")
_JOBS_OPT = click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
                         expose_value=False, help="Accepted for compatibility; sweeps run in"
                                                  " one process, so it changes nothing.")
_DEC_OPT = click.option("--decimal", type=click.IntRange(min=0), default=None,
                        help="Add a column rounded to this many digits.")
_SEED_OPT = click.option("--seed", type=int, default=0, show_default=True)


def _require_lattice_op(op):
    if isinstance(op, SphereOp):
        raise click.UsageError("this command needs a lattice operator; use sphere-check")
    return op


def _explicit_box(op) -> tuple:
    """(scale, lo, hi) of the box spanned by an explicit operator's cell variables; a box
    with no axes, which holds no cell, when it has none."""
    cells = [v for v in op.variables() if isinstance(v, Cell)]
    if not cells:
        return None, (), ()
    d = cells[0].ambient_dim
    lo = tuple(min(c.coords[i] for c in cells) for i in range(d))
    hi = tuple(max(c.coords[i] for c in cells) for i in range(d))
    return cells[0].scale, lo, hi


def _usage_errors(fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs), with its ValueError, such as a row too wide for the operator's
    offset keys, made a usage error (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise click.UsageError(str(e))


def _check_sweep_size(sites: int, window: int) -> None:
    """Reject a command whose sweeps, together, have more than MAX_SWEEP_SITES sites.

    The caller counts them from the sweeps' boxes (box_sweep_sites), so an oversized
    window exits 2 before any cell is listed.
    """
    if sites > MAX_SWEEP_SITES:
        raise click.UsageError(f"--window {window} gives {sites} sweep sites, above the maximum"
                               f" {MAX_SWEEP_SITES}; use a smaller --window or fewer --scales")


def _check_probe_count(trials: int, generators: int) -> None:
    """Reject a welldefined run of more than MAX_WELLDEFINED_PROBES probes, trials x generators.

    A lattice ideal's generators are at most the 3-cells of its box, counted in closed form,
    so an oversized --window or --trials exits 2 before any cell is listed.
    """
    probes = trials * generators
    if probes > MAX_WELLDEFINED_PROBES:
        raise click.UsageError(f"--trials {trials} with {generators} generators gives {probes}"
                               f" probes, above the maximum {MAX_WELLDEFINED_PROBES}")


# -- commands -----------------------------------------------------------------


@main.command("verify-invariance")
@_OP_OPT
@_D_OPT
@click.option("--window", type=click.IntRange(min=1), default=6, show_default=True,
              help="Max-norm site radius around each representative 3-cell.")
@click.option("--scales", default="0", show_default=True,
              help="Comma-separated lattice scales to sweep.")
@_FMT_OPT
@_OUT_OPT
@_JOBS_OPT
@_DEC_OPT
def verify_invariance(op_text, d, window, scales, fmt, out, decimal):
    """Sweep gauge residuals over (3-cell, plaquette) sites; exit 0 iff all vanish."""
    op = _require_lattice_op(_resolve_operator(op_text, d, 0, None))
    scale_list = _parse_scales(scales)
    if len(scale_list) > 1 and not isinstance(op, CubicalFamilyOp):
        raise click.UsageError("an explicit operator has one finite universe; sweep one scale")
    if isinstance(op, CubicalFamilyOp):
        box_sites = box_sweep_sites((-1,) * op.d, (1,) * op.d, 3, window)
        _check_sweep_size(len(scale_list) * box_sites, window)
        sweeps = [(op.with_scale(s), default_cubes(op.d, s)) for s in scale_list]
    else:
        scale, lo, hi = _explicit_box(op)
        if box_cell_count(lo, hi, 3) and scale != scale_list[0]:
            raise click.UsageError(f"the explicit operator's universe is at scale"
                                   f" {scale}, not {scale_list[0]}")
        _check_sweep_size(box_sweep_sites(lo, hi, 3, window), window)
        sweeps = [(op, list(box_cells(scale, lo, hi, dim=3)))]
    tally = _usage_errors(_tally, (gauge_sweep(scoped, cubes, window) for scoped, cubes in sweeps))
    _render_residuals("verify-invariance", op, {"window": window, "scales": scale_list}, *tally,
                      fmt, out, decimal)


@main.command("verify-compat")
@_OP_OPT
@_D_OPT
@click.option("--window", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--scales", default="0", show_default=True,
              help="Coarse scales; each is checked against the next finer one.")
@_FMT_OPT
@_OUT_OPT
@_JOBS_OPT
@_DEC_OPT
def verify_compat(op_text, d, window, scales, fmt, out, decimal):
    """Check coefficient consistency between consecutive scales; exit 0 iff exact."""
    op = _require_lattice_op(_resolve_operator(op_text, d, 0, None))
    if not isinstance(op, CubicalFamilyOp):
        raise click.UsageError("compatibility sweeps need a coefficient family operator")
    scale_list = _parse_scales(scales)
    box_sites = box_sweep_sites((0,) * op.d, (1,) * op.d, 2, window)
    _check_sweep_size(len(scale_list) * box_sites, window)
    sweeps = [(op.with_scale(s), base_plaquettes(op.d, s)) for s in scale_list]
    prefix = []
    if fmt == "text" and op.d == 3:
        # p's scale-free row, fetched at the reach of both prefix and sweeps, is pushed once
        coarse = op.with_scale(-1)
        p = Cell(-1, (1, 1, 0))
        _usage_errors(coarse.b_row, p, 2 * max(4, window) + 2)
        prefix = ["cross-scale interaction sums at scale -1 (each equals 4x its scale-0 value):"]
        for label, q in (("(1,0,0)", (2, 1, 1)), ("(2,1,1)", (4, 3, 3)), ("(2,2,1)", (4, 5, 3))):
            total = child_interaction_sum(coarse, p, Cell(-1, q))
            prefix.append(f"  sum over children for ({format_cell(p)}, {format_cell(Cell(-1, q))})"
                          f" [offset {label}] = {total}")
    tally = _usage_errors(_tally, (compat_sweep(scoped, plaquettes, window)
                                   for scoped, plaquettes in sweeps))
    _render_residuals("verify-compat", op, {"window": window, "scales": scale_list}, *tally,
                      fmt, out, decimal, prefix)


@main.command("sphere-check")
@click.option("--areas", required=True, help="Plaquette areas, e.g. 1/2,1/4,1/4.")
@click.option("--max-degree", type=int, default=4, show_default=True)
@_FMT_OPT
@_OUT_OPT
def sphere_check(areas, max_degree, fmt, out):
    """Compare the exponential state with Gaussian moments, monomial by monomial."""
    report = _usage_errors(verify_sphere, _parse_areas(areas), max_degree)

    def as_csv():
        rows = [["monomial", "exp_state", "ym_moment", "equal"]]
        for item in report.items:
            rows.append([item.monomial, format_lambda_poly(item.exp_state),
                         format_lambda_poly(item.ym_moment), str(item.equal).lower()])
        return rows

    def as_text():
        lines = []
        for item in report.items:
            flag = "ok" if item.equal else "MISMATCH"
            lines.append(f"{item.monomial}: exp={format_lambda_poly(item.exp_state)}"
                         f" ym={format_lambda_poly(item.ym_moment)} {flag}")
        n_bad = len(report.mismatches)
        lines.append(f"checked {len(report.items)} monomials: {n_bad} mismatches")
        return lines

    _render(fmt, out, 0 if report.all_equal else 1,
            lambda: {"command": "sphere-check", **report.to_json()}, as_csv, as_text)


@main.command("tables")
@_OP_OPT
@_D_OPT
@_SCALE_OPT
@click.option("--range", "radius", type=click.IntRange(min=1), default=3, show_default=True,
              help="Max-norm radius of dumped interactions around the base plaquette.")
@_FMT_OPT
@_OUT_OPT
def tables(op_text, d, scale, radius, fmt, out):
    """Dump the coefficient table rows (p, q, value) around the base plaquette."""
    op = _require_lattice_op(_resolve_operator(op_text, d, scale, None))
    if isinstance(op, CubicalFamilyOp):
        p = op.base_plaquette()
    else:
        p = next(iter(op.variables()), None)  # a universe is all cells or none
        if not isinstance(p, Cell):
            raise click.UsageError("explicit operator has no lattice variables to dump")
    a_value = op.coeff_a(p)
    rows = _usage_errors(sorted, ([format_cell(p), format_cell(q), str(v)]
                                  for q, v in op.support(p, radius)))
    _render(
        fmt, out, 0,
        lambda: {"command": "tables", "operator": op.to_json(),
                 "base": format_cell(p), "a": str(a_value), "rows": rows},
        lambda: [["p", "q", "value"], *rows],
        lambda: [f"a({format_cell(p)}) = {a_value}"] + [f"b({u}, {v}) = {c}" for u, v, c in rows],
    )


@main.command("moments")
@_OP_OPT
@_D_OPT
@_SCALE_OPT
@click.option("--areas", default=None, help="Plaquette areas for sphere operators.")
@click.option("--poly", "poly_text", required=True,
              help='Polynomial literal, e.g. "x1^2*x2^2" or "x[1,1,0]@0^2".')
@_FMT_OPT
@_OUT_OPT
def moments(op_text, d, scale, areas, poly_text, fmt, out):
    """Evaluate the exponential state of a polynomial, exact in the coupling."""
    op = _resolve_operator(op_text, d, scale, areas)
    f = _usage_errors(parse_polynomial, poly_text)
    sphere = isinstance(op, SphereOp)
    series = _usage_errors(exp_state, op.to_euclidean() if sphere else op, f)
    pairing = _usage_errors(ym_moment, op.areas, f) if sphere else None
    if pairing is None:
        equal = True
        fields = {"moment": series.to_json()}
        lines = [f"moment = {format_lambda_poly(series)}"]
    else:
        equal = series == pairing
        fields = {"exp_state": series.to_json(), "ym_moment": pairing.to_json(), "equal": equal}
        lines = [f"exp_state = {format_lambda_poly(series)}",
                 f"ym_moment = {format_lambda_poly(pairing)}",
                 f"equal: {str(equal).lower()}"]
    _render(
        fmt, out, 0 if equal else 1,
        lambda: {"command": "moments", "operator": op.to_json(), "poly": poly_text, **fields},
        lambda: [["degree", "coeff"]] + [[str(k), str(c)] for k, c in sorted(series.coeffs.items())],
        lambda: lines,
    )


@main.command("covariance")
@_OP_OPT
@_D_OPT
@_SCALE_OPT
@click.option("--window", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--psd", is_flag=True, help="Also probe leading principal minor signs.")
@_FMT_OPT
@_OUT_OPT
@_DEC_OPT
def covariance(op_text, d, scale, window, psd, fmt, out, decimal):
    """Second-moment matrix of the holonomies over a window of plaquettes."""
    op = _require_lattice_op(_resolve_operator(op_text, d, scale, None))
    if not isinstance(op, CubicalFamilyOp):
        raise click.UsageError("covariance windows need a coefficient family operator")
    if fmt == "csv" and psd:
        raise click.UsageError("--psd output is text or json")
    cov = _usage_errors(covariance_window, op, window)
    probe = psd_probe(cov) if psd else None

    def entries():
        labels = list(zip(map(format_cell, cov.variables), cov.variables))
        return [(r, c, cov.entry(u, v)) for r, u in labels for c, v in labels]

    def as_json():
        payload = {"command": "covariance", "operator": op.to_json(), "window": window,
                   "variables": [format_cell(p) for p in cov.variables],
                   "entries": [[r, c, str(v)] for r, c, v in entries()]}
        if probe is not None:
            payload["psd"] = probe.to_json()
        return payload

    def as_text():
        lines = [f"{cov.size} plaquettes in window {window} at scale {op.scale}"]
        if probe is not None:
            signs = ",".join(str(s) for s in probe.signs)
            lines.append(f"leading principal minor signs: {signs}")
            lines.append(f"all nonnegative: {str(probe.nonnegative).lower()}")
        else:
            lines += [f"{r},{c} = {v}" for r, c, v in entries()]
        return lines

    _render(fmt, out, 0, as_json, lambda: _exact_rows(["row", "col", "value"], entries(), decimal),
            as_text)


@main.command("welldefined")
@_OP_OPT
@_D_OPT
@_SCALE_OPT
@click.option("--areas", default=None, help="Plaquette areas for sphere operators.")
@click.option("--window", type=click.IntRange(min=1), default=1, show_default=True,
              help="Half-width of the 3-cell box generating the constraint ideal.")
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@_SEED_OPT
@_FMT_OPT
@_OUT_OPT
def welldefined(op_text, d, scale, areas, window, trials, seed, fmt, out):
    """Check reduce(L(f_c * g)) = 0 on seeded random g; exit 0 iff all vanish."""
    op = _resolve_operator(op_text, d, scale, areas)
    if not isinstance(op, CubicalFamilyOp):
        _refuse_given(("window",), "a sphere or explicit operator's ideal comes from its"
                                   " own universe")
    if isinstance(op, SphereOp):
        _check_probe_count(trials, 1)
        forms = [Polynomial.linear({i: 1 for i in range(1, op.n + 1)})]
    else:
        if isinstance(op, CubicalFamilyOp):
            box = (op.scale, (-window,) * op.d, (window,) * op.d)
        else:
            box = _explicit_box(op)
        _check_probe_count(trials, box_cell_count(box[1], box[2], 3))
        forms = [bianchi_form(c) for c in box_cells(*box, dim=3)]
        forms = [f for f in forms if all(map(op.has_var, f.variables()))]
        if not forms:
            raise click.UsageError("no 3-cells with all faces inside the operator universe")
    reports = _usage_errors(welldefined_property, op, forms, trials=trials, seed=seed)
    config = {"trials": trials, "seed": seed, "generators": len(forms)}
    _render_residuals("welldefined", op, config, len(reports), violations(reports), fmt, out)


if __name__ == "__main__":
    main()
