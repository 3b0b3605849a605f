"""Residual computations: every condition here must vanish identically.

Three families of checks, all exact:

* gauge residuals -- for a 3-cell c and plaquette p, the quantity
  <dc,p> a_p - sum_q <dc,q> b_pq.  Zero everywhere means L maps every
  holonomy constraint into the constraint ideal and so acts on the quotient
  algebra.
* compatibility residuals -- coefficients at consecutive scales must be
  related by summation over plaquette children, a_p = sum a_p' and
  b_pq = sum b_p'q'; this is the exact-renormalization property.
* quotient well-definedness -- reduce(L(f_c * g)) = 0 for the constraint
  generators f_c and seeded random polynomials g, run on integers
  (welldefined_property).

Lattice residuals are integers over the operator's unit, made a Fraction
once per site; every zero reports one shared Fraction(0), which passed
tests by identity before it compares.  A ResidualReport is a named tuple
(condition, site, value), so its own order is the canonical one.  Sweeps
enumerate finite windows of sites in one process and sort the reports; each
call keeps one label memo, scale -> {coords: label}.  A site whose class
row already holds its numerator costs about 2 us (a warm d=4 gauge sweep on
a 2-core x86_64 host), less than shipping its report to another process.

Numerators read coefficient rows, b_row(p, reach): q - p -> b_int(p, q),
nonzero entries only, which a family and an ExplicitOp both give.  Every
gauge numerator -- at a sweep site, in gauge_residual and in
solve_base_coefficient -- is gauge_numerator over p's row.

A coefficient family is invariant under even translations of the lattice,
and cells with one coordinate-parity pattern differ by even translations.
So a gauge numerator depends only on the cube's parity pattern and the
offset p - cube, and a compatibility numerator only on p's pattern and
q - p.  Sweeps list the offsets of each parity class once per call,
enumerate sites as center + offset, and keep one row per class, offset ->
numerator; _class_row is the one place here that tests the operator's
class.  A family's class rows live in its memo, under ("gauge", pattern) or
("compat", pattern) beside its coefficient rows.  An ExplicitOp is not
translation invariant, so it gets a fresh row per chunk, which never hits.
A gauge miss builds p, checks it with has_var and reads p's row at the
cube's face offsets less t, since q - p = (q - cube) - t.  A compat miss
reads p's row too: every child pair of (p, q) has q' - p' = 2(q - p) +
(e_q - e_p), and p's children share p's parity pattern, so compat_b is one
stencil on p's row, 4 B(t) - sum m B(2t + s) over the steps s = e_q - e_p
that cells.children gives once per plane of q.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import add, sub, xor
from typing import Callable, Iterable, NamedTuple, Sequence

from .cells import (Cell, SignedChain, boundary, box_cells, children, format_cell, plaquette_offsets,
                    plaquettes_near)
from .operators import CubicalFamilyOp, _apply_int, _check_vars, _pair_memo
from .poly import LinearIdeal, Polynomial, _integer_terms, _mono_degree, _mono_sort_key, _mul_terms


_ZERO = Fraction(0)


class ResidualReport(NamedTuple):
    """One site's residual; reports order by (condition, site)."""

    condition: str
    site: tuple[str, ...]
    value: Fraction

    @property
    def passed(self) -> bool:
        return self.value is _ZERO or self.value == 0

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "site": list(self.site),
            "value": str(self.value),
            "pass": self.passed,
        }


def violations(reports: Iterable[ResidualReport]) -> list[ResidualReport]:
    return [r for r in reports if not r.passed]


# -- gauge invariance ---------------------------------------------------------


def gauge_numerator(a: int, lead: int, row: dict, steps: Iterable[tuple[tuple, int]]) -> int:
    """<dc,p> A(p) - sum_q <dc,q> B(p,q) over op.unit, with a = A(p), lead = <dc,p>, p's b_row
    and the faces' steps (q - p, <dc,q>).  The caller checks p and the faces."""
    get = row.get
    return lead * a - sum([s * get(f, 0) for f, s in steps])


def _row_steps(op, faces: SignedChain, p: Cell) -> tuple[dict, list[tuple[tuple, int]]]:
    """p's row and the steps (q - p, <dc,q>) of the faces dc, once p and each face are checked."""
    for q in (p, *faces.cells()):
        op.check_var(q)
    steps = [(tuple(map(sub, q.coords, p.coords)), s) for q, s in faces.items()]
    return op.b_row(p, max(max(map(abs, f)) for f, _ in steps)), steps


def gauge_residual(op, cube: Cell, p: Cell) -> Fraction:
    """<dc,p> a_p - sum over faces q of <dc,q> b_pq; zero iff L respects c's constraint at p."""
    if cube.dim != 3:
        raise ValueError(f"{cube} is not a 3-cell")
    if cube.scale != p.scale:
        raise ValueError(f"scale mismatch: {cube} vs {p}")
    faces = boundary(cube)
    row, steps = _row_steps(op, faces, p)
    return gauge_numerator(op.a_int(p), faces.coefficient(p), row, steps) * op.unit


def solve_base_coefficient(op, cube: Cell, p: Cell) -> Fraction:
    """The a_p value forced by the gauge condition at (cube, p).

    Uses only the operator's b-table: a_p = sum_q <dc,q> b_pq / <dc,p>.
    Requires p to be a face of the cube.
    """
    if cube.dim != 3:
        raise ValueError(f"{cube} is not a 3-cell")
    faces = boundary(cube)
    lead = faces.coefficient(p)
    if lead == 0:
        raise ValueError(f"{p} is not a face of {cube}")
    row, steps = _row_steps(op, faces, p)
    return -gauge_numerator(0, 0, row, steps) * op.unit / lead


def default_cubes(d: int, scale: int) -> list[Cell]:
    """Representative 3-cells around the origin: all coords in {-1, 0, 1}."""
    return list(box_cells(scale, (-1,) * d, (1,) * d, dim=3))


def gauge_sweep(op, cubes: Sequence[Cell], radius: int) -> list[ResidualReport]:
    """Gauge residuals for every site; sorted canonically."""
    offsets, labels = _class_offsets(cubes, radius), {}
    return _sweep(_gauge_chunk(op, cube, offsets[_parity(cube)], radius + 1, labels)
                  for cube in cubes)


def _gauge_chunk(op, cube: Cell, offsets: Sequence[tuple], reach: int,
                 labels: dict) -> list[ResidualReport]:
    """Gauge reports at (cube, cube + t); reach bounds f - t for every face offset f."""
    faces = boundary(cube)
    if not all(op.has_var(q) for q in faces.cells()):
        return []
    scale, u = cube.scale, cube.coords
    steps = [(tuple(map(sub, q.coords, u)), s) for q, s in faces.items()]
    lead = dict(steps)

    def numerator(t: tuple) -> int | None:
        p = Cell(scale, map(add, u, t))
        if not op.has_var(p):
            return None
        return gauge_numerator(op.a_int(p), lead.get(t, 0), op.b_row(p, reach),
                               [(tuple(map(sub, f, t)), s) for f, s in steps])

    return _class_reports(_class_row(op, ("gauge", _parity(cube))), "gauge", cube, offsets,
                          op.unit, numerator, labels)


# -- the sweep kernel: one numerator per translation class and offset --------


def _parity(c: Cell) -> tuple[int, ...]:
    return tuple([x & 1 for x in c.coords])


def _class_offsets(centers: Iterable[Cell], radius: int) -> dict:
    """For each parity pattern among centers, the offsets t with c + t a
    plaquette within max-norm radius of a center c of that pattern.

    Which coordinates of c + t are odd depends only on c's pattern, so one
    list serves every center of it.
    """
    return {key: plaquette_offsets(key, radius) for key in {_parity(c) for c in centers}}


def _class_row(op, key: tuple) -> dict:
    """offset -> numerator for one translation class of a sweep condition.

    The module's one translation-invariance decision: a family's row lives in
    its memo and serves every center of the class at every scale.  Any other
    operator gets a fresh row, which one chunk's distinct offsets never hit.
    """
    if isinstance(op, CubicalFamilyOp):
        return op._memo.setdefault(key, {})
    return {}


def _class_reports(row: dict, condition: str, center: Cell, offsets: Sequence[tuple],
                   unit: Fraction, numerator: Callable[[tuple], int | None],
                   labels: dict) -> list[ResidualReport]:
    """Reports at (center, center + t) for each offset t, reading numerators from row.

    numerator(t) runs only on a row miss; it returns None for a site outside
    the operator's universe, which gets no report.  labels is the sweep's
    memo, scale -> {coords: label}: a plaquette seen from several centers
    is formatted once per sweep.
    """
    scale, u = center.scale, center.coords
    head, tail = format_cell(center), "]@" + str(scale)
    seen = labels.setdefault(scale, {})
    new = tuple.__new__
    out = []
    for t in offsets:
        n = row.get(t)
        if n is None:
            n = numerator(t)
            if n is None:
                continue
            row[t] = n
        coords = tuple(map(add, u, t))
        label = seen.get(coords)
        if label is None:
            label = seen[coords] = "[" + ",".join(map(str, coords)) + tail
        out.append(new(ResidualReport, (condition, (head, label), n * unit if n else _ZERO)))
    return out


def _sweep(parts: Iterable[list[ResidualReport]]) -> list[ResidualReport]:
    """Every part's reports, in order, then sorted canonically."""
    reports = list(chain.from_iterable(parts))
    reports.sort()
    return reports


# -- the specialized invariance identity (d=3, tables + reflection rules) ----


def alpha_extended(family: CubicalFamilyOp, i: int, j: int, k: int) -> int:
    """Base-plane interaction table extended to all integers by reflections."""
    if family.d != 3:
        raise ValueError("index-space tables are three-dimensional")
    return family._alpha3(abs(i), abs(j), abs(k))


def beta_extended(family: CubicalFamilyOp, i: int, j: int, k: int) -> int:
    """Cross-plane interaction table extended to all integers by reflections.

    The first index reflects through the base plaquette's center (i -> 1-i,
    orientation sign -1), the second through the shared axis (j -> -j, no
    sign), the third through the transverse hyperplane (k -> -1-k, sign -1).
    """
    if family.d != 3:
        raise ValueError("index-space tables are three-dimensional")
    sign = 1
    if i < 0:
        i = 1 - i
        sign = -sign
    if j < 0:
        j = -j
    if k < 0:
        k = -1 - k
        sign = -sign
    return sign * family._beta3(i, j, k)


def invariance_table_residual(family: CubicalFamilyOp, i: int, j: int, k: int) -> Fraction:
    """Gauge residual at the cube [1+2i,1+2j,1+2k] vs the base plaquette,
    written purely in index space.

    Independent of gauge_residual's canonicalized lookup path: evaluates the
    identity  <dc,p> a_0 + beta(i,j,k) - beta(i+1,j,k) + beta(j,i,k)
    - beta(j+1,i,k) + alpha(i,j,k) - alpha(i,j,k+1)  with stored reflection
    rules; the two paths must agree at every site.
    """
    if (i, j, k) == (0, 0, 0):
        lead = -1
    elif (i, j, k) == (0, 0, -1):
        lead = 1
    else:
        lead = 0
    expr = (
        lead * family.a0
        + beta_extended(family, i, j, k)
        - beta_extended(family, i + 1, j, k)
        + beta_extended(family, j, i, k)
        - beta_extended(family, j + 1, i, k)
        + alpha_extended(family, i, j, k)
        - alpha_extended(family, i, j, k + 1)
    )
    return expr * family.unit


# -- sphere quotient condition ------------------------------------------------


def sphere_condition(op) -> list[Fraction]:
    """a_p - sum_q b_pq per variable; all zero iff L descends modulo sum x_i."""
    out = []
    for p in op.variables():
        total = op.coeff_a(p)
        for q in op.variables():
            total -= op.coeff_b(p, q)
        out.append(total)
    return out


# -- multiscale compatibility -------------------------------------------------


def _child_steps(p: Cell, q: Cell) -> list[tuple[tuple, int]]:
    """The 16 child-pair offsets of (p, q), less 2(q - p), as (step, count) pairs.

    Children sit at 2u + e, so q' - p' = 2(q - p) + (e_q - e_p): the steps
    depend only on the planes of p and q.
    """
    t2 = [2 * (b - a) for a, b in zip(p.coords, q.coords)]
    q_kids = children(q)
    steps = Counter(tuple(map(sub, map(sub, qc.coords, pc.coords), t2))
                    for pc in children(p) for qc in q_kids)
    return list(steps.items())


def _compat_b(row: dict, t: tuple, steps) -> int:
    """4*B(p,q) - sum B(p',q') over child pairs, with t = q - p, read from p's row.

    p's children have p's parity pattern, so its row serves them too; it
    must reach 2|t| + 2.  B is scale-free, so one row serves both scales.
    """
    get = row.get
    t2 = [2 * x for x in t]
    return 4 * get(t, 0) - sum(m * get(tuple(map(add, t2, e)), 0) for e, m in steps)


def compat_residual_a(family: CubicalFamilyOp, p: Cell) -> Fraction:
    """a_n(p) minus the sum of a_{n+1} over p's four children."""
    fine = family.with_scale(family.scale + 1)
    family.check_var(p)
    n = 4 * family.a_int(p) - sum(fine.a_int(c) for c in children(p))
    return n * fine.unit if n else _ZERO


def compat_residual_b(family: CubicalFamilyOp, p: Cell, q: Cell) -> Fraction:
    """b_n(p,q) minus the child-pair sum at scale n+1."""
    family.check_var(p)
    family.check_var(q)
    t = tuple(map(sub, q.coords, p.coords))
    row = family.b_row(p, 2 * max(map(abs, t)) + 2)
    return _compat_b(row, t, _child_steps(p, q)) * (family.unit / 4)


def child_interaction_sum(family: CubicalFamilyOp, p: Cell, q: Cell) -> Fraction:
    """sum of b_{n+1}(p', q') over the 4 x 4 children of p and q."""
    return family.coeff_b(p, q) - compat_residual_b(family, p, q)


def base_plaquettes(d: int, scale: int) -> list[Cell]:
    """One plaquette per plane through the origin cell: coords in {0, 1}."""
    return list(box_cells(scale, (0,) * d, (1,) * d, dim=2))


def compat_sweep(family: CubicalFamilyOp, plaquettes: Sequence[Cell],
                 radius: int) -> list[ResidualReport]:
    """Both compatibility residuals over (p, q) windows; sorted canonically."""
    offsets, labels = _class_offsets(plaquettes, radius), {}
    return _sweep(_compat_chunk(family, p, offsets[_parity(p)], radius, labels)
                  for p in plaquettes)


def _compat_chunk(family: CubicalFamilyOp, p: Cell, offsets: Sequence[tuple],
                  radius: int, labels: dict) -> list[ResidualReport]:
    """compat_a at p and compat_b at p + t for each offset t.

    Each q = p + t is a plaquette by the offsets' construction, so neither q
    nor its children are built: t's parity pattern picks q's plane, whose
    child steps are taken on the plane's first row miss from its plaquette
    among base_plaquettes, the one with coordinates pattern xor (t & 1).  A
    chunk whose class row is warm takes none.
    """
    out = [ResidualReport("compat_a", (format_cell(p),), compat_residual_a(family, p))]
    row = family.b_row(p, 2 * radius + 2)
    pattern = _parity(p)
    steps: dict = {}

    def numerator(t: tuple) -> int:
        plane = tuple([x & 1 for x in t])
        plane_steps = steps.get(plane)
        if plane_steps is None:
            q = Cell(p.scale, tuple(map(xor, pattern, plane)))
            plane_steps = steps[plane] = _child_steps(p, q)
        return _compat_b(row, t, plane_steps)

    out += _class_reports(_class_row(family, ("compat", pattern)), "compat_b", p, offsets,
                          family.unit / 4, numerator, labels)
    return out


# -- quotient well-definedness ------------------------------------------------


WELLDEFINED_MAX_DEGREE = 3
WELLDEFINED_MAX_TERMS = 3
WELLDEFINED_POOL_RADIUS = 2


def welldefined_property(op, ideal: LinearIdeal, trials: int, seed: int) -> list[ResidualReport]:
    """reduce(L(f_c * g)) for every generator f_c and seeded random g.

    All normal forms must vanish.  For lattice ideals the random polynomials
    draw variables from all plaquettes within max-norm WELLDEFINED_POOL_RADIUS
    of the generators' variables, not just the generators' own faces;
    interactions reach diagonally, so descent failures can involve nearby
    outside plaquettes.  A failing site reports, as its value, the coefficient
    of the smallest surviving monomial in canonical order (a deterministic
    nonzero witness).

    Each probe runs on integers: f_c and g are scaled to integer terms over
    their denominators, multiplied, checked against the universe (the
    variables of f_c and g, those of their product unless it is zero), sent
    through _apply_int and through the ideal's memoized _reduce_int.  Only a
    failing site makes a Fraction.  A variable is checked once per run, by
    the first probe that sees it; later probes check only the variables no
    earlier one has, in the same canonical order, so an error names the
    same variable.  The pool is known before the first probe, so the run's
    one pair memo is _pair_memo(op, pool): a family's cross pairs read rows
    sized once for the pool, with no regrowth.
    """
    rng = random.Random(seed)
    pool = _probe_pool(op, ideal)
    if not pool:
        return []
    generators = [(*_integer_terms(f_c), f_c.variables()) for f_c in ideal.generators]
    pairs = _pair_memo(op, pool)
    checked: set = set()
    unit, den = op.unit, ideal.den
    reports = []
    for t in range(trials):
        g = _random_polynomial(rng, pool)
        g_terms, den_g = _integer_terms(g)
        g_vars = g.variables()
        for idx, (f_terms, den_f, f_vars) in enumerate(generators):
            value = _ZERO
            if f_terms and g_terms:
                new = (f_vars | g_vars) - checked
                _check_vars(op, new)
                checked |= new
                image = _apply_int(op, _mul_terms(f_terms, g_terms), pairs)
                depth = max(map(_mono_degree, image), default=0)
                normal = ideal._reduce_int(image, depth)
                survivors = [m for m, n in normal.items() if n]
                if survivors:
                    n = normal[min(survivors, key=_mono_sort_key)]
                    value = n * unit / (den_f * den_g * den**depth)
            reports.append(ResidualReport("welldefined", (f"gen{idx}", f"trial{t}"), value))
    return reports


def _probe_pool(op, ideal: LinearIdeal) -> list:
    """The variables welldefined_property's random polynomials draw from, in str order.

    The generators' variables and every plaquette within max-norm
    WELLDEFINED_POOL_RADIUS of a generator's plaquette, less those outside
    op's universe.  The generator plaquettes are grouped by scale, and
    plaquettes_near deduplicates each group's neighbours per parity class
    as it grows them, with no tuple per (plaquette, offset) pair.
    """
    generator_vars = {v for g in ideal.generators for v in g.variables()}
    centers: dict = {}
    for v in generator_vars:
        if isinstance(v, Cell):
            centers.setdefault(v.scale, []).append(v.coords)
    pool_set = generator_vars | {
        Cell(scale, coords)
        for scale, group in centers.items()
        for coords in plaquettes_near(group, WELLDEFINED_POOL_RADIUS)
    }
    return sorted((v for v in pool_set if op.has_var(v)), key=lambda v: str(v))


def _random_polynomial(rng: random.Random, pool: list) -> Polynomial:
    f = Polynomial.zero()
    for _ in range(rng.randint(1, WELLDEFINED_MAX_TERMS)):
        term = Polynomial.const(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        for _ in range(rng.randint(0, WELLDEFINED_MAX_DEGREE)):
            term = term * Polynomial.var(rng.choice(pool))
        f = f + term
    return f
