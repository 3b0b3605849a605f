"""Residual computations: every condition here must vanish identically.

Three families of checks, all exact:

* gauge residuals -- for a 3-cell c and plaquette p, the quantity
  <dc,p> a_p - sum_q <dc,q> b_pq.  It reads b in one orientation only.  L
  descends to the quotient algebra iff s(c,q) = 2<dc,q> a_q - sum_p <dc,p>
  (b_pq + b_qp) vanishes, and s is twice the gauge residual only for a
  symmetric b.  At d >= 4 b is asymmetric and a gauge pass does not mean
  descent: s is nonzero at 192 of the 936 sites within radius 2 of the
  3-cells of [0,1]^4, and the gauge sweep passes every one.
* compatibility residuals -- coefficients at consecutive scales must be
  related by summation over plaquette children, a_p = sum a_p' and
  b_pq = sum b_p'q'; this is the exact-renormalization property.  compat_a
  is structural: a_int(p) is a0 at every plaquette, so its numerator is
  4 a0 - 4 a0 for every family and override, and a compat pass checks the
  tables through compat_b only.
* quotient well-definedness -- reduce(L(f_c * g)) = 0 for the constraint
  generators f_c and seeded random polynomials g, run on integers
  (welldefined_property).

Lattice residuals are integers over the operator's unit, made a Fraction
once per class and offset; every zero reports one shared Fraction(0), which
passed tests by identity before it compares.  A ResidualReport is a named
tuple (condition, site, value), so its own order is the canonical one.
MAX_SWEEP_SITES bounds a sweep, counted in closed form before any site is
listed.

Numerators read coefficient rows, b_row(p, reach): offset_key(q - p) ->
b_int(p, q), nonzero entries only, which a family and an ExplicitOp both
give, keyed in the operator's radix.  A numerator keys its offsets once and
then does key arithmetic: q - p is key(q - cube) - key(p - cube) for a
gauge site and a child offset 2t + s is 2 key(t) + key(s) for a compat
site, each within the reach its row was fetched at.  Every numerator is
made by its sweep's class builder: gauge_residual and
solve_base_coefficient give _gauge_class a one-cell partner
(_site_numerator), and compat_residual_b reads _compat_class's numerator at
its one offset.

Both sweeps run in one driver, _table_sweep(op, centers, radius,
condition).  A _Condition record holds what differs between them: the
report name, the class rows' memo name, the rows' reach at a radius, a
class builder and compat's per-center report name; gauge_sweep and
compat_sweep each make one call, with _GAUGE or _COMPAT.  A numerator
depends only on the center's translation class (_classes) and the offset t
of its site.  At a class's first center the builder returns (head value,
numerator(t), unit), and the driver tabulates t's site key and n * unit, or
the shared zero, at every offset, filling the class row t -> numerator on a
miss; every later center only labels its sites, about 1 us a site, less
than shipping a report to another process.  A gauge miss reads p = cube + t
from the driver's partner memo; a compat miss is one stencil on p's own
row, 4 B(t) - sum m B(2t + s) over the child steps s = e_q - e_p
(_child_steps).  A descent check would be one more record: a builder that
fetches the faces' rows once per class and reads b_qp from the partner
memo's row for q.

A site key is offset_key, Horner form in a radix that covers the sweep's
box, so a site's key is its center's plus t's and its label is one hit in a
per-scale dict, key -> label (_Labels), made from its key's two memoized
halves.  A sweep returns its reports as it builds them: centers in head
order, then each class's offsets in its offset order.  Nothing sorts the
sites; the CLI sorts only the violations it prints.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import add, itemgetter, sub, xor
from typing import Callable, Iterable, NamedTuple, Sequence

from .cells import (Cell, boundary, box_cell_count, box_cells, children, decode_key, format_cell,
                    offset_key, plaquette_offsets, plaquettes_near, site_radix)
from .operators import CubicalFamilyOp, _apply_int, _index_pairs, _spread
from .poly import (LinearIdeal, Polynomial, _integer_terms, _mono_degree, _mono_from_dict,
                   _mono_sort_key, _mul_terms, _var_key)


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
    """The failing reports, in order: not r.passed, without the property call."""
    return [r for r in reports if r.value is not _ZERO and r.value != 0]


# -- the sweep kernel: one table per translation class -----------------------


def _parity(c: Cell) -> tuple[int, ...]:
    return tuple([x & 1 for x in c.coords])


MAX_SWEEP_SITES = 1_500_000
# welldefined's probes, trials x generators; the CLI counts them before listing a cell
MAX_WELLDEFINED_PROBES = 20_000


def _offset_count(parity: Sequence[int], radius: int) -> int:
    """len(plaquette_offsets(parity, radius)): the plaquettes of the box around the point parity."""
    return box_cell_count([x - radius for x in parity], [x + radius for x in parity], 2)


def sweep_sites(centers: Iterable[Cell], radius: int) -> int:
    """The (center, plaquette) pairs within max-norm radius of the centers, counted in
    closed form: a gauge sweep's sites, a compat sweep's compat_b sites."""
    return sum(n * _offset_count(key, radius) for key, n in Counter(map(_parity, centers)).items())


def box_sweep_sites(lo: Sequence[int], hi: Sequence[int], dim: int, radius: int) -> int:
    """sweep_sites over the dim-cells of the box lo..hi, counted without listing one.

    A center's count depends only on d and its dimension, so each center has as
    many as the point (1,...,1,0,...,0) with dim ones.
    """
    return box_cell_count(lo, hi, dim) * _offset_count([1] * dim + [0] * (len(lo) - dim), radius)


def _class_offsets(centers: Sequence[Cell], radius: int) -> dict:
    """For each parity pattern among centers, the offsets t with c + t a
    plaquette within max-norm radius of a center c of that pattern.

    Which coordinates of c + t are odd depends only on c's pattern, so one
    list serves every center of it.  A sweep of more than MAX_SWEEP_SITES
    sites raises ValueError before any list is built.
    """
    sites = sweep_sites(centers, radius)
    if sites > MAX_SWEEP_SITES:
        raise ValueError(f"{sites} sweep sites exceed the maximum {MAX_SWEEP_SITES}")
    return {key: plaquette_offsets(key, radius) for key in {_parity(c) for c in centers}}


def _classes(op) -> tuple[Callable, Callable]:
    """op's translation classes: (class_key, class_row).

    class_key(scale, coords) names a cell's class, whose cells have the same
    sweep values at the same offsets; class_row(memo name, key) is its row,
    offset -> numerator.  A family is invariant under even translations, and
    cells with one parity pattern differ by one, so its class is (scale,
    pattern), the scale naming the universe, and its rows are scale-free, in
    its memo under (memo name, pattern).  Any other operator's class is the
    cell itself, with a fresh row.  This is the module's one test of the
    operator's class.
    """
    if isinstance(op, CubicalFamilyOp):
        memo = op._memo
        return (lambda scale, coords: (scale, tuple([x & 1 for x in coords])),
                lambda condition, key: memo.setdefault((condition, key[1]), {}))
    return Cell, lambda condition, key: {}


def _site_keys(centers: Sequence[Cell], radius: int, offsets: dict) -> tuple[int, dict]:
    """A sweep's radix and its offset keys: pattern -> [offset_key(t, radix) for t in offsets].

    In the site_radix of the centers every site coordinate is a digit, so
    offset_key is injective on the sweep's box, and a site's key is its
    center's plus its offset's.
    """
    radix = site_radix([c.coords for c in centers], radius)
    return radix, {pattern: [offset_key(t, radix) for t in ts] for pattern, ts in offsets.items()}


class _Block(dict):
    """offset_key(coords) -> prefix + the coordinates joined by commas + suffix, for n
    coordinates in the radix, formatted on first use."""

    __slots__ = ("radix", "n", "prefix", "suffix")

    def __init__(self, radix: int, n: int, prefix: str, suffix: str):
        super().__init__()
        self.radix, self.n, self.prefix, self.suffix = radix, n, prefix, suffix

    def __missing__(self, key: int) -> str:
        text = self[key] = (self.prefix + ",".join(map(str, decode_key(key, self.radix, self.n)))
                            + self.suffix)
        return text


class _Labels(dict):
    """offset_key(coords) -> plaquette label at one scale and dimension, formatted on first use.

    A key splits at B = radix^h, h = ceil(d / 2): its low block, the centred
    remainder mod B, is the key of the last h coordinates, and its high block,
    (key - low) / B, the key of the first d - h.  Each block's text is
    memoized on its own, "[x0,x1," and "x2,x3]@scale" at d = 4, so a new label
    is one concatenation of two dict hits and decode_key runs once per
    distinct block, not once per label.  At d = 1 the high block is empty and
    its text is "[".
    """

    __slots__ = ("block", "half", "heads", "tails")

    def __init__(self, scale: int, d: int, radix: int):
        super().__init__()
        h = (d + 1) // 2
        self.block = radix**h
        self.half = self.block // 2
        self.heads = _Block(radix, d - h, "[", "," if d > h else "")
        self.tails = _Block(radix, h, "", "]@" + str(scale))

    def __missing__(self, key: int) -> str:
        block, half = self.block, self.half
        low = (key + half) % block - half
        label = self[key] = self.heads[(key - low) // block] + self.tails[low]
        return label


class _Condition(NamedTuple):
    """A swept condition: its reports' name, its class rows' memo name, its rows' reach at a
    radius, its class builder and, if it reports one value per center, that report's name."""

    name: str
    memo: str
    reach: Callable[[int], int]
    build: Callable
    head: str | None = None


def _table_sweep(op, centers: Sequence[Cell], radius: int,
                 condition: _Condition) -> list[ResidualReport]:
    """condition's reports at every center and every plaquette within max-norm radius of it:
    the head reports, if any, then each center's sites, centers in head-label order and
    each center's sites in its class's offset order.

    Each class's table is built at its first center in the given order, so a
    class fails at the same center whatever order the heads sort in; then
    the centers are listed in head order, by a stable sort that keeps
    duplicate centers adjacent, so the list does not depend on the order of
    distinct centers.  build(op, center, reach, partner) gives (head value,
    numerator(t), unit), or None for a class with no sites; a numerator of
    None skips its offset.  partner(scale, coords) is the sweep's memo, by
    class, of (a_int(p), b_row(p, reach)), or None for a p outside the
    universe.  Class rows stay keyed by the offset tuple: offsets past the
    radix's capacity, whose partners lie outside the universe, must miss.
    """
    offsets, (class_key, class_row) = _class_offsets(centers, radius), _classes(op)
    radix, offset_keys = _site_keys(centers, radius, offsets)
    reach = condition.reach(radius)
    classes, partners, labels = {}, {}, {}

    def partner(scale: int, coords: tuple) -> tuple | None:
        key = class_key(scale, coords)
        if key not in partners:
            p = Cell(scale, coords)
            partners[key] = (op.a_int(p), op.b_row(p, reach)) if op.has_var(p) else None
        return partners[key]

    listed = []
    for c in centers:
        key = class_key(c.scale, c.coords)
        table = classes.get(key)
        if table is None:
            row, built = class_row(condition.memo, key), condition.build(op, c, reach, partner)
            head, values = None, []
            if built is not None:
                head, numerator, unit = built
                pattern = _parity(c)
                for t, k in zip(offsets[pattern], offset_keys[pattern]):
                    n = row.get(t)
                    if n is None:
                        n = numerator(t)
                        if n is None:
                            continue
                        row[t] = n
                    values.append((k, n * unit if n else _ZERO))
            table = classes[key] = (head, values)
        listed.append((format_cell(c), c, table))
    listed.sort(key=itemgetter(0))
    reports = ([ResidualReport(condition.head, (h,), table[0]) for h, _, table in listed]
               if condition.head else [])
    for h, c, table in listed:
        reports += _site_reports(condition.name, c, h, table[1], labels, radix)
    return reports


def _site_reports(condition: str, center: Cell, head: str, values: Sequence[tuple],
                  labels: dict, radix: int) -> list[ResidualReport]:
    """Reports at (center, center + t) for the (key(t), value) pairs of center's class, in
    their order.

    labels is the sweep's memo, (scale, d) -> _Labels: a plaquette seen from
    several centers is formatted once per sweep.  A site's key is its
    center's plus t's.
    """
    scale, u = center.scale, center.coords
    seen = labels.get((scale, len(u)))
    if seen is None:
        seen = labels[scale, len(u)] = _Labels(scale, len(u), radix)
    base = offset_key(u, radix)
    new = tuple.__new__
    return [new(ResidualReport, (condition, (head, seen[base + k]), value)) for k, value in values]


# -- gauge invariance ---------------------------------------------------------


def gauge_numerator(a: int, lead: int, row: dict, faces: Iterable[tuple[int, int]],
                    t: int) -> int:
    """<dc,p> A(p) - sum_q <dc,q> B(p,q) over op.unit, with a = A(p), lead = <dc,p>, p's b_row,
    the faces (key(q - cube), <dc,q>) and t = key(p - cube), keys in op's radix, so that
    key(q - p) = key(q - cube) - t.  The caller checks p and the faces, and fetched the row at
    a reach that covers every q - p."""
    get = row.get
    return lead * a - sum([s * get(f - t, 0) for f, s in faces])


def _face_steps(faces: dict, u: tuple, radix: int) -> list[tuple[int, int]]:
    """The faces' steps (key(q - u), <dc,q>) from the cube's coordinates u."""
    return [(offset_key(map(sub, q.coords, u), radix), s) for q, s in faces.items()]


def _site_numerator(op, cube: Cell, p: Cell, read_a: bool) -> int:
    """The gauge numerator at (cube, p), with a_p read or taken as 0, once p and each face are
    checked: _gauge_class's, with the one-cell partner (a_p or 0, b_row(p, |p - cube| + 1))."""
    for q in (p, *boundary(cube)):
        op.check_var(q)
    t = tuple(map(sub, p.coords, cube.coords))
    reach = max(map(abs, t)) + 1
    found = (op.a_int(p) if read_a else 0, op.b_row(p, reach))
    return _gauge_class(op, cube, reach, lambda scale, coords: found)[1](t)


def gauge_residual(op, cube: Cell, p: Cell) -> Fraction:
    """<dc,p> a_p - sum over faces q of <dc,q> b_pq: the gauge residual at (cube, p)."""
    if cube.dim != 3:
        raise ValueError(f"{cube} is not a 3-cell")
    if cube.scale != p.scale:
        raise ValueError(f"scale mismatch: {cube} vs {p}")
    return _site_numerator(op, cube, p, True) * op.unit


def solve_base_coefficient(op, cube: Cell, p: Cell) -> Fraction:
    """The a_p value forced by the gauge condition at (cube, p).

    Uses only the operator's b-table: a_p = sum_q <dc,q> b_pq / <dc,p>.
    Requires p to be a face of the cube.
    """
    if cube.dim != 3:
        raise ValueError(f"{cube} is not a 3-cell")
    lead = boundary(cube).get(p, 0)
    if lead == 0:
        raise ValueError(f"{p} is not a face of {cube}")
    return -_site_numerator(op, cube, p, False) * op.unit / lead


def default_cubes(d: int, scale: int) -> list[Cell]:
    """Representative 3-cells around the origin: all coords in {-1, 0, 1}."""
    return list(box_cells(scale, (-1,) * d, (1,) * d, dim=3))


def gauge_sweep(op, cubes: Sequence[Cell], radius: int) -> list[ResidualReport]:
    """Gauge residuals for every site: centers in head-label order, then each class's
    offsets."""
    return _table_sweep(op, cubes, radius, _GAUGE)


def _gauge_class(op, cube: Cell, reach: int, partner: Callable) -> tuple | None:
    """(None, numerator, op.unit) for cube's class, or None when a face is outside the universe:
    numerator(t) is the gauge numerator at (cube, cube + t) over partner's row for p = cube + t,
    or None outside the universe.  reach bounds f - t for every face offset f."""
    faces = boundary(cube)
    if not all(map(op.has_var, faces)):
        return None
    scale, u, radix = cube.scale, cube.coords, op.radix
    steps = _face_steps(faces, u, radix)
    lead = dict(steps)

    def numerator(t: tuple) -> int | None:
        found = partner(scale, tuple(map(add, u, t)))
        if found is None:
            return None
        kt = offset_key(t, radix)
        return gauge_numerator(found[0], lead.get(kt, 0), found[1], steps, kt)

    return None, numerator, op.unit


_GAUGE = _Condition("gauge", "gauge", lambda radius: radius + 1, _gauge_class)


# -- the specialized invariance identity (d=3, tables + reflection rules) ----


def alpha_extended(family: CubicalFamilyOp, i: int, j: int, k: int) -> int:
    """Base-plane interaction table extended to all integers by reflections."""
    if family.d != 3:
        raise ValueError("index-space tables are three-dimensional")
    return family._entry("alpha", (abs(i), abs(j), abs(k)))


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
    return sign * family._entry("beta", (i, j, k))


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
    """a_p - sum_q b_pq per variable.  L descends modulo sum x_i iff every a_q - sum_p (b_pq +
    b_qp) / 2 is zero, so iff these are all zero only for a symmetric b, as a sphere's is.
    For a symmetric b they are (C 1)_p / 2, C covariance_window's matrix.  This stays a separate
    route: it reads coeff_a and b_pq through the Fraction API, unsymmetrized, so it checks the
    pair table rather than repeating it."""
    out = []
    for p in op.variables():
        total = op.coeff_a(p)
        for q in op.variables():
            total -= op.coeff_b(p, q)
        out.append(total)
    return out


# -- multiscale compatibility -------------------------------------------------


def _child_steps(p_pattern: Sequence[int], q_pattern: Sequence[int],
                 radix: int) -> list[tuple[int, int]]:
    """The 16 steps e_q - e_p of the child pairs of plaquettes p and q, as (key(step), count)
    pairs keyed in the radix, from the parity patterns of p and q.

    The children of a plaquette u in the plane of axes a, b sit at 2u + e
    with e = +-e_a +-e_b, so every child pair has q' - p' = 2(q - p) + (e_q -
    e_p): the steps depend only on the two planes.  offset_key is linear, so
    a plane's four corner keys are +-w_a +-w_b with w_i = key(e_i), and each
    step's key is a q corner's less a p corner's.
    """
    d = len(p_pattern)

    def corners(pattern) -> list[int]:
        wa, wb = [radix ** (d - 1 - i) for i, x in enumerate(pattern) if x]
        return [-wa - wb, -wa + wb, wa - wb, wa + wb]

    q_corners = corners(q_pattern)
    counts: dict = {}
    for ep in corners(p_pattern):
        for eq in q_corners:
            counts[eq - ep] = counts.get(eq - ep, 0) + 1
    return list(counts.items())


def compat_residual_a(family: CubicalFamilyOp, p: Cell) -> Fraction:
    """a_n(p) minus the sum of a_{n+1} over p's four children."""
    fine = family.with_scale(family.scale + 1)
    family.check_var(p)
    n = 4 * family.a_int(p) - sum(fine.a_int(c) for c in children(p))
    return n * fine.unit if n else _ZERO


def compat_residual_b(family: CubicalFamilyOp, p: Cell, q: Cell) -> Fraction:
    """b_n(p,q) minus the child-pair sum at scale n+1: _compat_class's numerator at q - p."""
    family.check_var(p)
    family.check_var(q)
    t = tuple(map(sub, q.coords, p.coords))
    _, numerator, unit = _compat_class(family, p, 2 * max(map(abs, t)) + 2, None)
    return numerator(t) * unit


def child_interaction_sum(family: CubicalFamilyOp, p: Cell, q: Cell) -> Fraction:
    """sum of b_{n+1}(p', q') over the 4 x 4 children of p and q."""
    return family.coeff_b(p, q) - compat_residual_b(family, p, q)


def base_plaquettes(d: int, scale: int) -> list[Cell]:
    """One plaquette per plane through the origin cell: coords in {0, 1}."""
    return list(box_cells(scale, (0,) * d, (1,) * d, dim=2))


def compat_sweep(family: CubicalFamilyOp, plaquettes: Sequence[Cell],
                 radius: int) -> list[ResidualReport]:
    """Both compatibility residuals over (p, q) windows: the compat_a reports, then the
    compat_b ones, centers in head-label order, then each class's offsets."""
    return _table_sweep(family, plaquettes, radius, _COMPAT)


def _compat_class(family: CubicalFamilyOp, p: Cell, reach: int, partner: Callable) -> tuple:
    """(compat_a at p, numerator, unit / 4) for p's class: numerator(t) is compat_b's at
    (p, p + t), 4 B(t) - sum m B(2t + e) over the child steps (e, m), read from p's row.

    p's children have p's parity pattern, so its row serves them too, at
    key 2 key(t) + key(e); reach must be at least 2|t| + 2.  B is
    scale-free, so one row serves both scales.  Each q = p + t is a
    plaquette by the offsets' construction, or checked by compat_residual_b,
    so neither q nor its children are built: q's parity pattern is p's xor
    t's, and the child steps of each plane of q come from _child_steps on
    the first miss that needs them.
    """
    a_value = compat_residual_a(family, p)
    get, pattern, radix = family.b_row(p, reach).get, _parity(p), family.radix
    steps: dict = {}

    def numerator(t: tuple) -> int:
        plane = tuple([x & 1 for x in t])
        plane_steps = steps.get(plane)
        if plane_steps is None:
            plane_steps = steps[plane] = _child_steps(pattern, tuple(map(xor, pattern, plane)),
                                                      radix)
        kt = offset_key(t, radix)
        return 4 * get(kt, 0) - sum([m * get(2 * kt + e, 0) for e, m in plane_steps])

    return a_value, numerator, family.unit / 4


_COMPAT = _Condition("compat_b", "compat", lambda radius: 2 * radius + 2, _compat_class,
                     "compat_a")


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
    nonzero witness).  A trial whose g is constant or zero checks nothing, since
    L(f_c g) = g L(f_c) = 0 for every operator, yet its sites count: seed 41
    draws 11 such g in 100 trials, 88 of 800 sites on default_cubes(3, 0).

    Each probe runs on integers: f_c and g are scaled to integer terms over
    their denominators, multiplied, checked against the universe (the
    variables of f_c and g, those of their product unless it is zero), sent
    through _apply_int and through the ideal's memoized _reduce_int.  Only a
    failing site makes a Fraction.  A variable is checked once per run, by
    the first probe that sees it; later probes check only the variables no
    earlier one has, in the same canonical order, so an error names the
    same variable.

    Every trial's g is drawn first, over the pool in its str order, so every
    rng draw is the one the seed fixes.  The run then numbers only the
    variables it reads, the draws' and the generators', in _var_key order,
    and probes over the indices: the ideal is relabelled (its rows renamed,
    not eliminated again), the generators and draws with it.  Index order is
    _var_key order, so monomials merge, reduce and pick their witness as the
    variables' would.  The run's one pair memo is _index_pairs over those
    variables: a family's cross pairs read rows sized once at the pool's
    spread, with no regrowth, at key differences.  That spread is the
    in-universe generator variables' plus twice WELLDEFINED_POOL_RADIUS, with
    no pass over the pool: the pool lies within the radius of them, and the
    radius is even, so one moved by it along an axis is a pool plaquette.
    """
    rng = random.Random(seed)
    pool = _probe_pool(op, ideal)
    if not pool:
        return []
    draws = [_random_polynomial(rng, pool) for _ in range(trials)]
    generator_vars = set().union(*(f_c.variables() for f_c in ideal.generators))
    variables = sorted(generator_vars.union(*(g.variables() for g in draws)), key=_var_key)
    index = {v: i for i, v in enumerate(variables)}
    ideal = ideal.relabelled(index)
    generators = [(*_integer_terms(f_c), f_c.variables()) for f_c in ideal.generators]
    reach = (_spread(filter(op.has_var, generator_vars)) + 2 * WELLDEFINED_POOL_RADIUS
             if isinstance(op, CubicalFamilyOp) else None)
    pairs = _index_pairs(op, variables, reach)
    checked: set = set()
    unit, den = op.unit, ideal.den
    reports = []
    for t, g in enumerate(draws):
        g_terms, den_g = _integer_terms(g)
        g_terms = {tuple([(index[v], e) for v, e in m]): n for m, n in g_terms.items()}
        g_vars = {index[v] for v in g.variables()}
        for idx, (f_terms, den_f, f_vars) in enumerate(generators):
            value = _ZERO
            if f_terms and g_terms:
                new = (f_vars | g_vars) - checked
                for i in sorted(new):
                    op.check_var(variables[i])
                checked |= new
                image = _apply_int(_mul_terms(f_terms, g_terms), pairs)
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
    return sorted(filter(op.has_var, pool_set), key=str)


def _random_polynomial(rng: random.Random, pool: list) -> Polynomial:
    """A seeded random polynomial over pool, its term map built directly.

    Each of one to WELLDEFINED_MAX_TERMS terms is a coefficient n/k times up
    to WELLDEFINED_MAX_DEGREE variables drawn from pool; terms that cancel
    are dropped by Polynomial.
    """
    terms: dict = {}
    for _ in range(rng.randint(1, WELLDEFINED_MAX_TERMS)):
        c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        powers: dict = {}
        for _ in range(rng.randint(0, WELLDEFINED_MAX_DEGREE)):
            v = rng.choice(pool)
            powers[v] = powers.get(v, 0) + 1
        m = _mono_from_dict(powers)
        terms[m] = terms.get(m, 0) + c
    return Polynomial(terms)
