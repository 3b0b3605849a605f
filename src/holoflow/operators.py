"""Second-order differential operators on holonomy polynomials.

An operator has the shape  L = sum_p a_p d_p^2 - sum_{p,q} b_pq d_p d_q,
where the b-sum runs over all ordered pairs including the diagonal (so the
cross coefficients act through their symmetric part).  Two classes state
the coefficients:

* CubicalFamilyOp -- the translation/rotation/reflection-invariant family on
                    the scale-n dyadic lattice of R^d (d >= 3), defined by a
                    base coefficient table at scale 0 and the 4^-n scaling;
                    its "alt3" variant is the second d=3 solution, with
                    a_0 = 1 and only same-plane interactions.
* ExplicitOp     -- finite tables, used for faults and for the euclidean
                    image of a SphereOp.  SphereOp is the ExplicitOp of n
                    plaquette areas a_i summing to 1, with b_ij = a_i a_j.

Cubical coefficients are defined by canonicalization (_b_table, the pull
route): the pair (p, q) is moved by a signed lattice symmetry until p is
the base plaquette [1,1,0,...,0], q's plane is classified against the base
plane (parallel, sharing one axis, or disjoint), indices are reduced to the
principal orthant by reflections, and the accumulated orientation signs
multiply the stored table value.  Reflections through an axis the moving
plaquette's plane contains reverse its orientation; this is where all the
signs come from.

Each family's tables are stated once, as point and ray rules in _FAMILIES;
_entry reads a table value from them, and _nonzero lists their points
within index bounds.

Lookups run that map backwards.  Almost every b_pq is zero, so b_row(p,
reach) gives p's sparse row, offset_key(q - p) -> b_int(p, q), holding only
the nonzero entries.  A row is keyed by an integer: the offset in Horner
form, in a radix the operator owns (offset_key), so a consumer reads q - p
as key(q) - key(p) and a child offset 2t + e as 2 key(t) + key(e), with no
tuple built.  The digits are centred, so a key is injective, additive and
order-preserving on the offsets whose every coordinate lies within the
radix's capacity (key_capacity); a family's radix, 2 ** (60 // d), keeps
keys within two CPython digits, and b_row raises ValueError for a reach
past its capacity before it builds anything, so no key aliases.  A family
keeps one row per coordinate-parity class of p, pushed from each nonzero
base-table entry through the inverse of the canonicalization (_push_row);
_b_table stays as the independent oracle the rows are tested against.  An
ExplicitOp's radix covers its cells' coordinate span, and its rows hold its
same-scale cell partners and are complete at any reach.  verify.py reads
every gauge and compatibility numerator from these rows, and both
classes' support (behind the tables command) is one walk of a row,
_row_support.

Every operator also exposes its coefficients as integers over one unit
(a_int, b_int, unit): 4^-n for a family at scale n, 1/lcm of the entry
denominators for an ExplicitOp, 1/lcm(area denominators)^2 for a SphereOp.
An ExplicitOp stores only these integer tables.  The residual sweeps in
verify.py compute with them, and so does _apply_int, the one kernel of L:
it returns L's coefficients over the unit, integers for integer input.
apply_operator checks the variables, runs it and multiplies by the unit
once; exp_state's series and the well-definedness probes run it directly,
sharing one memo of looked-up pair coefficients across calls: _pair_memo
over the variables themselves, _index_pairs over indices into a list of
them.  Only these two state L's pair coefficients; _symbol_matrix reads
_index_pairs into L's symbol, the one integer matrix of L(x_p x_q), which
covariance_window and to_euclidean's check use.  coeff_a/coeff_b are the
checked Fraction form.  The rows live in cache slots: they only cache pure
values and never enter __eq__.

Operators are immutable and their lookups are pure, so instances may be
shared freely within a process.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._frozen import Frozen

from .cells import (Cell, box_cells, decode_key, format_cell, key_capacity, offset_key,
                    parse_cell)
from .poly import Polynomial, _var_key


# A family's radix is 2 ** (_KEY_BITS // d): its offset keys stay below 2 ** 59,
# two 30-bit CPython digits.
_KEY_BITS = 60


def _spread(cells: Iterable[Cell]) -> int:
    """The largest per-axis coordinate range of the cells: it bounds every offset between two."""
    return max((max(c) - min(c) for c in zip(*(p.coords for p in cells))), default=0)


def apply_operator(op, f: Polynomial) -> Polynomial:
    """Apply L to a polynomial: sum_p a_p d_p^2 f - sum_{p,q} b_pq d_p d_q f.

    Both sums run over the variables of f (all other derivatives vanish);
    the b-sum includes the diagonal.  Degree drops by exactly two on every
    homogeneous part, so linear polynomials map to zero.  Every variable of
    f is checked once, in canonical order; _apply_int then computes the
    coefficients over op.unit, which multiplies once at the end.
    """
    _check_vars(op, f.variables())
    unit = op.unit
    return Polynomial({m: unit * x for m, x in _apply_int(f.terms, _pair_memo(op)).items()})


def _check_vars(op, variables) -> None:
    """Check each variable against op's universe, in canonical order."""
    for v in sorted(variables, key=_var_key):
        op.check_var(v)


def _pair_memo(op) -> tuple[dict, dict, Callable, Callable]:
    """A fresh pair memo for _apply_int over op's variables: (diag, cross, diag_int, cross_int).

    diag_int(v) is a_int(v) - b_int(v, v) and cross_int(p, q) is b_int(p, q)
    + b_int(q, p), each made by lookups when _apply_int first meets it, so a
    family's rows grow only as far as the pairs met need.
    """
    a_int, b_int = op.a_int, op.b_int
    return {}, {}, lambda v: a_int(v) - b_int(v, v), lambda p, q: b_int(p, q) + b_int(q, p)


def _index_pairs(op, variables: Sequence, reach: int | None = None
                 ) -> tuple[dict, dict, Callable, Callable]:
    """_pair_memo's contract for monomials over the indices of variables: i stands for variables[i].

    A family reads diag_int(i) = a_int - row_i[0] and cross_int(i, j) =
    row_i[k_j - k_i] + row_j[k_i - k_j], with k_i the offset key of variable
    i's coordinates and row_i = b_row(variables[i], reach).  reach defaults to
    the _spread of the variables in its universe, which bounds every offset
    between two of them; a caller may give a larger one, such as the spread
    of a pool the variables were drawn from.  b_row memoizes one row per
    parity class, so each class is pushed once at that reach and no lookup
    regrows a row.  A variable outside the universe gets no row; the caller
    checks every variable of a monomial before _apply_int reads its pairs.
    Any other operator reads _pair_memo's lookups at variables[i].
    """
    if isinstance(op, CubicalFamilyOp):
        a_int, has_var, radix = op.a_int, op.has_var, op.radix
        reach = _spread(filter(has_var, variables)) if reach is None else reach
        table = [(offset_key(v.coords, radix), op.b_row(v, reach)) if has_var(v) else None
                 for v in variables]

        def diag_int(i: int) -> int:
            return a_int(variables[i]) - table[i][1].get(0, 0)

        def cross_int(i: int, j: int) -> int:
            ki, row_i = table[i]
            kj, row_j = table[j]
            return row_i.get(kj - ki, 0) + row_j.get(ki - kj, 0)

        return {}, {}, diag_int, cross_int
    _, _, diag, cross = _pair_memo(op)
    return {}, {}, lambda i: diag(variables[i]), lambda i, j: cross(variables[i], variables[j])


def _symbol_matrix(op, variables: Sequence) -> list[list[int]]:
    """L's symbol over op.unit: the symmetric integer S with S[i][j] unit = L(x_i x_j).

    2 diag_int(i) on the diagonal and -cross_int(i, j) off it, from
    _index_pairs: 2 a delta - (b + b^T), so L(f^2) = xi^T S xi unit for f =
    sum xi_i x_i.  The caller checks the variables.
    """
    _, _, diag_int, cross_int = _index_pairs(op, variables)
    n = len(variables)
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 2 * diag_int(i)
        for j in range(i + 1, n):
            c = cross_int(i, j)
            if c:
                row[j] = rows[j][i] = -c
    return rows


def _apply_int(terms: Mapping, pairs: tuple[dict, dict, Callable, Callable]) -> dict:
    """L applied to {monomial: x}, as coefficients over op.unit; the caller checks the variables.

    Integer x give integer coefficients.  The second derivatives are taken
    per monomial.  A term x * prod v_i^e_i contributes (a_i - b_ii) e_i
    (e_i - 1) x at v_i^(e_i - 2) for each e_i >= 2, and, since d_i d_j =
    d_j d_i, -(b_ij + b_ji) e_i e_j x with both exponents lowered by one for
    each pair i < j of its factors.  The new monomial is a slice of the old
    tuple with one or two exponents lowered or dropped, so it stays sorted.
    Only pairs that share a monomial are looked up, each once per pair
    memo: pairs is (diag, cross, diag_int, cross_int) from _pair_memo or
    _index_pairs, and the memo fills v -> diag_int(v) = a_vv - b_vv and
    (v, w) -> -cross_int(v, w) over op.unit, for as many calls on op as the
    caller likes.  Monomials whose contributions cancel stay in the result
    with value 0.
    """
    diag, cross, diag_int, cross_int = pairs
    out: dict = {}
    for m, x in terms.items():
        n = len(m)
        for i in range(n):
            vi, ei = m[i]
            if ei >= 2:
                c = diag.get(vi)
                if c is None:
                    c = diag[vi] = diag_int(vi)
                if c:
                    lowered = ((vi, ei - 2),) if ei > 2 else ()
                    mm = m[:i] + lowered + m[i + 1:]
                    y = c * ei * (ei - 1) * x
                    if mm in out:
                        out[mm] += y
                    else:
                        out[mm] = y
            lowered_i = m[:i] + ((vi, ei - 1),) if ei > 1 else m[:i]
            for j in range(i + 1, n):
                vj, ej = m[j]
                key = (vi, vj)
                c = cross.get(key)
                if c is None:
                    c = cross[key] = -cross_int(vi, vj)
                if c:
                    lowered_j = ((vj, ej - 1),) if ej > 1 else ()
                    mm = lowered_i + m[i + 1:j] + lowered_j + m[j + 1:]
                    y = c * ei * ej * x
                    if mm in out:
                        out[mm] += y
                    else:
                        out[mm] = y
    return out


# -- base coefficient tables at scale 0 (principal-orthant indices) ---------

# variant -> its a0 and the rules (base, step, value) of its alpha and beta
# tables.  A rule with step None is the one point base; any other rule is the
# ray base + n*step for every n >= 0.  Steps are non-negative, and no index
# is covered by two rules of one table.  An index that no rule covers is 0.
_FAMILIES = {
    "cubical": {
        "a0": 12,
        "alpha": (((0, 0, 0), None, 2),
                  ((0, 0, 1), (0, 0, 1), -2),
                  ((1, 1, 1), (1, 1, 1), -2)),
        "beta": (((0, 0, 0), None, 2),
                 ((1, 0, 0), None, -2),
                 ((0, 1, 0), None, 1),
                 ((1, 1, 0), None, -1),
                 ((2, 1, 1), (1, 1, 1), -1),
                 ((2, 2, 1), (1, 1, 1), -1)),
    },
    "alt3": {
        "a0": 1,
        "alpha": (((0, 0, 1), (0, 0, 1), -1),),
        "beta": (),
    },
}


def _rule_value(rule: tuple, index: tuple) -> int:
    """The rule's value at index if the rule covers it, else 0."""
    base, step, value = rule
    if step is None:
        return value if index == base else 0
    axis = next(a for a, s in enumerate(step) if s)
    n = (index[axis] - base[axis]) // step[axis]
    return value if n >= 0 and all(b + n * s == x for b, s, x in zip(base, step, index)) else 0


def _rule_points(rule: tuple, ni: int, nj: int, nk: int) -> Iterator[tuple[tuple, int]]:
    """(index, value) for each point of the rule within the index bounds.

    A step is non-negative, so a ray that leaves the bounds never returns.
    """
    base, step, value = rule
    index = base
    while index[0] <= ni and index[1] <= nj and index[2] <= nk:
        yield index, value
        if step is None:
            return
        index = tuple(map(add, index, step))


def _mirrored(c: int) -> tuple:
    """(c, +1) and (-c, +1): a coordinate, or its key, and its reflection, which flips no
    orientation."""
    return ((c, 1), (-c, 1)) if c else ((0, 1),)


def _l1_keys(weights: Sequence[int], cap: int) -> list[list[int]]:
    """by_norm[b]: sum c_i weights[i] for every integer vector c with entries in [-cap, cap]
    and L1 norm b, built one axis at a time."""
    by_norm = [[0]]
    for w in weights:
        grown: list = [[] for _ in range(len(by_norm) + cap)]
        for b, keys in enumerate(by_norm):
            grown[b] += keys
            for c in range(1, cap + 1):
                grown[b + c] += [k + c * w for k in keys]
                grown[b + c] += [k - c * w for k in keys]
        by_norm = grown
    return by_norm


def _orthant_index(index) -> bool:
    return (isinstance(index, tuple) and len(index) == 3
            and all(type(i) is int and i >= 0 for i in index))


def _row_support(op, p: Cell, radius: int) -> Iterator[tuple[Cell, Fraction]]:
    """(q, b_pq) for each q at p's scale with nonzero b_pq within max-norm distance radius of p,
    in cell order, read from p's b_row; a family's or an ExplicitOp's support."""
    op.check_var(p)
    row = op.b_row(p, radius)
    for key in sorted(row):  # the keys' order is the offsets'
        t = decode_key(key, op.radix, len(p.coords))
        if max(map(abs, t)) <= radius:
            yield Cell(p.scale, tuple(map(add, p.coords, t))), row[key] * op.unit


class CubicalFamilyOp(Frozen):
    """An invariant coefficient family on the scale-n dyadic lattice of R^d.

    The base tables alpha0/beta0 give, at scale 0, the interaction of the
    base plaquette [1,1,0,..,0] with a plaquette parallel to it (alpha) or
    sharing exactly one plane axis (beta); plaquettes whose plane is disjoint
    from the base plane do not interact.  In d > 3 dimensions a lookup
    reduces to the d=3 table by summing the transverse offsets.  Every
    coefficient at scale n is 4^-n times its scale-0 value.

    The tables are the family's rules in _FAMILIES.  table_overrides maps
    ("alpha", (i,j,k)) / ("beta", (i,j,k)) / ("a0",) to replacement
    integers; it exists for fault-injection experiments.  An alpha or beta
    override is one more point, which takes precedence over the rules.  An
    index must be three non-negative integers, the principal orthant that
    lookups read: any other index could never be read.

    b_int reads the scale-0 table value from p's row (b_row), keyed by
    offset_key in the family's radix, 2 ** (_KEY_BITS // d).  _b_table
    moves p to the base plaquette by a translation, so one row serves every
    p of a coordinate-parity pattern at every scale.  Rows live in _memo,
    beside verify.py's numerator rows: empty at first, shared by with_scale
    copies, empty again in a perturbed copy.

    In three dimensions the resulting coefficient function is symmetric in
    (p, q).  The transverse-sum reduction prescribed for d >= 4 is not:
    lookups canonicalize on the first argument, and cross-plane pairs exist
    whose two orientations land on inequivalent table patterns (witness in
    the test suite: [0,0,1,1] vs [-3,-2,-1,0] at d=4 gives 0 one way and -1
    the other).  Descent onto the constraint quotient consequently fails for
    d >= 4 even though every probe-first residual vanishes; the d=3 families
    are unaffected.
    """

    __slots__ = ("d", "scale", "variant", "table_overrides", "radix", "_memo")

    def __init__(self, d: int = 3, scale: int = 0, variant: str = "cubical",
                 table_overrides: Mapping | None = None):
        if variant not in _FAMILIES:
            raise ValueError(f"unknown family variant {variant!r}")
        if variant == "alt3" and d != 3:
            raise ValueError("the alt3 family is three-dimensional")
        if d < 3:
            raise ValueError("cubical families need d >= 3")
        overrides = dict(table_overrides) if table_overrides else {}
        for key, value in overrides.items():
            if not (key == ("a0",) or (len(key) == 2 and key[0] in ("alpha", "beta"))):
                raise ValueError(f"bad table override key {key!r}")
            if key[0] != "a0" and not _orthant_index(key[1]):
                raise ValueError(
                    f"{key[0]} override index {key[1]!r} is not three non-negative "
                    "integers; lookups never read it"
                )
            # 2.5 would make float residuals, and True is no table value
            if type(value) is not int:
                raise ValueError(f"{key[0]} override value {value!r} is not an integer")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "scale", int(scale))
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "table_overrides", overrides)
        object.__setattr__(self, "radix", 2 ** (_KEY_BITS // self.d))
        object.__setattr__(self, "_memo", {})

    @classmethod
    def main(cls, d: int = 3, scale: int = 0) -> "CubicalFamilyOp":
        return cls(d=d, scale=scale, variant="cubical")

    @classmethod
    def alt(cls, scale: int = 0) -> "CubicalFamilyOp":
        return cls(d=3, scale=scale, variant="alt3")

    def with_scale(self, scale: int) -> "CubicalFamilyOp":
        """The same family at another scale; the copy shares the scale-free memo."""
        other = CubicalFamilyOp(self.d, scale, self.variant, self.table_overrides)
        object.__setattr__(other, "_memo", self._memo)
        return other

    def perturbed(self, kind: str, index: tuple | None, delta: int) -> "CubicalFamilyOp":
        """A copy with one base-table entry shifted by delta."""
        if kind == "a0":
            key, base = ("a0",), self.a0
        elif kind in ("alpha", "beta"):
            key = (kind, tuple(index))
            base = self._entry(*key) if _orthant_index(key[1]) else 0  # the copy rejects the index
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        overrides = dict(self.table_overrides)
        overrides[key] = base + delta
        return CubicalFamilyOp(self.d, self.scale, self.variant, overrides)

    # -- base tables --------------------------------------------------------

    @property
    def a0(self) -> int:
        if ("a0",) in self.table_overrides:
            return self.table_overrides[("a0",)]
        return _FAMILIES[self.variant]["a0"]

    def _entry(self, kind: str, index: tuple) -> int:
        """The alpha or beta table value at a principal-orthant index: its override, else the rules'."""
        override = self.table_overrides.get((kind, index))
        if override is not None:
            return override
        for rule in _FAMILIES[self.variant][kind]:
            value = _rule_value(rule, index)
            if value:
                return value
        return 0

    @property
    def unit(self) -> Fraction:
        """4^-scale: every coefficient is an integer times this."""
        return Fraction(4) ** (-self.scale)

    # -- universe ------------------------------------------------------------

    def check_var(self, p) -> None:
        if not self.has_var(p):
            raise ValueError(
                f"{p!r} is not a plaquette of the scale-{self.scale} lattice on R^{self.d}"
            )

    def has_var(self, p) -> bool:
        return (isinstance(p, Cell) and p.scale == self.scale and len(p.coords) == self.d
                and sum([c & 1 for c in p.coords]) == 2)

    def base_plaquette(self) -> Cell:
        return Cell(self.scale, (1, 1) + (0,) * (self.d - 2))

    # -- coefficients --------------------------------------------------------

    def coeff_a(self, p: Cell) -> Fraction:
        self.check_var(p)
        return self.a0 * self.unit

    def coeff_b(self, p: Cell, q: Cell) -> Fraction:
        if isinstance(p, Cell) and isinstance(q, Cell) and p.scale != q.scale:
            raise ValueError(f"plaquettes at different scales: {p}, {q}")
        self.check_var(p)
        self.check_var(q)
        return self.b_int(p, q) * self.unit

    def a_int(self, p: Cell) -> int:
        """a_p over unit.  Callers check the universe."""
        return self.a0

    def b_int(self, p: Cell, q: Cell) -> int:
        """The scale-0 table value of (p, q), signs included, read from p's row.

        Reads only coordinates, so it serves every scale of the family:
        b_pq = b_int(p, q) * 4^-n.  Callers check the universe.
        """
        offset = tuple(map(sub, q.coords, p.coords))
        return self.b_row(p, max(map(abs, offset))).get(offset_key(offset, self.radix), 0)

    def b_row(self, p: Cell, reach: int) -> dict:
        """p's row: offset_key(q - p, radix) -> b_int(p, q), holding only the nonzero values.

        It is complete for every offset of max-norm at most reach and may
        hold farther ones, all within key_capacity(radix); a lookup reads
        row.get(key(q) - key(p), 0) for a q within reach.  The row is shared
        by all plaquettes with p's coordinate-parity pattern.  A row of
        smaller reach is rebuilt at the larger of reach and twice its own,
        at most the capacity.  A reach past the capacity, whose offsets the
        keys could alias, raises ValueError before any row is built.
        """
        parity = tuple([c & 1 for c in p.coords])
        held = self._memo.get(parity)
        if held is None or held[0] < reach:
            capacity = key_capacity(self.radix)
            if reach > capacity:
                raise ValueError(f"a row of reach {reach} does not fit the d={self.d} offset keys,"
                                 f" which hold a reach of at most {capacity}")
            if held is not None:
                reach = max(reach, min(2 * held[0], capacity))
            plane = [axis for axis, c in enumerate(parity) if c]
            if len(plane) != 2:
                raise ValueError(f"{p} is not a plaquette")
            held = self._memo[parity] = (reach, self._push_row(*plane, reach))
        return held[1]

    def _push_row(self, pa: int, pb: int, reach: int) -> dict:
        """The nonzero b_int(p, q) by q - p, up to max-norm reach, for p in plane (pa, pb).

        Each nonzero base-table entry is pushed through the inverse of
        _b_table's canonicalization: every offset that _b_table maps onto
        the entry gets the entry times the orientation signs collected on
        the way.  The map is a function of the offset, so no offset is
        reached twice.  The index bounds keep every pushed offset within
        reach; the entries cost the row's size, not its box's.  A key is a
        sum of per-axis contributions, coordinate times the axis's weight in
        the radix (offset_key is linear): each option below is one axis's
        contribution and sign, and the doubled transverse vectors are keyed
        once per set of transverse axes, by L1 norm (_l1_keys); every pick
        and entry of the row adds their keys.
        """
        d, radix = self.d, self.radix
        weight = [radix ** (d - 1 - axis) for axis in range(d)]
        rest = tuple([axis for axis in range(d) if axis != pa and axis != pb])
        half = reach // 2
        row: dict = {}
        keyed: dict = {}

        def push(value, options, transverse, budget):
            # one offset per choice of (key, sign) on each axis, plus twice
            # every vector of L1 norm budget on the transverse axes
            by_norm = keyed.get(transverse)
            if by_norm is None:
                by_norm = keyed[transverse] = _l1_keys([2 * weight[axis] for axis in transverse],
                                                       half)
            if budget >= len(by_norm):
                return
            keys = by_norm[budget]
            for picks in itertools.product(*options):
                base, sign = 0, value
                for c, s in picks:
                    base += c
                    sign *= s
                for k in keys:
                    row[base + k] = sign

        # parallel planes: alpha(|t_pa|/2, |t_pb|/2, sum of |t|/2 transverse)
        wa, wb = weight[pa], weight[pb]
        for (i, j, k), value in self._nonzero("alpha", half, half, (d - 2) * half):
            push(value, (_mirrored(2 * i * wa), _mirrored(2 * j * wb)), rest, k)

        # planes sharing one axis: the free p axis carries i (reflected
        # through the base plaquette's center when i >= 2, sign -1), the
        # shared axis j, q's other axis o the first part of k (reflected,
        # sign -1) and the transverse axes the rest of k.  Sharing pa swaps
        # the base-plane axes (sign -1); o < shared reverses q (sign -1).
        far = (reach - 1) // 2
        others = [(o, weight[o], tuple([axis for axis in rest if axis != o])) for o in rest]
        for (i, j, k), value in self._nonzero("beta", (reach + 1) // 2, half,
                                              far + (d - 3) * half):
            for free, shared, swap in ((pa, pb, 1), (pb, pa, -1)):
                wf = weight[free]
                free_options = [((2 * i - 1) * wf, 1)] + ([((1 - 2 * i) * wf, -1)] if i >= 2 else [])
                shared_options = _mirrored(2 * j * weight[shared])
                for o, wo, transverse in others:
                    sign = value * swap * (-1 if o < shared else 1)
                    for ko in range(min(k, far) + 1):
                        push(sign, (free_options, shared_options,
                                    (((2 * ko + 1) * wo, 1), ((-1 - 2 * ko) * wo, -1))),
                             transverse, k - ko)
        return row

    def _nonzero(self, kind: str, ni: int, nj: int, nk: int) -> Iterator[tuple[tuple, int]]:
        """((i, j, k), value) for every nonzero alpha or beta entry within the index bounds.

        The entries are the rules' points, each replaced by its override if
        it has one, and then the other overrides.
        """
        entries = {}
        for rule in _FAMILIES[self.variant][kind]:
            entries.update(_rule_points(rule, ni, nj, nk))
        for key, value in self.table_overrides.items():
            if key[0] == kind:
                i, j, k = key[1]
                if i <= ni and j <= nj and k <= nk:
                    entries[key[1]] = value
        for index, value in entries.items():
            if value:
                yield index, value

    def _b_table(self, up: tuple, uq: tuple) -> int:
        """Scale-0 table value for the pair, signs included."""
        d = self.d
        pa, pb = (i for i, c in enumerate(up) if c & 1)
        qa, qb = (i for i, c in enumerate(uq) if c & 1)

        # Move p's plane to (0,1), remaining axes in order, then translate p
        # to the base plaquette.  p's own orientation is preserved by this.
        order = [pa, pb] + [i for i in range(d) if i != pa and i != pb]
        newpos = {old: new for new, old in enumerate(order)}
        up1 = [up[i] for i in order]
        v = [uq[i] - up1[newpos[i]] for i in order]
        v[0] += 1
        v[1] += 1
        sign = 1
        na, nb = newpos[qa], newpos[qb]
        if na > nb:
            na, nb = nb, na
            sign = -sign

        if nb <= 1:
            # parallel planes: reflections through either base-plane axis act
            # with equal signs on both plaquettes, transverse ones with none
            i = abs(v[0] - 1) // 2
            j = abs(v[1] - 1) // 2
            k = sum(abs(c) // 2 for c in v[2:])
            return sign * self._entry("alpha", (i, j, k))

        if na >= 2:
            # disjoint planes never interact (possible only for d >= 4)
            return 0

        if na == 0:
            # swap the base-plane axes so the shared axis is axis 1; the swap
            # reverses the base plaquette's orientation but not q's
            sign = -sign
            v[0], v[1] = v[1], v[0]
            na, nb = 1, nb
        if nb != 2:
            # rotate q's other plane axis into position 2 (transverse axes
            # commute freely; neither plaquette's orientation is affected)
            c = v.pop(nb)
            v.insert(2, c)

        i = v[0] // 2
        j = (v[1] - 1) // 2
        k = (v[2] - 1) // 2
        if i < 0:
            i = 1 - i
            sign = -sign
        if j < 0:
            j = -j
        if k < 0:
            k = -1 - k
            sign = -sign
        k += sum(abs(c) // 2 for c in v[3:])
        return sign * self._entry("beta", (i, j, k))

    support = _row_support

    def window_plaquettes(self, radius: int) -> list[Cell]:
        lo = (-radius,) * self.d
        hi = (radius,) * self.d
        return list(box_cells(self.scale, lo, hi, dim=2))

    def to_json(self) -> dict:
        out = {"variant": self.variant, "d": self.d, "scale": self.scale}
        if self.table_overrides:
            out["overrides"] = sorted(
                [list(k[1]) if len(k) == 2 else [], k[0], v]
                for k, v in self.table_overrides.items()
            )
        return out

    def __eq__(self, other):
        return (isinstance(other, CubicalFamilyOp)
                and (self.d, self.scale, self.variant, self.table_overrides)
                == (other.d, other.scale, other.variant, other.table_overrides))

    def __repr__(self):
        extra = ", perturbed" if self.table_overrides else ""
        return f"CubicalFamilyOp({self.variant}, d={self.d}, scale={self.scale}{extra})"


class ExplicitOp(Frozen):
    """An operator given by finite coefficient tables.

    The universe is the key set of the a-table; its cell variables share one
    ambient dimension.  b is stored symmetrically on unordered pairs and
    missing pairs count as zero.  Each table is stored once, as integers over
    unit, 1/lcm of the entry denominators (_a_int, _b_int); a and b are their
    Fraction views.

    _rows holds the b_row of every cell, built from _b_int on the first
    b_row call and keyed by offset_key in radix, 2 _spread(cells) + 1: the
    keys hold every offset between two cells, so a row always fits its
    radix.  It is a cache slot: it lives as long as the instance and never
    enters __eq__; with_entry builds a new instance (with its own unit) and
    an empty cache.
    """

    variant = "explicit"

    __slots__ = ("unit", "radix", "_a_int", "_b_int", "_rows")

    @classmethod
    def _over(cls, a_int: dict, b_int: dict, den: int) -> "ExplicitOp":
        """Integer tables over 1/den (b_int on _pair_key pairs), kept as given; den is their lcm unit."""
        return object.__new__(cls)._fill(a_int, b_int, den)

    def __init__(self, a: Mapping, b: Mapping):
        a_clean = {v: Fraction(c) for v, c in a.items()}
        dims = {v.ambient_dim for v in a_clean if isinstance(v, Cell)}
        if len(dims) > 1:
            raise ValueError(f"cell variables of mixed ambient dimensions {sorted(dims)}")
        b_clean = {}
        for (p, q), c in b.items():
            if p not in a_clean or q not in a_clean:
                raise ValueError(f"b-entry ({p}, {q}) outside the a-table universe")
            key = _pair_key(p, q)
            c = Fraction(c)
            if key in b_clean and b_clean[key] != c:
                raise ValueError(f"conflicting symmetric b-entries for {key}")
            b_clean[key] = c
        den = math.lcm(*(c.denominator for c in (*a_clean.values(), *b_clean.values())))
        self._fill({v: int(c * den) for v, c in a_clean.items()},
                   {k: int(c * den) for k, c in b_clean.items()}, den)

    def _fill(self, a_int: dict, b_int: dict, den: int) -> "ExplicitOp":
        """Set ExplicitOp's slots from integer tables over 1/den, the cache empty; return self."""
        for name, value in zip(ExplicitOp.__slots__,
                               (Fraction(1, den), _span_radix(a_int), a_int, b_int, None)):
            object.__setattr__(self, name, value)
        return self

    a = property(lambda self: {v: c * self.unit for v, c in self._a_int.items()})
    b = property(lambda self: {k: c * self.unit for k, c in self._b_int.items()})

    def check_var(self, v) -> None:
        if v not in self._a_int:
            raise ValueError(f"variable {v!r} outside the operator's universe")

    def has_var(self, v) -> bool:
        return v in self._a_int

    def variables(self) -> list:
        return sorted(self._a_int, key=_var_key)

    def coeff_a(self, v) -> Fraction:
        self.check_var(v)
        return self._a_int[v] * self.unit

    def coeff_b(self, p, q) -> Fraction:
        self.check_var(p)
        self.check_var(q)
        return self.b_int(p, q) * self.unit

    def a_int(self, v) -> int:
        """a_v over unit.  Callers check the universe."""
        return self._a_int[v]

    def b_int(self, p, q) -> int:
        """b_pq over unit, stored at (p, q) or (q, p).  Callers check the universe."""
        b = self._b_int
        return b[p, q] if (p, q) in b else b.get((q, p), 0)

    def b_row(self, p: Cell, reach: int) -> dict:
        """CubicalFamilyOp.b_row's contract over the cells q at p's scale; complete at any reach.

        A partner at another scale is left out, as its offset could equal a
        same-scale q's.  The first call builds every row from _b_int.
        """
        rows = self._rows
        if rows is None:
            rows, radix = {}, self.radix
            for (u, v), c in self._b_int.items():
                if c and isinstance(u, Cell) and isinstance(v, Cell) and u.scale == v.scale:
                    t = offset_key(map(sub, v.coords, u.coords), radix)
                    rows.setdefault(u, {})[t] = c
                    rows.setdefault(v, {})[-t] = c
            object.__setattr__(self, "_rows", rows)
        return rows.get(p, {})

    support = _row_support

    def with_entry(self, p, q, value) -> "ExplicitOp":
        b = self.b
        b[_pair_key(p, q)] = Fraction(value)
        return ExplicitOp(self.a, b)

    def to_json(self) -> dict:
        return {
            "variant": "explicit",
            "a": {_var_text(v): str(c) for v, c in sorted(self.a.items(), key=lambda kv: _var_key(kv[0]))},
            "b": [
                [_var_text(p), _var_text(q), str(c)]
                for (p, q), c in sorted(self.b.items(), key=lambda kv: (_var_key(kv[0][0]), _var_key(kv[0][1])))
            ],
        }

    def __eq__(self, other):
        # the unit is always the tables' lcm unit, so equal tables have equal integers
        return (isinstance(other, ExplicitOp)
                and (self.unit, self._a_int, self._b_int) == (other.unit, other._a_int, other._b_int))

    def __repr__(self):
        return f"ExplicitOp({len(self._a_int)} variables, {len(self._b_int)} interactions)"


class SphereOp(ExplicitOp):
    """The operator generating the two-sphere Yang-Mills state: the ExplicitOp of its areas.

    Variables are the indices 1..n; a_i are positive rational areas summing
    to 1 and b_ij = a_i a_j, which is exactly the condition a_p = sum_q b_pq
    needed for the operator to descend modulo x_1 + ... + x_n.  With the
    areas s_i / den over the lcm den of their denominators, the tables are
    a_i = s_i den and b_ij = s_i s_j (i <= j) over the unit 1/den^2.
    """

    variant = "sphere"

    __slots__ = ("areas", "_den", "_scaled")

    def __init__(self, areas: Sequence):
        areas = tuple(Fraction(a) for a in areas)
        if len(areas) < 2:
            raise ValueError("need at least two plaquette areas")
        den = math.lcm(*(a.denominator for a in areas))
        s = tuple(a.numerator * (den // a.denominator) for a in areas)
        if any(x <= 0 for x in s):
            raise ValueError(f"areas must be positive: {areas}")
        if sum(s) != den:
            raise ValueError(f"areas must sum to 1, got {sum(areas)}")
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_scaled", s)
        n = len(s)
        self._fill({i: s[i - 1] * den for i in range(1, n + 1)},
                   {(i, j): s[i - 1] * s[j - 1] for i in range(1, n + 1) for j in range(i, n + 1)},
                   den * den)

    @property
    def n(self) -> int:
        return len(self.areas)

    def to_euclidean(self) -> ExplicitOp:
        """The same operator on the coordinates x_1..x_{n-1} with x_n dropped.

        Its tables are the sphere's less every entry of variable n, over the
        same unit.  Substituting d_i -> d_i - d_n for i < n into the
        (n-1)-variable form must reproduce the n-variable form exactly; the
        identity is checked here, on the operators' integer symbols, before
        the result is returned.
        """
        # 1/den^2 stays the lcm unit: for a prime p | den some s_i is prime to p (den is an
        # lcm), so one with i < n is (sum s_i = den), and b_ii = s_i^2 keeps p's full power.
        n = self.n
        euclid = ExplicitOp._over({i: c for i, c in self._a_int.items() if i != n},
                                  {k: c for k, c in self._b_int.items() if n not in k},
                                  self._den ** 2)
        _check_euclidean(self, euclid)
        return euclid

    def to_json(self) -> dict:
        return {"variant": "sphere", "areas": [str(a) for a in self.areas]}

    def __eq__(self, other):
        return isinstance(other, SphereOp) and self.areas == other.areas

    def __repr__(self):
        return f"SphereOp(areas={[str(a) for a in self.areas]})"


def _check_euclidean(sphere: SphereOp, euclid) -> None:
    """Raise AssertionError unless d_i -> d_i - d_n (i < n) turns euclid's symbol into sphere's.

    L is half of sum S_ij d_i d_j over its symbol S, so d = P d' with P = [I |
    -1] turns euclid's S into P^T S P, which must be the sphere's S.  Both
    are integers over one unit, which the two operators must share:
    to_euclidean keeps the sphere's.
    """
    n = sphere.n
    image = [row + [-sum(row)] for row in _symbol_matrix(euclid, range(1, n))]
    image.append([-sum(column) for column in zip(*image)])
    if euclid.unit != sphere.unit or image != _symbol_matrix(sphere, range(1, n + 1)):
        raise AssertionError("euclidean reduction failed the substitution identity")


def _span_radix(variables: Iterable) -> int:
    """2 _spread + 1 over the cell variables: a radix whose keys hold every offset between two."""
    return 2 * _spread([v for v in variables if isinstance(v, Cell)]) + 1


def _pair_key(p, q):
    return (p, q) if _var_key(p) <= _var_key(q) else (q, p)


def _var_text(v) -> str:
    return format_cell(v) if isinstance(v, Cell) else str(v)


def _var_from_text(s: str):
    s = s.strip()
    return parse_cell(s) if s.startswith("[") else int(s)


def operator_from_json(spec: Mapping):
    """Build an operator from its JSON description."""
    try:
        variant = spec["variant"]
    except (TypeError, KeyError):
        raise ValueError("operator spec needs a 'variant' field") from None
    if variant == "sphere":
        return SphereOp([_json_exact("area", a) for a in spec["areas"]])
    if variant in ("cubical", "alt3"):
        overrides = {}
        for index, kind, value in spec.get("overrides", []):
            if kind == "a0" and index != []:
                raise ValueError(f"a0 override index {index!r} is not []")
            key = ("a0",) if kind == "a0" else (kind, tuple(index))
            if key in overrides:
                raise ValueError(f"{kind!r} override at {index!r} is given twice")
            overrides[key] = value
        return CubicalFamilyOp(_json_int("d", spec.get("d", 3)),
                               _json_int("scale", spec.get("scale", 0)), variant, overrides)
    if variant == "explicit":
        if not isinstance(spec["a"], Mapping):
            raise ValueError(f"explicit 'a' {spec['a']!r} is not an object of cell -> value")
        a = {_var_from_text(k): _json_exact("a entry", v) for k, v in spec["a"].items()}
        b = {(_var_from_text(p), _var_from_text(q)): _json_exact("b entry", v)
             for p, q, v in spec.get("b", [])}
        return ExplicitOp(a, b)
    raise ValueError(f"unknown operator variant {variant!r}")


def _json_int(name: str, value) -> int:
    """value itself if it is a JSON integer; 3.5 or true would be truncated by int()."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _json_exact(name: str, value) -> Fraction:
    """The exact number a JSON integer or a string such as "p/q" spells.

    A JSON float is already a binary approximation (0.1 would become
    3602879701896397/36028797018963968) and true is no number, so both
    are rejected.
    """
    if type(value) is not int and not isinstance(value, str):
        raise ValueError(f"{name} {value!r} is not an integer or a \"p/q\" string")
    return Fraction(value)
