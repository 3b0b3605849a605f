"""Coefficient families, symmetry canonicalization, and operator application."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from click.testing import CliRunner
from hypothesis import given, settings
import hypothesis.strategies as st

from holoflow.cells import (
    Cell,
    SignedSymmetry,
    act,
    boundary,
    box_cells,
    cells_near,
    children,
    decode_key,
    key_capacity,
    offset_key,
    plaquette_offsets,
)
from holoflow.cli import main as cli_main
from holoflow.operators import (
    _FAMILIES,
    CubicalFamilyOp,
    ExplicitOp,
    SphereOp,
    _apply_int,
    _index_pairs,
    _rule_points,
    _symbol_matrix,
    apply_operator,
    operator_from_json,
)
from holoflow import operators
from holoflow.poly import Polynomial, _var_key, ideal_from_cubes
from holoflow.states import covariance_window, exp_state
from holoflow.verify import (
    _probe_pool,
    base_plaquettes,
    compat_residual_a,
    compat_residual_b,
    gauge_numerator,
)

from conftest import explicit_tables, symmetries


def translated(c: Cell, t) -> Cell:
    return Cell(c.scale, tuple(a + b for a, b in zip(c.coords, t)))


def as_offsets(row: dict, radix: int, d: int) -> dict:
    """A row with each integer key read back as its offset: the key's d base-radix digits,
    each taken in (-radix/2, radix/2]."""
    out = {}
    for key, value in row.items():
        t = []
        for _ in range(d):
            digit = key % radix
            if digit > radix // 2:
                digit -= radix
            t.append(digit)
            key = (key - digit) // radix
        assert key == 0, "the key holds more than d digits"
        out[tuple(reversed(t))] = value
    return out


def offsets_of(fam, row: dict) -> dict:
    return as_offsets(row, fam.radix, fam.d)


x = Polynomial.var

BASE3 = Cell(0, (1, 1, 0))
BASE4 = Cell(0, (1, 1, 0, 0))
MAIN3 = CubicalFamilyOp.main(3)
MAIN4 = CubicalFamilyOp.main(4)
ALT3 = CubicalFamilyOp.alt()


# -- oracle: orbit transport under the full signed symmetry group -------------


def _small_group(d=3):
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            for trans in itertools.product((-4, -2, 0, 2, 4), repeat=d):
                yield SignedSymmetry(perm, signs, trans)


def orbit_value(p: Cell, q: Cell, targets: dict) -> Fraction:
    """Transport (p, q) into the raw table patterns in `targets` and read the
    value off with the accumulated orientation signs; every route must agree."""
    found = set()
    for g in _small_group(p.ambient_dim):
        gp, sp = act(g, p)
        gq, sq = act(g, q)
        key = (gp.coords, gq.coords)
        if key in targets:
            found.add(sp * sq * targets[key])
    assert len(found) == 1, f"inconsistent orbit values {found}"
    return Fraction(found.pop())


# -- oracle: sympy application of a second-order operator ----------------------

_SYMS = {i: sympy.Symbol(f"x{i}") for i in range(1, 8)}


def _to_sympy(f: Polynomial):
    expr = sympy.Integer(0)
    for m, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= _SYMS[v] ** e
        expr += term
    return sympy.expand(expr)


def sympy_apply(op, f: Polynomial, n_vars: int):
    expr = _to_sympy(f)
    out = sympy.Integer(0)
    for i in range(1, n_vars + 1):
        a = op.coeff_a(i)
        out += sympy.Rational(a.numerator, a.denominator) * sympy.diff(expr, _SYMS[i], 2)
    for i in range(1, n_vars + 1):
        for j in range(1, n_vars + 1):
            b = op.coeff_b(i, j)
            out -= sympy.Rational(b.numerator, b.denominator) * sympy.diff(expr, _SYMS[i], _SYMS[j])
    return sympy.expand(out)


# -- coefficient values ----------------------------------------------------------


def test_coeff_a_values():
    assert MAIN3.coeff_a(BASE3) == 12
    assert MAIN3.with_scale(1).coeff_a(Cell(1, (1, 1, 0))) == 3
    assert ALT3.coeff_a(BASE3) == 1
    sphere = SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert sphere.coeff_a(2) == Fraction(1, 4)


def test_coeff_b_reference_values():
    cases = [
        ((1, 1, 0), 2),    # same plaquette
        ((0, 1, 1), 2),    # shared axis, touching
        ((1, 0, 1), -2),   # swapped-plane mirror of the previous
        ((3, 3, 2), -2),   # diagonal same-plane pattern
        ((1, 1, -2), -2),  # reflected transverse offset
        ((1, 1, 2), -2),
        ((3, 1, 0), 0),
        ((2, 1, 1), -2),
        ((1, 2, 1), 2),
    ]
    for uq, want in cases:
        assert MAIN3.coeff_b(BASE3, Cell(0, uq)) == want, uq


def test_reflected_offset_agrees_with_orbit_oracle():
    # the raw table pattern [1,1,2] carries value -2; transport [1,1,-2] to it
    value = orbit_value(BASE3, Cell(0, (1, 1, -2)), {((1, 1, 0), (1, 1, 2)): -2})
    assert value == -2
    assert MAIN3.coeff_b(BASE3, Cell(0, (1, 1, -2))) == value


def test_swapped_plane_agrees_with_orbit_oracle():
    value = orbit_value(BASE3, Cell(0, (1, 0, 1)), {((1, 1, 0), (0, 1, 1)): 2})
    assert value == -2
    assert MAIN3.coeff_b(BASE3, Cell(0, (1, 0, 1))) == value


def test_disjoint_planes_do_not_interact():
    assert MAIN4.coeff_b(BASE4, Cell(0, (0, 0, 1, 1))) == 0
    assert MAIN4.coeff_b(BASE4, Cell(0, (2, 0, 1, 1))) == 0


def test_sphere_coeff_b_is_area_product():
    sphere = SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert sphere.coeff_b(1, 2) == Fraction(1, 8)
    assert sphere.coeff_b(2, 2) == Fraction(1, 16)


def test_base_table_values_via_lookup():
    def beta(i, j, k):
        return MAIN3.coeff_b(BASE3, Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * k)))

    def alpha(i, j, k):
        return MAIN3.coeff_b(BASE3, Cell(0, (1 + 2 * i, 1 + 2 * j, 2 * k)))

    assert alpha(0, 0, 0) == 2
    assert (beta(0, 0, 0), beta(1, 0, 0)) == (2, -2)
    assert (beta(0, 1, 0), beta(1, 1, 0)) == (1, -1)
    for k in range(1, 4):
        assert alpha(0, 0, k) == alpha(k, k, k) == -2
        assert beta(k + 1, k, k) == beta(k + 1, k + 1, k) == -1
    assert alpha(1, 0, 0) == alpha(0, 2, 1) == 0
    assert beta(0, 0, 1) == beta(3, 1, 1) == 0


def test_alt_family_table():
    assert ALT3.coeff_b(BASE3, Cell(0, (1, 1, 2))) == -1
    assert ALT3.coeff_b(BASE3, Cell(0, (1, 1, -4))) == -1
    assert ALT3.coeff_b(BASE3, BASE3) == 0
    assert ALT3.coeff_b(BASE3, Cell(0, (0, 1, 1))) == 0
    assert dict(ALT3.support(BASE3, 3)) == {
        Cell(0, (1, 1, -2)): Fraction(-1),
        Cell(0, (1, 1, 2)): Fraction(-1),
    }


def test_scaling_by_quarter_per_scale():
    pairs = [((1, 1, 0), (0, 1, 1)), ((1, 1, 0), (3, 3, 2)), ((1, 1, 0), (2, 1, 1))]
    for up, uq in pairs:
        base = MAIN3.coeff_b(Cell(0, up), Cell(0, uq))
        for n in (-1, 1, 2):
            fam = MAIN3.with_scale(n)
            assert fam.coeff_b(Cell(n, up), Cell(n, uq)) == base * Fraction(4) ** (-n)
        assert MAIN3.with_scale(-1).coeff_a(Cell(-1, up)) == 48


# -- reflection identities as computed facts of the lookup ----------------------


def beta_raw(fam, i, j, k):
    return fam.coeff_b(fam.base_plaquette(), Cell(fam.scale, (2 * i, 1 + 2 * j, 1 + 2 * k)))


def alpha_raw(fam, i, j, k):
    return fam.coeff_b(fam.base_plaquette(), Cell(fam.scale, (1 + 2 * i, 1 + 2 * j, 2 * k)))


def test_beta_reflection_identities():
    rng = range(-3, 4)
    for i, j, k in itertools.product(rng, rng, rng):
        assert beta_raw(MAIN3, -i, j, k) == -beta_raw(MAIN3, 1 + i, j, k)
        assert beta_raw(MAIN3, i, -j, k) == beta_raw(MAIN3, i, j, k)
        # reflecting the transverse odd coordinate sends k to -1-k
        assert beta_raw(MAIN3, i, j, -k) == -beta_raw(MAIN3, i, j, k - 1)


def test_alpha_reflection_identities():
    rng = range(-3, 4)
    for i, j, k in itertools.product(rng, rng, rng):
        assert alpha_raw(MAIN3, -i, j, k) == alpha_raw(MAIN3, i, j, k)
        assert alpha_raw(MAIN3, i, -j, k) == alpha_raw(MAIN3, i, j, k)
        assert alpha_raw(MAIN3, i, j, -k) == alpha_raw(MAIN3, i, j, k)
        assert alpha_raw(MAIN3, i, j, k) == alpha_raw(MAIN3, j, i, k)


# -- symmetry and equivariance ---------------------------------------------------


@st.composite
def plaquette_pairs(draw, max_d=5):
    d = draw(st.integers(3, max_d))
    fam = CubicalFamilyOp.main(d)

    def plaq():
        axes = draw(st.permutations(range(d)))[:2]
        coords = []
        for i in range(d):
            half = draw(st.integers(-4, 4))
            coords.append(2 * half + (1 if i in axes else 0))
        return Cell(0, coords)

    return fam, plaq(), plaq()


@settings(max_examples=150, deadline=None)
@given(plaquette_pairs(max_d=3))
def test_coeff_b_is_symmetric_in_3d(data):
    fam, p, q = data
    assert fam.coeff_b(p, q) == fam.coeff_b(q, p)


def test_d4_transverse_rule_is_orientation_sensitive():
    # The d=4 reduction folds the transverse offset into the cross-plane
    # index.  The two orientations of this pair canonicalize to patterns
    # (0,1,1,1) and (2,1,0,1), whose summed-index table values differ, so the
    # extended coefficient function cannot be symmetric off the diagonal
    # strips.  Both lookups are pinned here as computed by the rule.
    p = Cell(0, (0, 0, 1, 1))
    q = Cell(0, (-3, -2, -1, 0))
    assert MAIN4.coeff_b(p, q) == 0
    assert MAIN4.coeff_b(q, p) == -1


@pytest.mark.xfail(
    strict=True,
    reason="no symmetric extension matches the d>=4 transverse-sum rule; "
    "the pair below is a counterexample",
)
def test_d4_symmetry_would_need_consistent_merged_orbits():
    p = Cell(0, (0, 0, 1, 1))
    q = Cell(0, (-3, -2, -1, 0))
    assert MAIN4.coeff_b(p, q) == MAIN4.coeff_b(q, p)


@settings(max_examples=150, deadline=None)
@given(plaquette_pairs(max_d=4), st.data())
def test_coeff_b_is_equivariant(data, extra):
    fam, p, q = data
    g = extra.draw(symmetries(p.ambient_dim))
    gp, sp = act(g, p)
    gq, sq = act(g, q)
    assert fam.coeff_b(p, q) == sp * sq * fam.coeff_b(gp, gq)


@settings(max_examples=100, deadline=None)
@given(plaquette_pairs(max_d=4), st.data())
def test_alt_family_is_equivariant(data, extra):
    _, p, q = data
    if p.ambient_dim != 3:
        return
    g = extra.draw(symmetries(3))
    gp, sp = act(g, p)
    gq, sq = act(g, q)
    assert ALT3.coeff_b(p, q) == sp * sq * ALT3.coeff_b(gp, gq)


# -- dimension reduction ----------------------------------------------------------


def test_d4_tables_reduce_to_d3():
    for i, j, k, l in itertools.product(range(3), repeat=4):
        q4 = Cell(0, (1 + 2 * i, 1 + 2 * j, 2 * k, 2 * l))
        q3 = Cell(0, (1 + 2 * i, 1 + 2 * j, 2 * (k + l)))
        assert MAIN4.coeff_b(BASE4, q4) == MAIN3.coeff_b(BASE3, q3)
        q4b = Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * k, 2 * l))
        q3b = Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * (k + l)))
        assert MAIN4.coeff_b(BASE4, q4b) == MAIN3.coeff_b(BASE3, q3b)


def test_d5_lookup_matches_d3_reduction():
    fam5 = CubicalFamilyOp.main(5)
    base5 = Cell(0, (1, 1, 0, 0, 0))
    q5 = Cell(0, (1, 1, 2, -2, 0))
    q3 = Cell(0, (1, 1, 4))
    assert fam5.coeff_b(base5, q5) == MAIN3.coeff_b(BASE3, q3)


# -- operator application ----------------------------------------------------------


def test_apply_sphere_square():
    areas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    op = SphereOp(areas)
    got = apply_operator(op, x(1, 2))
    a1 = areas[0]
    assert got == Polynomial.const(2 * a1 - 2 * a1 * a1)
    assert sympy.expand(_to_sympy(got) - sympy_apply(op, x(1, 2), 3)) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_matches_sympy_oracle(data):
    areas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    op = SphereOp(areas)
    f = Polynomial()
    for _ in range(data.draw(st.integers(1, 3))):
        term = Polynomial.const(data.draw(st.integers(-3, 3)))
        for _ in range(data.draw(st.integers(0, 4))):
            term = term * x(data.draw(st.integers(1, 3)))
        f = f + term
    # compared by difference: sympy.expand can return an Add with an Add inside, as it does
    # for the oracle of -x1^3*x2 - 3*x1*x2, which == tells apart from the flat sum
    assert sympy.expand(_to_sympy(apply_operator(op, f)) - sympy_apply(op, f, 3)) == 0


def test_apply_kills_linear_polynomials():
    op = SphereOp([Fraction(1, 2), Fraction(1, 2)])
    assert not apply_operator(op, x(1) - 3 * x(2) + 5)
    assert not apply_operator(MAIN3, x(BASE3) + 1)


def test_apply_lattice_pair():
    f = x(BASE3) * x(Cell(0, (0, 1, 1)))
    assert apply_operator(MAIN3, f) == Polynomial.const(-4)


def test_apply_drops_degree_by_two():
    op = SphereOp([Fraction(1, 2), Fraction(1, 2)])
    f = x(1, 4)
    g = apply_operator(op, f)
    assert g == 3 * x(1, 2)
    assert apply_operator(op, g) == Polynomial.const(Fraction(3, 2))


def test_product_formula():
    op = SphereOp([Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)])
    f = x(1, 2) + x(2)
    g = x(1) * x(3) - 2
    cross = Polynomial()
    for i in range(1, 4):
        cross = cross + op.coeff_a(i) * f.derive(i) * g.derive(i)
        for j in range(1, 4):
            cross = cross - op.coeff_b(i, j) * f.derive(i) * g.derive(j)
    assert (apply_operator(op, f * g)
            == apply_operator(op, f) * g + f * apply_operator(op, g) + 2 * cross)


def test_apply_rejects_outside_universe():
    op = SphereOp([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError, match="universe"):
        apply_operator(op, x(3))
    with pytest.raises(ValueError, match="plaquette"):
        apply_operator(MAIN3, x(Cell(0, (1, 1, 1))))


def test_coeff_b_scale_mismatch():
    with pytest.raises(ValueError, match="different scales"):
        MAIN3.coeff_b(BASE3, Cell(1, (1, 1, 0)))


def fraction_apply(op, f: Polynomial) -> Polynomial:
    """L f from the checked Fraction coefficients, every ordered pair derived on its own."""
    vs = f.variables()
    out = Polynomial()
    for v in vs:
        out = out + op.coeff_a(v) * f.derive(v).derive(v)
    for vi in vs:
        for vj in vs:
            out = out - op.coeff_b(vi, vj) * f.derive(vi).derive(vj)
    return out


def _integer_apply_cases():
    areas = [Fraction(2, 7), Fraction(1, 3), Fraction(8, 21)]
    sphere = SphereOp(areas)
    yield sphere, [1, 2, 3]
    yield sphere.to_euclidean(), [1, 2]
    cells = [BASE3, Cell(0, (0, 1, 1)), Cell(0, (1, 0, 1))]
    yield ExplicitOp(a={c: Fraction(3, 2) for c in cells},
                     b={(cells[0], cells[1]): Fraction(-1, 4), (cells[1], cells[1]): 5}), cells
    for scale in (-1, 0, 1):
        for fam in (MAIN3, ALT3, MAIN3.perturbed("beta", (1, 0, 0), 1), MAIN4):
            yield fam.with_scale(scale), fam.with_scale(scale).window_plaquettes(1)[:5]


def test_integer_apply_matches_the_fraction_form():
    rng = random.Random(41)
    for op, variables in _integer_apply_cases():
        for _ in range(6):
            f = Polynomial()
            for _ in range(rng.randint(1, 4)):
                term = Polynomial.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4)):
                    term = term * x(rng.choice(variables))
                f = f + term
            assert apply_operator(op, f) == fraction_apply(op, f), (op, f)


def test_sphere_integer_coefficients_times_unit_are_the_coefficients():
    rng = random.Random(43)
    for n in (2, 3, 5):
        weights = [rng.randint(1, 20) for _ in range(n)]
        op = SphereOp([Fraction(w, sum(weights)) for w in weights])
        for i in op.variables():
            assert type(op.a_int(i)) is int
            assert op.a_int(i) * op.unit == op.coeff_a(i)
            for j in op.variables():
                assert type(op.b_int(i, j)) is int
                assert op.b_int(i, j) * op.unit == op.coeff_b(i, j)


# Two d=4 pairs, each in canonical order, on which b is not symmetric: the
# first pair's lookup in canonical order is nonzero, the second pair's is zero.
D4_FIRST_NONZERO = (Cell(0, (-3, -2, -1, 0)), Cell(0, (0, 0, 1, 1)))
D4_FIRST_ZERO = (Cell(0, (-2, -2, -1, -1)), Cell(0, (0, 1, -2, 1)))


def _high_exponent_polynomials(variables, rng):
    """Sums of monomials in the variables, every exponent between 3 and 6."""
    for _ in range(4):
        f = Polynomial()
        for _ in range(rng.randint(1, 3)):
            term = Polynomial.const(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
            for v in rng.sample(variables, rng.randint(1, len(variables))):
                term = term * x(v, rng.randint(3, 6))
            f = f + term
        yield f


def test_apply_matches_the_fraction_form_at_high_exponents():
    assert (MAIN4.b_int(*D4_FIRST_NONZERO), MAIN4.b_int(*D4_FIRST_NONZERO[::-1])) == (-1, 0)
    assert (MAIN4.b_int(*D4_FIRST_ZERO), MAIN4.b_int(*D4_FIRST_ZERO[::-1])) == (0, -1)
    rng = random.Random(47)
    cases = [(fam, [Cell(fam.scale, c.coords) for c in (*D4_FIRST_NONZERO, *D4_FIRST_ZERO)])
             for fam in (MAIN4, MAIN4.with_scale(1), MAIN4.perturbed("beta", (1, 0, 0), 2))]
    cases.append((SphereOp([Fraction(2, 7), Fraction(1, 3), Fraction(8, 21)]), [1, 2, 3]))
    cases.append((MAIN3, [BASE3, Cell(0, (0, 1, 1)), Cell(0, (2, 1, 1))]))
    for op, variables in cases:
        for f in _high_exponent_polynomials(variables, rng):
            assert apply_operator(op, f) == fraction_apply(op, f), (op, f)


class _CountingLookups:
    """An operator whose b_int records every pair it is asked for."""

    def __init__(self, op):
        self.op = op
        self.asked = []

    def __getattr__(self, name):
        return getattr(self.op, name)

    def b_int(self, p, q):
        self.asked.append((p, q))
        return self.op.b_int(p, q)


def test_apply_looks_up_only_pairs_that_share_a_monomial():
    p, q, r = BASE3, Cell(0, (0, 1, 1)), Cell(0, (1, 0, 1))
    assert MAIN3.b_int(p, q) != 0
    counting = _CountingLookups(MAIN3)
    f = x(p, 2) + x(q, 2)
    assert apply_operator(counting, f) == apply_operator(MAIN3, f)
    assert counting.asked == [(p, p), (q, q)]

    # a pair met in several monomials is looked up once per order
    counting = _CountingLookups(MAIN3)
    f = x(p) * x(q) + 3 * x(p) * x(q, 3) * x(r)
    assert apply_operator(counting, f) == fraction_apply(MAIN3, f)
    assert sorted(counting.asked, key=str) == sorted(
        [(p, q), (q, p), (p, r), (r, p), (q, r), (r, q), (q, q)], key=str)


def test_sized_apply_looks_up_only_pairs_that_share_a_monomial():
    # the index path: cross pairs read the sized rows, memoized on the indices
    p, q, r, s = BASE3, Cell(0, (0, 1, 1)), Cell(0, (1, 0, 1)), Cell(0, (2, 1, 1))
    variables = sorted([p, q, r, s], key=_var_key)
    index = {v: i for i, v in enumerate(variables)}
    pairs = _index_pairs(MAIN3, variables)
    f = x(p) * x(q) + 3 * x(p) * x(q, 3) * x(r) + x(s, 2) + 5 * x(r)
    out = _apply_int({tuple((index[v], e) for v, e in m): c for m, c in f.terms.items()}, pairs)
    image = {tuple((variables[i], e) for i, e in m): c * MAIN3.unit for m, c in out.items()}
    assert Polynomial(image) == fraction_apply(MAIN3, f)
    diag, cross, _, _ = pairs
    assert set(cross) == {(index[m[i][0]], index[m[j][0]]) for m in f.terms
                          for i in range(len(m)) for j in range(i + 1, len(m))}
    assert set(diag) == {index[q], index[s]}


def test_apply_checks_variables_that_appear_only_linearly():
    with pytest.raises(ValueError, match="plaquette"):
        apply_operator(MAIN3, x(BASE3, 3) + x(Cell(0, (1, 1, 1))))
    with pytest.raises(ValueError, match="universe"):
        apply_operator(SphereOp([Fraction(1, 2), Fraction(1, 2)]).to_euclidean(), x(1, 4) + x(2))
    runner = CliRunner()
    for args in (["--op", "sphere", "--areas", "1/2,1/4,1/4", "--poly", "x1^2*x2^2 + x3"],
                 ["--poly", "x[1,1,0]@0^2 + x[1,1,1]@0"]):
        assert runner.invoke(cli_main, ["moments", *args]).exit_code == 2, args


# -- euclidean reduction of the sphere operator -------------------------------------


def test_euclidean_collapse_two_plaquettes():
    a = Fraction(1, 3)
    op = SphereOp([a, 1 - a])
    euclid = op.to_euclidean()
    assert apply_operator(euclid, x(1, 2)) == Polynomial.const(2 * a * (1 - a))

    # substitution oracle: dropping the last derivative from the full symbol,
    # then re-substituting d1 -> d1 - d2, must reproduce the full symbol
    xi1, xi2 = sympy.symbols("xi1 xi2")
    full = a * xi1**2 + (1 - a) * xi2**2 - (a * xi1 + (1 - a) * xi2) ** 2
    collapsed = sympy.expand(full.subs(xi2, 0))
    assert collapsed == sympy.expand(a * (1 - a) * xi1**2)
    assert sympy.expand(collapsed.subs(xi1, xi1 - xi2)) == sympy.expand(full)


def test_euclidean_cross_coefficient():
    op = SphereOp([Fraction(1, 3)] * 3)
    euclid = op.to_euclidean()
    assert apply_operator(euclid, x(1) * x(2)) == Polynomial.const(Fraction(-2, 9))


def test_euclidean_matches_quotient_action():
    import random

    from holoflow.poly import LinearIdeal

    rng = random.Random(3)
    for n in (3, 4, 5):
        areas = [Fraction(1, n)] * n
        op = SphereOp(areas)
        euclid = op.to_euclidean()
        ideal = LinearIdeal([Polynomial.linear({i: 1 for i in range(1, n + 1)})])
        for _ in range(20):
            f = Polynomial()
            for _ in range(rng.randint(1, 4)):
                term = Polynomial.const(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 4)):
                    term = term * x(rng.randint(1, n))
                f = f + term
            assert apply_operator(euclid, ideal.reduce(f)) == ideal.reduce(apply_operator(op, f))


# -- explicit tables and serialization ------------------------------------------------


def test_explicit_op_universe_and_sparsity():
    op = ExplicitOp(a={1: Fraction(1, 2), 2: Fraction(1, 2)}, b={(1, 2): Fraction(1, 4)})
    assert op.coeff_b(2, 1) == Fraction(1, 4)
    assert op.coeff_b(1, 1) == 0
    with pytest.raises(ValueError, match="universe"):
        op.coeff_a(3)
    with pytest.raises(ValueError, match="universe"):
        ExplicitOp(a={1: 1}, b={(1, 2): 1})


def test_explicit_rows_equal_b_int_entry_by_entry():
    op = explicit_tables(MAIN3, -2, 2)
    far = Cell(1, (1, 1, 0))  # a face's coordinates, one scale finer
    a = {**op.a, far: Fraction(1, 3), 7: Fraction(1)}
    b = {**op.b, (BASE3, far): Fraction(5, 2), (far, far): Fraction(1, 2), (7, BASE3): 4,
         (BASE3, Cell(0, (1, 1, 2))): 0}
    op = ExplicitOp(a, b)
    cells = [v for v in op.variables() if isinstance(v, Cell)]
    assert op.radix == 2 * 4 + 1  # the cells span [-2, 2] on every axis
    for p in cells:
        row = as_offsets(op.b_row(p, 0), op.radix, 3)
        same = {tuple(y - x for x, y in zip(p.coords, q.coords)): q for q in cells if q.scale == p.scale}
        assert set(row) <= set(same) and all(row.values())
        for t, q in same.items():
            assert row.get(t, 0) == op.b_int(p, q) == op.b_int(q, p)
        assert row.get((0,) * 3, 0) == op.b_int(p, p)
    assert op.b_row(BASE3, 0)[0] * op.unit == MAIN3.coeff_b(BASE3, BASE3)
    assert op.b_row(far, 0) == {0: op.b_int(far, far)}  # BASE3 is at another scale
    assert op._rows is not None and op == ExplicitOp(a, b)


def test_euclidean_tables_are_the_area_products():
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6):
        weights = [rng.randint(1, 20) for _ in range(n)]
        sphere = SphereOp([Fraction(w, sum(weights)) for w in weights])
        euclid = sphere.to_euclidean()
        want = ExplicitOp({i: sphere.areas[i - 1] for i in range(1, n)},
                          {(i, j): sphere.areas[i - 1] * sphere.areas[j - 1]
                           for i in range(1, n) for j in range(i, n)})
        assert euclid == want
        assert (euclid.unit, euclid._a_int, euclid._b_int) == (want.unit, want._a_int, want._b_int)


def test_sphere_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        SphereOp([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError, match="positive"):
        SphereOp([Fraction(1, 1), Fraction(0, 1)])
    with pytest.raises(ValueError, match="at least two"):
        SphereOp([Fraction(1, 1)])


def test_operator_json_roundtrip():
    ops = [
        MAIN3,
        MAIN4.with_scale(-1),
        ALT3.with_scale(2),
        MAIN3.perturbed("beta", (1, 0, 0), 1),
        SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        ExplicitOp(a={BASE3: Fraction(12)}, b={(BASE3, BASE3): Fraction(2)}),
    ]
    for op in ops:
        assert operator_from_json(op.to_json()) == op


def test_value_objects_refuse_assignment_and_deletion():
    # a with_scale copy shares its family's memo, so no value object may change once built
    family = MAIN3.with_scale(1)
    values = [(family, "scale"), (family, "_memo"), (SphereOp([Fraction(1, 2)] * 2), "areas"),
              (SphereOp([Fraction(1, 2)] * 2), "_a_int"), (explicit_tables(MAIN3, 0, 1), "_b_int"),
              (Polynomial.var(1), "terms"), (ideal_from_cubes([Cell(0, (1, 1, 1))]), "generators"),
              (covariance_window(MAIN3, 1), "unit"), (exp_state(MAIN3, x(BASE3, 2)), "coeffs")]
    for obj, name in values:
        held = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            delattr(obj, name)
        assert getattr(obj, name) is held
    assert family._memo is MAIN3._memo


def test_operator_json_rejects_unknown():
    with pytest.raises(ValueError, match="variant"):
        operator_from_json({"variant": "nope"})
    with pytest.raises(ValueError, match="variant"):
        operator_from_json({})


def test_perturbed_family_changes_one_orbit():
    fam = MAIN3.perturbed("beta", (0, 0, 0), 5)
    assert fam.coeff_b(BASE3, Cell(0, (0, 1, 1))) == 7
    assert fam.coeff_b(BASE3, Cell(0, (3, 3, 2))) == -2
    assert MAIN3.coeff_b(BASE3, Cell(0, (0, 1, 1))) == 2


# -- the integer lookup memo -------------------------------------------------------

WARM = {d: CubicalFamilyOp.main(d) for d in (3, 4, 5)}  # memos fill up across examples


@settings(max_examples=150, deadline=None)
@given(plaquette_pairs(max_d=5), st.integers(-1, 1), st.data())
def test_memo_matches_table_under_translation(data, scale, extra):
    fam, p, q = data
    d = fam.d
    cold = fam.with_scale(scale)
    warm = WARM[d].with_scale(scale)
    p, q = Cell(scale, p.coords), Cell(scale, q.coords)
    t = [2 * v for v in extra.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))]
    tp, tq = translated(p, t), translated(q, t)
    unit = Fraction(4) ** (-scale)
    want = fam._b_table(p.coords, q.coords) * unit
    assert fam._b_table(tp.coords, tq.coords) == fam._b_table(p.coords, q.coords)
    assert cold.coeff_b(p, q) == want  # a miss: the memo was empty
    assert warm.coeff_b(tp, tq) == want
    assert warm.coeff_b(p, q) == want
    assert cold.coeff_b(tp, tq) == want  # a hit on the entry stored above
    # the same offset from every other parity pattern must not collide
    offset = [b - a for a, b in zip(p.coords, q.coords)]
    for other in base_plaquettes(d, scale):
        moved = translated(other, offset)
        if moved.dim == 2:
            assert warm.coeff_b(other, moved) == fam._b_table(other.coords, moved.coords) * unit


def test_d4_witness_holds_in_either_memo_order():
    p = Cell(0, (0, 0, 1, 1))
    q = Cell(0, (-3, -2, -1, 0))
    forward = CubicalFamilyOp.main(4)
    assert (forward.coeff_b(p, q), forward.coeff_b(q, p)) == (0, -1)
    backward = CubicalFamilyOp.main(4)
    assert (backward.coeff_b(q, p), backward.coeff_b(p, q)) == (-1, 0)


def test_memo_stays_out_of_equality():
    fam = MAIN4.perturbed("beta", (0, 0, 0), 1)
    fam.coeff_b(BASE4, Cell(0, (0, 1, 1, 0)))
    assert fam._memo
    fresh = CubicalFamilyOp.main(4).perturbed("beta", (0, 0, 0), 1)
    assert fresh._memo == {}
    assert fresh == fam
    assert fresh.coeff_b(BASE4, Cell(0, (0, 1, 1, 0))) == 3


def test_gauge_numerator_matches_fraction_residual():
    faulty = MAIN3.perturbed("alpha", (0, 0, 1), 1).with_scale(1)
    explicit = explicit_tables(MAIN3, -4, 4).with_entry(BASE3, Cell(0, (0, 1, 1)), 3)
    cases = [(fam, fam.d, fam.scale, fam.window_plaquettes(2))
             for fam in (faulty, ALT3.with_scale(-1), MAIN4)]
    cases.append((explicit, 3, 0, MAIN3.window_plaquettes(2)))
    for op, d, scale, plaquettes in cases:
        pad = (0,) * (d - 3)
        nonzero = 0
        for cube in (Cell(scale, (1, 1, 1) + pad), Cell(scale, (3, -1, 1) + pad)):
            faces = boundary(cube)
            for p in plaquettes:
                want = faces.get(p, 0) * op.coeff_a(p) - sum(
                    s * op.coeff_b(p, q) for q, s in faces.items())
                steps = [(tuple(b - a for a, b in zip(cube.coords, q.coords)), s)
                         for q, s in faces.items()]
                t = tuple(b - a for a, b in zip(cube.coords, p.coords))
                row = op.b_row(p, max(abs(x - y) for f, _ in steps for x, y in zip(f, t)))
                keyed = [(offset_key(f, op.radix), s) for f, s in steps]
                assert (gauge_numerator(op.a_int(p), faces.get(p, 0), row, keyed,
                                        offset_key(t, op.radix)) * op.unit == want)
                nonzero += want != 0
        assert nonzero > 0 if op is faulty or op is explicit else nonzero == 0


def test_compat_numerators_match_fraction_residuals():
    faulty = MAIN3.perturbed("beta", (1, 0, 0), 1)
    for fam in (faulty, ALT3.with_scale(-1), MAIN4.with_scale(1)):
        fine = fam.with_scale(fam.scale + 1)
        nonzero = 0
        for p in base_plaquettes(fam.d, fam.scale):
            kids = children(p)
            want = fam.coeff_a(p) - sum(fine.coeff_a(c) for c in kids)
            assert compat_residual_a(fam, p) == want
            for q in cells_near(p, 2, dim=2):
                want = fam.coeff_b(p, q) - sum(
                    fine.coeff_b(pc, qc) for pc in kids for qc in children(q))
                assert compat_residual_b(fam, p, q) == want
                nonzero += want != 0
        assert nonzero > 0 if fam is faulty else nonzero == 0


@pytest.mark.parametrize("key", [("alpha", (0, 0)), ("beta", (-1, 0, 0)),
                                 ("alpha", (0, 0, 1, 0)), ("beta", (0, "1", 0))])
def test_override_outside_the_read_orthant_is_rejected(key):
    with pytest.raises(ValueError, match="never read"):
        CubicalFamilyOp(3, table_overrides={key: 1})


# -- pushed sparse rows ------------------------------------------------------------

ZERO_TO_NONZERO = MAIN3.perturbed("beta", (2, 0, 0), 1)  # beta(2,0,0) is 0 in the table
NONZERO_TO_ZERO = MAIN4.perturbed("alpha", (1, 1, 1), 2)  # alpha(1,1,1) = -2 becomes 0
ROW_FAMILIES = [MAIN3, ALT3, MAIN4, ZERO_TO_NONZERO, NONZERO_TO_ZERO,
                MAIN3.perturbed("a0", None, 1).perturbed("beta", (1, 0, 0), 2)]


def _fresh(fam):
    """The same family with no rows yet."""
    return CubicalFamilyOp(fam.d, fam.scale, fam.variant, fam.table_overrides)


def _dense_row(fam, p, reach):
    """The pull route: _b_table at every plaquette within reach of p, zeros left out."""
    out = {}
    for t in plaquette_offsets([c & 1 for c in p.coords], reach):
        value = fam._b_table(p.coords, tuple(a + b for a, b in zip(p.coords, t)))
        if value:
            out[t] = value
    return out


@pytest.mark.parametrize("fam", ROW_FAMILIES, ids=repr)
def test_rows_equal_the_table_on_dense_boxes(fam):
    reach = 6
    for p in base_plaquettes(fam.d, 0):
        row = offsets_of(fam, _fresh(fam).b_row(p, reach))
        assert all(max(map(abs, t)) <= reach for t in row)
        want = _dense_row(fam, p, reach)
        assert row == want
        # every q class that interacts with p at all shows up in the row
        assert {tuple((c + t) & 1 for c, t in zip(p.coords, t)) for t in row} == {
            tuple((c + t) & 1 for c, t in zip(p.coords, t)) for t in want}


def _plane_image(fam, pa, pb, reach):
    """The (0,1) row read through _b_table's axis order for the plane (pa, pb).

    order = (pa, pb, then the other axes ascending) sends base-frame axis k
    to axis order[k], so offset t reads the (0,1) row at t'_k = t_{order[k]}.
    q = p + t is odd on the axes where t's parity differs from p's plane; the
    value changes sign exactly when those two axes, in base-frame order, are
    descending in the original frame.
    """
    d = fam.d
    order = [pa, pb] + [axis for axis in range(d) if axis not in (pa, pb)]
    newpos = {old: new for new, old in enumerate(order)}
    out = {}
    for t_base, value in offsets_of(fam, fam._push_row(0, 1, reach)).items():
        t = [0] * d
        for k, c in enumerate(t_base):
            t[order[k]] = c
        odd = [axis for axis in range(d) if (axis in (pa, pb)) != bool(t[axis] & 1)]
        na, nb = sorted(newpos[axis] for axis in odd)
        out[tuple(t)] = -value if order[na] > order[nb] else value
    return out


@pytest.mark.parametrize("fam", [*(CubicalFamilyOp.main(d) for d in (3, 4, 5, 6)), ALT3,
                                 CubicalFamilyOp.main(5).perturbed("beta", (2, 0, 1), 3)],
                         ids=repr)
def test_pushed_rows_are_the_base_plane_row_permuted(fam):
    for reach in range(7):
        for pa, pb in itertools.combinations(range(fam.d), 2):
            assert offsets_of(fam, fam._push_row(pa, pb, reach)) == _plane_image(fam, pa, pb, reach)


def test_overrides_reach_the_rows():
    p = BASE3
    assert offsets_of(MAIN3, _fresh(ZERO_TO_NONZERO).b_row(p, 3))[(3, 0, 1)] == 1
    assert (3, 0, 1) not in offsets_of(MAIN3, _fresh(MAIN3).b_row(p, 3))
    assert offsets_of(MAIN4, _fresh(MAIN4).b_row(BASE4, 2))[(2, 2, 2, 0)] == -2
    assert (2, 2, 2, 0) not in offsets_of(MAIN4, _fresh(NONZERO_TO_ZERO).b_row(BASE4, 2))


# -- the rule lists -----------------------------------------------------------------
# The tables as they were written before the rule lists, one function per table,
# kept as the oracle the rules are checked against.


def _alpha_main(i, j, k):
    if i == 0 and j == 0:
        return 2 if k == 0 else -2
    if i == j == k:
        return -2
    return 0


def _beta_main(i, j, k):
    if k == 0:
        if j == 0:
            return {0: 2, 1: -2}.get(i, 0)
        if j == 1:
            return {0: 1, 1: -1}.get(i, 0)
        return 0
    if i == k + 1 and j in (k, k + 1):
        return -1
    return 0


def _alpha_alt(i, j, k):
    return -1 if i == 0 and j == 0 and k != 0 else 0


def _beta_alt(i, j, k):
    return 0


ORACLE_TABLES = {"cubical": {"alpha": _alpha_main, "beta": _beta_main},
                 "alt3": {"alpha": _alpha_alt, "beta": _beta_alt}}
UP_TO_12 = list(itertools.product(range(13), repeat=3))


@pytest.mark.parametrize("variant", ["cubical", "alt3"])
def test_rules_equal_the_written_tables(variant):
    fam = CubicalFamilyOp(3, 0, variant)
    for kind, table in ORACLE_TABLES[variant].items():
        assert [fam._entry(kind, index) for index in UP_TO_12] == [table(*index) for index in UP_TO_12]


@pytest.mark.parametrize("variant", ["cubical", "alt3"])
def test_no_index_is_covered_by_two_rules(variant):
    for kind in ("alpha", "beta"):
        covered = Counter(index for rule in _FAMILIES[variant][kind]
                          for index, _ in _rule_points(rule, 12, 12, 12))
        assert all(n == 1 for n in covered.values()), kind


# alpha(2,2,2) = -2 lies on a ray and becomes 0; beta(3,0,2) = 0 lies on no rule and becomes 5
RULE_OVERRIDES = {("alpha", (2, 2, 2)): 0, ("beta", (3, 0, 2)): 5}


@pytest.mark.parametrize("variant", ["cubical", "alt3"])
@pytest.mark.parametrize("overrides", [None, RULE_OVERRIDES], ids=["rules", "overridden"])
def test_nonzero_lists_a_dense_scan_within_every_bound(variant, overrides):
    fam = CubicalFamilyOp(3, 0, variant, overrides)
    for kind in ("alpha", "beta"):
        dense = {index: value for index in itertools.product(range(8), repeat=3)
                 if (value := fam._entry(kind, index))}
        for ni, nj, nk in itertools.product(range(8), repeat=3):
            listed = list(fam._nonzero(kind, ni, nj, nk))
            assert len(listed) == len(dict(listed))
            assert dict(listed) == {(i, j, k): v for (i, j, k), v in dense.items()
                                    if i <= ni and j <= nj and k <= nk}


@pytest.mark.parametrize("overrides", [{("alpha", (0, 0, 0)): 2.5}, {("beta", (1, 0, 0)): True},
                                       {("a0",): 12.0}, {("a0",): False}])
def test_override_values_must_be_integers(overrides):
    with pytest.raises(ValueError, match="is not an integer"):
        CubicalFamilyOp(3, table_overrides=overrides)


@pytest.mark.parametrize("kind, index", [("alpha", (0, 0, 0)), ("a0", None)])
def test_perturbing_by_a_non_integer_is_rejected(kind, index):
    with pytest.raises(ValueError, match="is not an integer"):
        MAIN3.perturbed(kind, index, 0.5)


@st.composite
def near_and_far(draw):
    """A plaquette p and two plaquettes within max-norm 3 and 13 of it."""
    d = draw(st.integers(3, 4))

    def plaquette(center, span):
        axes = draw(st.permutations(range(d)))[:2]
        return Cell(0, [2 * (c // 2 + draw(st.integers(-span, span))) + (i in axes)
                        for i, c in enumerate(center)])

    p = plaquette((0,) * d, 3)
    return p, plaquette(p.coords, 1), plaquette(p.coords, 6)


@settings(max_examples=100, deadline=None)
@given(near_and_far())
def test_regrowth_gives_the_same_values_in_either_order(data):
    p, near, far = data
    d = p.ambient_dim
    want = CubicalFamilyOp.main(d)._b_table
    far_first = CubicalFamilyOp.main(d)
    got_far = far_first.b_int(p, far), far_first.b_int(p, near)
    near_first = CubicalFamilyOp.main(d)
    got_near = near_first.b_int(p, near), near_first.b_int(p, far)
    assert got_far == (want(p.coords, far.coords), want(p.coords, near.coords))
    assert got_near == got_far[::-1]
    # the near-first row grew past the far lookup and holds what a fresh row holds
    reach = max(abs(a - b) for a, b in zip(far.coords, p.coords))
    grown = offsets_of(near_first, near_first.b_row(p, reach))
    assert {t: v for t, v in grown.items() if max(map(abs, t)) <= reach} == \
        offsets_of(near_first, CubicalFamilyOp.main(d).b_row(p, reach))


def test_a_far_lookup_grows_the_row_at_least_twofold():
    fam = CubicalFamilyOp.main(3)
    fam.b_row(BASE3, 2)
    fam.b_int(BASE3, Cell(0, (4, 1, 1)))  # offset reach 3
    reach, row = fam._memo[(1, 1, 0)]
    assert reach == 4 and offsets_of(fam, row) == _dense_row(fam, BASE3, 4)


# -- offset keys -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_offset_keys_add_and_keep_order_within_capacity(data):
    d = data.draw(st.integers(3, 15), label="d")
    radix = CubicalFamilyOp.main(d).radix
    cap = key_capacity(radix)
    assert radix == 2 ** (60 // d) and cap >= 7
    assert offset_key([cap] * d, radix) < 2 ** 59  # within two 30-bit digits

    def offsets(bound):
        return st.lists(st.integers(-bound, bound), min_size=d, max_size=d).map(tuple)

    key = lambda t: offset_key(t, radix)
    s, t = data.draw(offsets(cap // 2), label="s"), data.draw(offsets(cap // 2), label="t")
    assert key(s) + key(t) == key(tuple(a + b for a, b in zip(s, t)))
    assert 2 * key(s) + key(t) == key(tuple(2 * a + b for a, b in zip(s, t)))
    u, v = data.draw(offsets(cap), label="u"), data.draw(offsets(cap), label="v")
    assert (key(u) < key(v)) == (u < v) and (key(u) == key(v)) == (u == v)
    assert key(tuple(-x for x in u)) == -key(u)
    assert decode_key(key(u), radix, d) == u == as_offsets({key(u): 1}, radix, d).popitem()[0]


def test_the_widest_row_the_keys_hold_and_one_past_it(monkeypatch):
    # with 12 key bits a d=3 family's radix is 16, whose keys hold a reach of 7
    monkeypatch.setattr(operators, "_KEY_BITS", 12)
    fam = CubicalFamilyOp.main(3)
    assert (fam.radix, key_capacity(fam.radix)) == (16, 7)
    row = fam.b_row(BASE3, 7)
    assert offsets_of(fam, row) == _dense_row(fam, BASE3, 7)
    corner = Cell(0, (-6, -5, 7))  # offset (-7, -6, 7): digits at both ends of the capacity
    assert fam.b_int(BASE3, corner) == MAIN3.b_int(BASE3, corner) == 1
    for p in (BASE3, Cell(0, (0, 1, 1))):  # a held row and one not built yet
        with pytest.raises(ValueError, match="a row of reach 8 does not fit the d=3 offset keys,"
                                             " which hold a reach of at most 7"):
            fam.b_row(p, 8)
    with pytest.raises(ValueError, match="reach 8"):
        fam.b_int(BASE3, Cell(0, (1, 1, 8)))
    assert list(fam._memo) == [(1, 1, 0)] and fam._memo[(1, 1, 0)][1] is row
    # regrowth doubles a row's reach up to the capacity, not past it
    grown = CubicalFamilyOp.main(3)
    grown.b_row(BASE3, 4)
    grown.b_row(BASE3, 5)
    assert grown._memo[(1, 1, 0)][0] == 7 and grown._memo[(1, 1, 0)][1] == row


def test_explicit_radix_covers_its_span_past_a_family_capacity():
    # 2 ** 20 apart on one axis: a d=3 family's keys hold offsets of at most 2 ** 19 - 1
    p, q = BASE3, Cell(0, (1, 1 + 2 ** 20, 0))
    op = ExplicitOp({p: 1, q: 1, Cell(0, (1, 1, 2)): 1}, {(p, q): 3, (p, p): 1})
    assert op.radix == 2 ** 21 + 1 and key_capacity(op.radix) == 2 ** 20
    assert as_offsets(op.b_row(p, 0), op.radix, 3) == {(0, 2 ** 20, 0): 3, (0, 0, 0): 1}
    assert as_offsets(op.b_row(q, 0), op.radix, 3) == {(0, -(2 ** 20), 0): 3}
    assert op.b_row(Cell(0, (1, 1, 2)), 0) == {}
    with pytest.raises(ValueError, match="does not fit"):
        CubicalFamilyOp.main(3).b_int(p, q)


def test_with_scale_copies_share_rows_and_perturbed_copies_start_empty():
    fam = CubicalFamilyOp.main(4)
    coarse = fam.with_scale(-1)
    row = coarse.b_row(Cell(-1, (1, 1, 0, 0)), 3)
    assert fam.with_scale(2).b_row(Cell(2, (5, 3, 0, 2)), 3) is row
    assert fam._memo[(1, 1, 0, 0)][1] is row
    fresh = CubicalFamilyOp.main(4, -1)
    assert fresh._memo == {} and fresh == coarse
    assert fresh.b_row(Cell(-1, (1, 1, 0, 0)), 3) == row
    assert fam.perturbed("beta", (0, 0, 0), 1)._memo == {}


def test_d4_witness_read_from_the_rows():
    p = Cell(0, (0, 0, 1, 1))
    q = Cell(0, (-3, -2, -1, 0))
    fam = CubicalFamilyOp.main(4)
    assert offsets_of(fam, fam.b_row(p, 3)).get((-3, -2, -2, -1), 0) == 0
    assert offsets_of(fam, fam.b_row(q, 3)).get((3, 2, 2, 1), 0) == -1
    assert (fam.b_int(p, q), fam.b_int(q, p)) == (0, -1)


@pytest.mark.parametrize("fam", [MAIN3, ALT3, MAIN4, ZERO_TO_NONZERO], ids=repr)
def test_support_matches_a_box_scan(fam):
    p = translated(fam.base_plaquette(), (2, -4) + (0,) * (fam.d - 2))
    box = [(q, fam.coeff_b(p, q)) for q in cells_near(p, 3, dim=2)]
    assert list(_fresh(fam).support(p, 3)) == [(q, b) for q, b in box if b]
    assert list(fam.support(p, 3)) == [(q, b) for q, b in box if b]  # after wider rows


# -- rows sized once for welldefined's variables ---------------------------------------


def _window1_pool(fam):
    """welldefined_property's pool for the window-1 ideal at fam's scale."""
    cubes = box_cells(fam.scale, (-1,) * fam.d, (1,) * fam.d, dim=3)
    return _probe_pool(fam, ideal_from_cubes(cubes))


# the perturbed family of test_verify's WELLDEFINED_CASES
PERTURBED_ALPHA = operator_from_json({"variant": "cubical", "overrides": [[[0, 0, 1], "alpha", 1]]})


def _pair_cases():
    """(operator, its welldefined variables in _var_key order, the partners j of each i to
    check, None for all)."""
    for fam in (MAIN3, ALT3, MAIN3.with_scale(1), MAIN3.with_scale(-1), PERTURBED_ALPHA):
        yield fam, sorted(_window1_pool(fam), key=_var_key), None
    # main(4)'s 2,016 variables make 4,064,256 pairs: each i against 48 seeded partners
    variables = sorted(_window1_pool(MAIN4), key=_var_key)
    yield MAIN4, variables, random.Random(1509).sample(range(len(variables)), 48)
    explicit = explicit_tables(MAIN3, -2, 1).with_entry(BASE3, Cell(0, (-1, 1, 0)), 3)
    yield explicit, explicit.variables(), None
    sphere = SphereOp([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    yield sphere, sphere.variables(), None


PAIR_CASES = list(_pair_cases())


@pytest.mark.parametrize("op, variables, partners", PAIR_CASES,
                         ids=[repr(op) for op, _, _ in PAIR_CASES])
def test_sized_pair_table_matches_two_lookups(op, variables, partners):
    family = isinstance(op, CubicalFamilyOp)
    sized, lazy = (_fresh(op), _fresh(op)) if family else (op, op)
    _, _, diag_int, cross_int = _index_pairs(sized, variables)
    rows = dict(sized._memo) if family else {}
    if family:
        assert len(rows) == op.d * (op.d - 1) // 2  # one push per parity class
    for i, p in enumerate(variables):
        assert diag_int(i) == lazy.a_int(p) - lazy.b_int(p, p)
        for j in range(len(variables)) if partners is None else partners:
            q = variables[j]
            assert cross_int(i, j) == lazy.b_int(p, q) + lazy.b_int(q, p), (p, q)
    assert all(sized._memo[key] is held for key, held in rows.items())  # none regrew


@pytest.mark.parametrize("fam", [MAIN3, MAIN4], ids=repr)
@pytest.mark.parametrize("caller", ["index_pairs", "covariance_window"])
def test_rows_are_fetched_once_per_parity_class(monkeypatch, fam, caller):
    fam = _fresh(fam)
    if caller == "index_pairs":
        plaquettes = _window1_pool(fam)
        run = lambda: _index_pairs(fam, plaquettes)
    else:
        plaquettes = fam.window_plaquettes(1)
        run = lambda: covariance_window(fam, 1)
    # one row is pushed per parity class, named by its plane: the rows are sized once
    pushed = Counter()
    push_row = CubicalFamilyOp._push_row
    monkeypatch.setattr(CubicalFamilyOp, "_push_row", lambda self, pa, pb, reach: pushed.update(
        [(pa, pb)]) or push_row(self, pa, pb, reach))
    run()
    assert pushed == Counter({p.plane for p in plaquettes})
    assert len(plaquettes) > len(pushed)


def test_sized_pair_table_reads_both_orientations_at_d4():
    variables = sorted(_window1_pool(MAIN4), key=_var_key)
    index = {v: i for i, v in enumerate(variables)}
    cross_int = _index_pairs(_fresh(MAIN4), variables)[3]
    lazy = _fresh(MAIN4)
    for p, q in (D4_FIRST_NONZERO, D4_FIRST_ZERO):
        assert p in index and q in index
        assert sorted((lazy.b_int(p, q), lazy.b_int(q, p))) == [-1, 0]
        assert cross_int(index[p], index[q]) == cross_int(index[q], index[p]) == -1
    rng = random.Random(1503)
    for _ in range(3000):
        p, q = rng.choice(variables), rng.choice(variables)
        assert cross_int(index[p], index[q]) == lazy.b_int(p, q) + lazy.b_int(q, p), (p, q)


def test_a_variable_outside_the_universe_gets_no_row():
    # welldefined checks every variable before its pairs are read; a generator's
    # variable at another scale is numbered but never fetches a row
    outside, far = Cell(1, (1, 1, 0)), Cell(0, (3, 1, 0))
    variables = sorted([BASE3, far, outside], key=_var_key)
    fam = _fresh(MAIN3)
    cross_int = _index_pairs(fam, variables)[3]
    assert list(fam._memo) == [(1, 1, 0)]
    assert cross_int(variables.index(BASE3), variables.index(far)) == 2 * MAIN3.b_int(BASE3, far)


def test_only_a_family_with_a_pool_gets_sized_rows():
    # far apart variables that share no monomial: apply's rows reach only the pairs met
    fam = _fresh(MAIN3)
    f = x(BASE3, 2) * x(Cell(0, (0, 1, 1))) + x(Cell(0, (81, 1, 0)), 2)
    assert apply_operator(fam, f) == fraction_apply(MAIN3, f)
    exp_state(fam, f)
    assert max(reach for reach, _ in fam._memo.values()) == 1
    sphere = SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    cross_int = _index_pairs(sphere, sphere.variables())[3]
    assert cross_int(0, 1) == 2 * sphere.b_int(1, 2)


# -- L's symbol --------------------------------------------------------------------

_Q1, _Q2 = Cell(0, (0, 1, 1)), Cell(0, (1, 0, 1))
SYMBOL_OPS = [MAIN3, ALT3, MAIN4, MAIN3.perturbed("beta", (2, 0, 0), 3),
              ExplicitOp({BASE3: Fraction(1, 2), _Q1: 3, _Q2: 1},
                         {(BASE3, _Q1): Fraction(1, 3), (_Q1, _Q1): 2, (_Q2, BASE3): -1})]


def _symbol_variables(op):
    # window 2: at window 1 neither main(4) nor the perturbed family has a pair (p, q) with
    # b_pq != b_qp, so a symbol read from one orientation would pass
    return op.window_plaquettes(2) if isinstance(op, CubicalFamilyOp) else op.variables()


@pytest.mark.parametrize("op", SYMBOL_OPS, ids=repr)
def test_symbol_matrix_matches_the_pull_route(op):
    # a family by _b_table, both orientations (b is asymmetric at d=4 and when
    # perturbed); an explicit operator by its Fraction tables
    variables = _symbol_variables(op)
    if isinstance(op, CubicalFamilyOp):
        a, b = lambda p: op.a0, lambda p, q: op._b_table(p.coords, q.coords)
        op = _fresh(op)
    else:
        a = lambda p: op.a[p] / op.unit
        b = lambda p, q: op.b.get((p, q), op.b.get((q, p), 0)) / op.unit
    s = _symbol_matrix(op, variables)
    assert len(s) == len(variables) and all(len(row) == len(variables) for row in s)
    for i, p in enumerate(variables):
        for j, q in enumerate(variables):
            want = 2 * (a(p) - b(p, p)) if i == j else -(b(p, q) + b(q, p))
            assert type(s[i][j]) is int and s[i][j] == want, (p, q)


@pytest.mark.parametrize("op", SYMBOL_OPS, ids=repr)
def test_symbol_matrix_is_the_quadratic_form_of_l(op):
    # L(f^2) = xi^T S xi unit for f = sum xi_p x_p; apply_operator reads its pairs
    # through _pair_memo's b_int lookups, not _index_pairs
    variables = _symbol_variables(op)
    s = _symbol_matrix(op, variables)
    rng = random.Random(f"symbol {op!r}")
    for _ in range(4):
        xi = [rng.randint(-3, 3) for _ in variables]
        f = Polynomial.linear(dict(zip(variables, xi)))
        form = sum(xi[i] * c * xi[j] for i, row in enumerate(s) for j, c in enumerate(row))
        assert apply_operator(op, f * f) == Polynomial.const(form * op.unit)
