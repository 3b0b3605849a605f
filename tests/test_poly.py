"""Polynomial ring, formal derivatives, and linear ideal reduction."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
import hypothesis.strategies as st

from holoflow.cells import Cell, box_cells
from holoflow.poly import (
    LinearIdeal,
    Polynomial,
    _mono_mul,
    _var_key,
    bianchi_form,
    format_polynomial,
    ideal_from_cubes,
    parse_polynomial,
)

x = Polynomial.var


# -- oracle: sympy mirror of a polynomial over integer-indexed variables ------

_SYMS = {i: sympy.Symbol(f"x{i}") for i in range(1, 9)}


def to_sympy(f: Polynomial):
    expr = sympy.Integer(0)
    for m, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= _SYMS[v] ** e
        expr += term
    return sympy.expand(expr)


# -- oracle: independent rank computation for linear forms --------------------


def rank_by_elimination(forms):
    variables = sorted({v for f in forms for v in f.variables()}, key=str)
    rows = [[Fraction(f.terms.get(((v, 1),), 0)) for v in variables] for f in forms]
    rank, col = 0, 0
    while rank < len(rows) and col < len(variables):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@st.composite
def small_polys(draw, n_vars=3, max_terms=4, max_degree=3):
    f = Polynomial()
    for _ in range(draw(st.integers(1, max_terms))):
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        mono = Polynomial.const(coeff)
        for _ in range(draw(st.integers(0, max_degree))):
            mono = mono * x(draw(st.integers(1, n_vars)))
        f = f + mono
    return f


# -- ring structure -------------------------------------------------------------


def test_product_of_conjugates():
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1, 2) - x(2, 2)


def test_multiplicative_identity():
    f = 3 * x(1) * x(2) + Fraction(1, 2)
    assert f * Polynomial.const(1) == f


def test_trinomial_square():
    f = (x(1) + x(2) + x(3)) ** 2
    expected = (
        x(1, 2) + x(2, 2) + x(3, 2)
        + 2 * x(1) * x(2) + 2 * x(1) * x(3) + 2 * x(2) * x(3)
    )
    assert f == expected


def test_power_is_repeated_multiplication(monkeypatch):
    from holoflow import poly

    p = x(1) - Fraction(1, 2) * x(2) + 3
    products = []
    mul_terms = poly._mul_terms
    monkeypatch.setattr(poly, "_mul_terms", lambda t1, t2: products.append(1) or mul_terms(t1, t2))
    expected = Polynomial.const(1)
    for n in range(7):
        products.clear()
        assert p**n == expected
        # one product per set bit and one squaring per bit after the first: none wasted
        assert len(products) == (n.bit_count() + n.bit_length() - 1 if n else 0)
        expected = expected * p


@settings(max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(small_polys(), small_polys())
def test_arithmetic_matches_sympy(f, g):
    assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))
    assert to_sympy(f + g) == to_sympy(f) + to_sympy(g)


# -- monomial kernels against their plain forms -----------------------------------


def dict_mono_mul(m1, m2):
    """The product of two monomials through a dict and one sort."""
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda p: _var_key(p[0])))


variables = st.one_of(
    st.integers(1, 6),
    st.builds(Cell, st.integers(-1, 1), st.tuples(*[st.integers(-2, 2)] * 3)),
)
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=5).map(
    lambda d: tuple(sorted(d.items(), key=lambda p: _var_key(p[0]))))


@settings(max_examples=200)
@given(monomials, monomials)
def test_mono_mul_is_the_sorted_dict_product(m1, m2):
    assert _mono_mul(m1, m2) == dict_mono_mul(m1, m2) == _mono_mul(m2, m1)


def var_key_merge(m1, m2):
    """The merge with _var_key computed for every variable it compares."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    k1, k2 = _var_key(m1[0][0]), _var_key(m2[0][0])
    while True:
        if k1 < k2:
            out.append(m1[i])
            i += 1
            if i == n1:
                return (*out, *m2[j:])
            k1 = _var_key(m1[i][0])
        elif k2 < k1:
            out.append(m2[j])
            j += 1
            if j == n2:
                return (*out, *m1[i:])
            k2 = _var_key(m2[j][0])
        else:
            v, e = m1[i]
            out.append((v, e + m2[j][1]))
            i += 1
            j += 1
            if i == n1:
                return (*out, *m2[j:])
            if j == n2:
                return (*out, *m1[i:])
            k1, k2 = _var_key(m1[i][0]), _var_key(m2[j][0])


@st.composite
def monomial_pairs(draw):
    """Two monomials of int and cell variables, the second sharing some of the first's."""
    m1 = draw(monomials)
    powers = draw(st.dictionaries(variables, st.integers(1, 4), max_size=4))
    for v, _ in draw(st.lists(st.sampled_from(m1), unique=True) if m1 else st.just([])):
        powers[v] = draw(st.integers(1, 4))
    return m1, tuple(sorted(powers.items(), key=lambda p: _var_key(p[0])))


MIXED = ((2, 1), (5, 3), (Cell(-1, (1, 1, 0)), 2), (Cell(0, (0, 1, 1)), 1))


@settings(max_examples=300)
@given(monomial_pairs())
@example(((), ()))
@example((MIXED, ()))
@example((MIXED, ((5, 1), (Cell(-1, (1, 1, 0)), 1), (Cell(1, (1, 0, 1)), 2))))
@example((((Cell(0, (0, 1, 1)), 1),), ((1, 1),)))
def test_native_order_merge_matches_the_var_key_merge(pair):
    m1, m2 = pair
    assert _mono_mul(m1, m2) == var_key_merge(m1, m2)
    assert _mono_mul(m2, m1) == var_key_merge(m2, m1)


@settings(max_examples=80, deadline=None)
@given(small_polys(n_vars=4),
       st.dictionaries(st.integers(1, 4),
                       st.one_of(small_polys(n_vars=4, max_terms=3, max_degree=2),
                                 st.integers(-3, 3)),
                       max_size=3))
def test_substitute_is_the_term_by_term_product(f, mapping):
    expected = Polynomial()
    for m, c in f.terms.items():
        term = Polynomial.const(c)
        for v, e in m:
            term = term * mapping.get(v, x(v)) ** e
        expected = expected + term
    assert f.substitute(mapping) == expected


# -- derivatives ----------------------------------------------------------------


def test_derivative_examples():
    assert x(1, 2).derive(1) == 2 * x(1)
    assert not (x(1) * x(2)).derive(3)
    assert not x(1, 2).derive(1).derive(2)
    assert (x(1, 2) * x(2)).derive(1).derive(2) == 2 * x(1)


@settings(max_examples=60)
@given(small_polys(), small_polys(), st.integers(1, 3))
def test_leibniz_rule(f, g, v):
    assert (f * g).derive(v) == f.derive(v) * g + f * g.derive(v)


@settings(max_examples=60)
@given(small_polys(), st.integers(1, 3), st.integers(1, 3))
def test_mixed_partials_commute(f, u, v):
    assert f.derive(u).derive(v) == f.derive(v).derive(u)


def test_eval_zero():
    assert (x(1, 2) + 3).eval_zero() == 3
    assert (x(1) * x(2)).eval_zero() == 0
    assert Polynomial().eval_zero() == 0


# -- constraint ideals -----------------------------------------------------------


def test_single_cube_generator():
    ideal = ideal_from_cubes([Cell(0, (1, 1, 1))])
    (gen,) = ideal.generators
    expected = Polynomial.linear(
        {
            Cell(0, (0, 1, 1)): -1,
            Cell(0, (2, 1, 1)): 1,
            Cell(0, (1, 0, 1)): 1,
            Cell(0, (1, 2, 1)): -1,
            Cell(0, (1, 1, 0)): -1,
            Cell(0, (1, 1, 2)): 1,
        }
    )
    assert gen == expected


def test_ideal_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="3-cell"):
        ideal_from_cubes([Cell(0, (1, 1, 0))])


def test_trivial_ideal_reduce_is_identity():
    ideal = LinearIdeal(())
    f = x(1) * x(2) + 7
    assert ideal.reduce(f) == f


def test_adjacent_cubes_are_independent():
    cubes = [Cell(0, (1, 1, 1)), Cell(0, (3, 1, 1))]
    forms = [bianchi_form(c) for c in cubes]
    assert rank_by_elimination(forms) == 2
    assert ideal_from_cubes(cubes).rank == 2


def test_box_of_cubes_rank_matches_oracle():
    from holoflow.cells import box_cells

    cubes = list(box_cells(0, (-1, -1, -1), (1, 1, 1), dim=3))
    forms = [bianchi_form(c) for c in cubes]
    assert ideal_from_cubes(cubes).rank == rank_by_elimination(forms) == len(cubes)


def test_reduce_substitutes_leading_variable():
    ideal = LinearIdeal([x(1) + x(2) + x(3)])
    assert set(ideal._rows) == {3}
    assert ideal.reduce(x(3) + x(1) * x(2)) == x(1) * x(2) - x(1) - x(2)
    assert not ideal.reduce(x(1) + x(2) + x(3))


def test_reduce_kills_products_of_generators():
    ideal = ideal_from_cubes([Cell(0, (1, 1, 1)), Cell(0, (1, 3, 1))])
    g1, g2 = ideal.generators
    assert not ideal.reduce(g1 * g2)
    assert not ideal.reduce(g1 * g1)


def test_generators_must_be_linear_without_constant():
    with pytest.raises(ValueError, match="not linear"):
        LinearIdeal([x(1, 2)])
    with pytest.raises(ValueError, match="constant term"):
        LinearIdeal([x(1) + 1])


@st.composite
def linear_ideals(draw, n_vars=3):
    forms = draw(st.lists(
        st.dictionaries(st.integers(1, n_vars), st.integers(-3, 3), min_size=1),
        max_size=n_vars))
    return LinearIdeal(Polynomial.linear(form) for form in forms)


@settings(max_examples=60, deadline=None)
@given(linear_ideals(), small_polys())
def test_reduce_keeps_the_constant_term(ideal, f):
    # why the flat state mu_0 needs no reduction modulo a constraint ideal
    assert ideal.reduce(f).eval_zero() == f.eval_zero()


# Leading variables x2 = x1/2 and x4 = (x2 + x3)/3 = x1/6 + x3/3: the rows sit over
# den = 6, where the cube and sphere ideals all have den = 1.
DEN6_IDEAL = LinearIdeal(Polynomial.linear(form) for form in (
    {1: Fraction(1, 2), 2: -1}, {2: 1, 3: 1, 4: -3}))
DEN6_MAPPING = {2: Fraction(1, 2) * x(1), 4: Fraction(1, 6) * x(1) + Fraction(1, 3) * x(3)}


def substitution_oracle(f: Polynomial, mapping: dict) -> Polynomial:
    """f with each mapped variable replaced, one factor at a time over Fractions."""
    out = Polynomial()
    for m, c in f.terms.items():
        term = Polynomial.const(c)
        for v, e in m:
            for _ in range(e):
                term = term * mapping.get(v, x(v))
        out = out + term
    return out


def test_den6_ideal_rows_are_integers_over_their_lcm():
    assert DEN6_IDEAL.den == 6
    assert set(DEN6_IDEAL._rows) == set(DEN6_MAPPING)
    for g in DEN6_IDEAL.generators:
        assert not substitution_oracle(g, DEN6_MAPPING)
    cubes = ideal_from_cubes([Cell(0, (1, 1, 1)), Cell(0, (3, 1, 1)), Cell(0, (1, 3, 1))])
    assert cubes.den == LinearIdeal([x(1) + x(2) + x(3)]).den == 1


@settings(max_examples=80, deadline=None)
@given(small_polys(n_vars=5, max_degree=4))
def test_reduce_matches_substitution_oracle_with_a_common_denominator(f):
    # one ideal for every example, so later examples read a warm monomial memo
    assert DEN6_IDEAL.reduce(f) == substitution_oracle(f, DEN6_MAPPING)


@settings(max_examples=40, deadline=None)
@given(small_polys(n_vars=5, max_degree=4), st.integers(0, 3))
def test_integer_reduction_is_scaled_by_den_to_the_depth(f, extra):
    terms = {m: c * 12 for m, c in f.terms.items()}
    assert all(c.denominator == 1 for c in terms.values())
    depth = f.degree() + extra
    normal = DEN6_IDEAL._reduce_int({m: int(c) for m, c in terms.items()}, depth)
    assert all(type(n) is int for n in normal.values())
    scaled = Polynomial({m: Fraction(n, 12 * 6**depth) for m, n in normal.items()})
    assert scaled == DEN6_IDEAL.reduce(f)


def full_scan_insert(subst, form):
    """Add a linear form to the triangular system on Fractions, scanning every row for the
    new lead."""
    for v in [v for v in form if v in subst]:
        c = form.pop(v)
        for w, cw in subst[v].items():
            form[w] = form.get(w, Fraction(0)) + c * cw
    form = {v: c for v, c in form.items() if c}
    if not form:
        return
    lead = max(form, key=_var_key)
    coef = form.pop(lead)
    rhs = {w: -cw / coef for w, cw in form.items()}
    for other in subst.values():
        if lead in other:
            c = other.pop(lead)
            for w, cw in rhs.items():
                other[w] = other.get(w, Fraction(0)) + c * cw
            for w in [w for w, cw in other.items() if not cw]:
                del other[w]
    subst[lead] = rhs


def full_scan_rows(generators):
    """(den, rows) of LinearIdeal(generators) by full_scan_insert, each row's items in order."""
    subst = {}
    for g in generators:
        full_scan_insert(subst, {v: c for m, c in g.terms.items() for v, _ in m})
    den = math.lcm(*(c.denominator for rhs in subst.values() for c in rhs.values()))
    return den, [(v, [(((w, 1),), c.numerator * (den // c.denominator)) for w, c in rhs.items()])
                 for v, rhs in subst.items()]


def _cube_forms(d, window):
    return [bianchi_form(c) for c in box_cells(0, (-window,) * d, (window,) * d, dim=3)]


# generators whose later members depend on earlier ones, with pivots other than +-1
DEPENDENT_FORMS = [Polynomial.linear(form) for form in (
    {1: 2, 2: -1, 4: 3}, {2: 1, 3: 1, 4: -3}, {1: 2, 3: 1, 4: 0}, {1: Fraction(1, 2), 3: 5},
    {1: 4, 2: -2, 4: 6}, {2: 3, 5: Fraction(-2, 3)})]
# x5 = -x4 gains x1 and x2 when x4 = -x1 - x2 enters, then loses x2 to x2 = -2 x1
GROWING_ROW_FORMS = [Polynomial.linear(form) for form in (
    {4: 1, 5: 1}, {1: 1, 2: 1, 4: 1}, {1: 2, 2: 1})]
IDEAL_GENERATORS = {
    **{f"cubes-d{d}-w{w}": _cube_forms(d, w)
       for d, w in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]},
    **{f"sphere-{n}": [Polynomial.linear({i: 1 for i in range(1, n + 1)})] for n in (2, 3, 5)},
    "dependent": DEPENDENT_FORMS,
    "growing-row": GROWING_ROW_FORMS,
    "dependent-cubes": [*_cube_forms(3, 1), *_cube_forms(3, 1)[:3],
                        _cube_forms(3, 1)[0] + _cube_forms(3, 1)[1]],
}


@pytest.mark.parametrize("case", sorted(IDEAL_GENERATORS))
def test_indexed_elimination_matches_the_full_scan(case):
    generators = IDEAL_GENERATORS[case]
    ideal = LinearIdeal(generators)
    den, rows = full_scan_rows(generators)
    assert ideal.den == den
    assert [(v, list(row.items())) for v, row in ideal._rows.items()] == rows


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(1, 6), st.fractions(-3, 3, max_denominator=3),
                                min_size=1, max_size=4), max_size=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)), max_size=3))
def test_indexed_elimination_matches_the_full_scan_on_drawn_forms(forms, combos):
    generators = [Polynomial.linear(form) for form in forms]
    # dependent members: c * g_i + g_j for earlier generators
    generators += [generators[i] * c + generators[j] for i, j, c in combos
                   if i < len(generators) and j < len(generators)]
    ideal = LinearIdeal(generators)
    den, rows = full_scan_rows(generators)
    assert ideal.den == den
    assert [(v, list(row.items())) for v, row in ideal._rows.items()] == rows


def test_reduce_is_idempotent_morphism_with_ideal_kernel():
    rng = random.Random(11)
    cubes = [Cell(0, (1, 1, 1)), Cell(0, (3, 1, 1)), Cell(0, (1, 3, 1))]
    ideal = ideal_from_cubes(cubes)
    pool = sorted({v for g in ideal.generators for v in g.variables()}, key=str)
    for _ in range(25):
        f = Polynomial()
        combo = Polynomial()
        for g in ideal.generators:
            h = Polynomial.const(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                h = h * x(rng.choice(pool))
            combo = combo + g * h
            f = f + h
        assert not ideal.reduce(combo)
        red = ideal.reduce(f)
        assert ideal.reduce(red) == red
        g0 = ideal.generators[0]
        assert not ideal.reduce(f * g0)
        lhs = ideal.reduce(f * f)
        rhs = ideal.reduce(ideal.reduce(f) * ideal.reduce(f))
        assert lhs == rhs


# -- literals --------------------------------------------------------------------


def test_polynomial_literal_roundtrip():
    p = Cell(0, (1, 1, 0))
    q = Cell(0, (0, 1, 1))
    f = Fraction(3, 2) * x(p, 2) * x(q) - x(q) + 5
    assert parse_polynomial(format_polynomial(f)) == f


def test_parse_cli_shapes():
    f = parse_polynomial("3/2*x[1,1,0]@0^2*x[0,1,1]@0")
    expected = Fraction(3, 2) * x(Cell(0, (1, 1, 0)), 2) * x(Cell(0, (0, 1, 1)))
    assert f == expected
    assert parse_polynomial("x1^2*x2^2") == x(1, 2) * x(2, 2)
    assert parse_polynomial("x[1,1,-2]@0 - 1") == x(Cell(0, (1, 1, -2))) - 1
    assert parse_polynomial("-x1 + x1") == Polynomial()


def test_parse_rejects_junk():
    for text in ("", "x", "x0", "3//2*x1", "x1^-2", "x[1,1]@", "y1", "x1**2", "*x1", "x1*", "*",
                 "x1+", "x1^"):
        with pytest.raises(ValueError):
            parse_polynomial(text)
