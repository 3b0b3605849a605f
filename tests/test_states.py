"""States: flat, exponential, and Gaussian pipelines; covariance probes."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from holoflow import states
from holoflow.cells import Cell
from holoflow.operators import (
    CubicalFamilyOp,
    ExplicitOp,
    SphereOp,
    _check_euclidean,
    _pair_memo,
    _symbol_matrix,
    apply_operator,
)
from holoflow.poly import (LinearIdeal, Polynomial, _integer_terms, format_polynomial,
                           ideal_from_cubes)
from holoflow.states import (
    CovarianceMatrix,
    LambdaPoly,
    covariance_window,
    euclidean_monomials,
    exp_state,
    format_lambda_poly,
    isserlis_moment,
    psd_probe,
    verify_sphere,
    ym_covariance,
    ym_moment,
)

x = Polynomial.var
MAIN3 = CubicalFamilyOp.main(3)


def rand_areas(n, rng):
    weights = [rng.randint(1, 20) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def rand_poly(rng, variables, max_degree, terms=4):
    f = Polynomial()
    for _ in range(rng.randint(1, terms)):
        term = Polynomial.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * x(rng.choice(variables))
        f = f + term
    return f


# -- flat state ------------------------------------------------------------------


def test_mu0_examples():
    assert x(3).eval_zero() == 0
    assert Polynomial.const(5).eval_zero() == 5
    assert (x(1) * x(2) + Fraction(2, 3)).eval_zero() == Fraction(2, 3)


# -- exponential state -----------------------------------------------------------


def test_exp_state_single_square():
    a1 = Fraction(1, 2)
    op = SphereOp([a1, Fraction(1, 4), Fraction(1, 4)]).to_euclidean()
    assert exp_state(op, x(1, 2)) == LambdaPoly({1: 2 * a1 * (1 - a1)})


def test_exp_state_algebraic_coordinates_agree():
    areas = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    op = SphereOp(areas)
    ideal = LinearIdeal([Polynomial.linear({1: 1, 2: 1, 3: 1})])
    assert exp_state(op, x(1, 2)) == LambdaPoly({1: Fraction(1, 2)})
    assert exp_state(op, x(3, 2)) == exp_state(
        op.to_euclidean(), ideal.reduce(x(3, 2))
    )


def test_exp_state_odd_degree_vanishes():
    op = SphereOp([Fraction(1, 2), Fraction(1, 2)])
    assert exp_state(op, x(1)) == LambdaPoly()
    assert exp_state(op, x(1, 2) * x(2)) == LambdaPoly()


def test_exp_state_lattice_pair():
    f = x(Cell(0, (1, 1, 0))) * x(Cell(0, (0, 1, 1)))
    assert exp_state(MAIN3, f) == LambdaPoly({1: Fraction(-4)})


def test_exp_state_terminates_after_half_degree():
    op = SphereOp([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]).to_euclidean()
    f = (x(1) + x(2)) ** 6
    series = exp_state(op, f)
    assert max(series.coeffs) <= 3
    cur = f
    for _ in range(3):
        cur = apply_operator(op, cur)
    assert not apply_operator(op, cur)


def plain_exp_state(op, f, ideal=None):
    """The series without memos: L applied to the whole of f, k times, each
    power reduced modulo the ideal before its constant term is read."""
    reduce = ideal.reduce if ideal is not None else (lambda g: g)
    coeffs = {0: reduce(f).eval_zero()}
    cur = f
    for k in range(1, f.degree() // 2 + 1):
        cur = apply_operator(op, cur)
        coeffs[k] = reduce(cur).eval_zero() / math.factorial(k)
    return LambdaPoly(coeffs)


def _euclidean_case(rng):
    areas = rand_areas(4, rng)
    return SphereOp(areas).to_euclidean(), None, [1, 2, 3], 6


def _lattice_case_at(scale):
    ideal = ideal_from_cubes([Cell(scale, (1, 1, 1))])
    (generator,) = ideal.generators
    return MAIN3.with_scale(scale), ideal, sorted(generator.variables()), 4


def _lattice_case(rng):
    return _lattice_case_at(0)  # unit 1


def _lattice_case_at_scale_1(rng):
    return _lattice_case_at(1)  # unit 1/4: a missing unit^k shows


def _lattice_case_at_scale_minus_1(rng):
    return _lattice_case_at(-1)  # unit 4


def _sphere_quotient_case(rng):
    areas = rand_areas(4, rng)
    ideal = LinearIdeal([Polynomial.linear({i: 1 for i in range(1, 5)})])
    return SphereOp(areas), ideal, [1, 2, 3, 4], 6


@pytest.mark.parametrize("case", [_euclidean_case, _lattice_case, _lattice_case_at_scale_1,
                                  _lattice_case_at_scale_minus_1, _sphere_quotient_case])
def test_memoized_exp_state_matches_the_plain_series(case):
    rng = random.Random(case.__name__)
    op, ideal, variables, max_degree = case(rng)
    memo, pairs = {}, _pair_memo(op)  # one memo for the operator, as verify_sphere keeps
    for _ in range(12):  # one operator throughout, so later polynomials read a warm memo
        f = rand_poly(rng, variables, max_degree)
        want = plain_exp_state(op, f, ideal)
        assert exp_state(op, f) == want, f
        terms, scale = _integer_terms(f)
        assert states._series_state(op, terms.items(), scale, memo, pairs) == want, f
    assert any(len(series) > 1 for series in memo.values())
    # the series are integers over unit^k; Fractions appear only in exp_state's result
    assert all(type(value) is int for series in memo.values() for value in series)


def test_exp_state_checks_every_variable_against_the_universe():
    op = SphereOp([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]).to_euclidean()
    exp_state(op, x(1, 2) * x(2, 2))
    for f in (x(3), x(1, 2) * x(3, 2), x(1, 2) + x(2) * x(3)):
        with pytest.raises(ValueError, match="outside the operator's universe"):
            exp_state(op, f)
    with pytest.raises(ValueError, match="scale"):
        exp_state(MAIN3, x(Cell(0, (1, 1, 0))) * x(Cell(1, (1, 1, 0))))


def test_a_perturbed_copy_gives_its_own_state():
    op = SphereOp([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]).to_euclidean()
    f = x(1, 2) * x(2, 2)
    before = exp_state(op, f)
    perturbed = op.with_entry(1, 2, Fraction(7, 5))
    assert exp_state(perturbed, f) == plain_exp_state(perturbed, f) != before
    assert exp_state(op, f) == before == plain_exp_state(op, f)


def test_the_pairing_memo_stays_out_of_equality():
    areas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    cov = ym_covariance(areas)
    moment = isserlis_moment(cov, ((1, 2), (2, 2)))
    assert cov._pairings
    cov2 = ym_covariance(areas)
    assert cov2._pairings == {}
    assert cov2 == cov  # __eq__ ignores the memo
    assert isserlis_moment(cov2, ((1, 2), (2, 2))) == moment


# -- covariance -------------------------------------------------------------------


def test_covariance_closed_form_small():
    a = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    cov = ym_covariance(a)
    assert cov.entry(1, 1) == 2 * a[0] * (1 - a[0])
    assert cov.entry(1, 2) == -2 * a[0] * a[1]
    a4 = [Fraction(1, 4)] * 4
    assert ym_covariance(a4).entry(1, 1) == 2 * a4[0] * (1 - a4[0])


def test_covariance_inversion_matches_closed_form_up_to_n8():
    rng = random.Random(17)
    for n in range(2, 9):
        areas = rand_areas(n, rng)
        cov = ym_covariance(areas)  # raises internally on any mismatch
        for i in range(1, n):
            for j in range(i, n):
                expected = 2 * (areas[i - 1] * (1 if i == j else 0) - areas[i - 1] * areas[j - 1])
                assert cov.entry(i, j) == expected


def entry_rows(cov):
    """The matrix of entry(u, v), rows and columns in variable order."""
    return [[cov.entry(u, v) for v in cov.variables] for u in cov.variables]


def _check_numerators(cov):
    """num * unit is entry, and psd_probe's integer matrix is the rows scaled by their lcm."""
    assert cov.unit > 0
    nums = cov.rows
    for i, u in enumerate(cov.variables):
        for j, v in enumerate(cov.variables):
            assert type(cov.num(u, v)) is int
            assert nums[i][j] == cov.num(u, v)
            assert cov.num(u, v) * cov.unit == cov.entry(u, v)
    rows = entry_rows(cov)
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    assert Fraction(1, denom) == cov.unit
    assert nums == [[int(x * denom) for x in row] for row in rows]


def test_ym_covariance_numerators_over_one_unit():
    rng = random.Random(31)
    for n in range(2, 7):
        _check_numerators(ym_covariance(rand_areas(n, rng)))


@pytest.mark.parametrize("family", [MAIN3, CubicalFamilyOp.alt(-1), MAIN3.with_scale(1),
                                    MAIN3.perturbed("beta", (2, 0, 0), 3)], ids=repr)
def test_covariance_window_numerators_over_one_unit(family):
    _check_numerators(covariance_window(family, 1))


def test_covariance_equality_reads_the_entries():
    # 1/2 at (1, 1) and -1/3 at (1, 2), over 6 and over 12; the third adds 1/7 at (2, 2)
    cov = CovarianceMatrix.over((1, 2), [[3, -2], [-2, 0]], 6)
    assert cov == CovarianceMatrix.over((1, 2), [[6, -4], [-4, 0]], 12)
    assert cov != CovarianceMatrix.over((1, 2), [[21, -14], [-14, 6]], 42)
    assert cov != CovarianceMatrix.over((2, 1), [[3, -2], [-2, 0]], 6)


def test_covariance_folds_a_rational_den_into_the_unit():
    # entries 3/2, 3 and 9/2: den 4/3 is D = 4 over N = 3, and gcd(4, every entry) = 2
    cov = CovarianceMatrix.over((1, 2), [[2, 4], [4, 6]], Fraction(4, 3))
    assert (cov.unit, cov.rows) == (Fraction(1, 2), [[3, 6], [6, 9]])
    # a family's unit at scale -1 is 4: over 1/4 every entry is 4 times its row entry
    cov = CovarianceMatrix.over((1, 2), [[1, 0], [0, -3]], Fraction(1, 4))
    assert (cov.unit, cov.rows) == (1, [[4, 0], [0, -12]])
    assert cov == CovarianceMatrix.over((1, 2), [[4, 0], [0, -12]], 1)


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [2]], [[1], [2, 3]], [[1, 2, 0], [2, 3, 0]],
                                  [[], []], [[1, 2], [2, 3], [0, 0]]])
def test_covariance_rejects_a_matrix_that_is_not_square(rows):
    with pytest.raises(ValueError, match="the rows are not a symmetric 2 x 2 matrix"):
        CovarianceMatrix.over((1, 2), rows, 1)


def test_covariance_rejects_an_asymmetric_matrix():
    assert CovarianceMatrix.over((1, 2), [[0, -2], [-2, 3]], 6).entry(2, 1) == Fraction(-1, 3)
    with pytest.raises(ValueError, match="the rows are not a symmetric 2 x 2 matrix"):
        CovarianceMatrix.over((1, 2), [[0, -2], [2, 3]], 6)
    with pytest.raises(ValueError, match="the rows are not a symmetric 3 x 3 matrix"):
        CovarianceMatrix.over((1, 2, 3), [[0, 0, 0], [0, 1, 5], [0, 0, 1]], 1)


def test_covariance_rejects_bad_areas():
    with pytest.raises(ValueError):
        ym_covariance([Fraction(1, 2), Fraction(1, 4)])


# -- pairings ---------------------------------------------------------------------


def test_isserlis_reference_moments():
    cov = CovarianceMatrix.over((1, 2), [[2, -1], [-1, 3]], 1)
    c11, c12, c22 = Fraction(2), Fraction(-1), Fraction(3)
    assert isserlis_moment(cov, ((1, 4),)) == 3 * c11**2
    assert isserlis_moment(cov, ((1, 2), (2, 2))) == c11 * c22 + 2 * c12**2
    assert isserlis_moment(cov, ((1, 3),)) == 0


def brute_pairings(entry, factors):
    """Every perfect pairing of factors, one by one in Fractions from entry(u, v), with no memo."""
    if not factors:
        return Fraction(1)
    head, rest = factors[0], factors[1:]
    return sum((entry(head, rest[i]) * brute_pairings(entry, rest[:i] + rest[i + 1:])
                for i in range(len(rest))), Fraction(0))


def test_isserlis_moment_matches_a_fraction_oracle_on_random_areas():
    rng = random.Random(37)
    for n in (3, 4, 5, 6):
        areas = rand_areas(n, rng)

        def closed_form(i, j):  # E[x_i x_j] / coupling, straight from the areas
            return 2 * (areas[i - 1] * (i == j) - areas[i - 1] * areas[j - 1])

        cov = ym_covariance(areas)
        for _ in range(15):
            counts: dict = {}
            for _ in range(rng.choice((2, 4, 6))):
                v = rng.randint(1, n - 1)
                counts[v] = counts.get(v, 0) + 1
            mono = tuple(sorted(counts.items()))
            factors = tuple(v for v, e in mono for _ in range(e))
            assert type(states._pairing_sum(cov, factors)) is int
            assert isserlis_moment(cov, mono) == brute_pairings(closed_form, factors), mono


def test_pairing_memo_matches_brute_force_pairings():
    rng = random.Random(29)
    for n in (3, 4, 5):
        cov = ym_covariance(rand_areas(n, rng))
        for _ in range(25):  # one matrix throughout, so later monomials read a warm memo
            counts: dict = {}
            for _ in range(rng.randint(0, 8)):
                v = rng.randint(1, n - 1)
                counts[v] = counts.get(v, 0) + 1
            mono = tuple(sorted(counts.items()))
            factors = [v for v, e in mono for _ in range(e)]
            want = brute_pairings(cov.entry, factors) if len(factors) % 2 == 0 else 0
            assert isserlis_moment(cov, mono) == want, mono


def test_ym_moment_examples():
    a = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert ym_moment(a, x(1, 2)) == LambdaPoly({1: 2 * a[0] * (1 - a[0])})
    assert ym_moment(a, Polynomial.const(1)) == LambdaPoly({0: 1})
    assert ym_moment([Fraction(1, 4)] * 4, x(1) * x(2) * x(3)) == LambdaPoly()


def test_ym_moment_sums_scaled_terms_and_drops_cancelled_powers():
    a = [Fraction(1, 4)] * 4
    assert ym_moment(a, x(1, 2) - x(2, 2)) == LambdaPoly()  # equal areas, equal variances
    c11, c12 = 2 * a[0] * (1 - a[0]), -2 * a[0] * a[1]
    f = Fraction(1, 3) * x(1, 2) - 5 * x(1) * x(2) + x(1) + Fraction(7, 2)
    assert ym_moment(a, f) == LambdaPoly({0: Fraction(7, 2), 1: c11 / 3 - 5 * c12})


def test_ym_moment_rejects_out_of_range_variables():
    with pytest.raises(ValueError, match="outside"):
        ym_moment([Fraction(1, 2), Fraction(1, 2)], x(2))


def test_ym_moment_exchangeable_under_relabeling():
    rng = random.Random(23)
    areas = rand_areas(4, rng)
    swapped = [areas[1], areas[0], areas[2], areas[3]]
    f = x(1, 2) * x(2) ** 2 + x(1) * x(3)
    f_swapped = x(2, 2) * x(1) ** 2 + x(2) * x(3)
    assert ym_moment(areas, f) == ym_moment(swapped, f_swapped)


def test_parity_in_both_pipelines():
    areas = [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)]
    op = SphereOp(areas).to_euclidean()
    for mono in (x(1), x(1, 2) * x(2), x(1) * x(2) * x(1, 1)):
        assert ym_moment(areas, mono) == LambdaPoly()
        assert exp_state(op, mono) == LambdaPoly()


# -- the dual-pipeline identity ------------------------------------------------------


def test_two_pipelines_agree_on_small_cases():
    report = verify_sphere([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 4)
    assert report.all_equal
    assert len(report.items) == len(list(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(2), d) for d in range(5)
    )))


def test_n4_first_order_coefficients():
    rng = random.Random(5)
    areas = rand_areas(4, rng)
    op = SphereOp(areas).to_euclidean()
    for i in range(1, 4):
        assert exp_state(op, x(i, 2)) == LambdaPoly({1: 2 * areas[i - 1] * (1 - areas[i - 1])})
    for i, j in ((1, 2), (1, 3), (2, 3)):
        both = ym_moment(areas, x(i) * x(j))
        assert both == LambdaPoly({1: -2 * areas[i - 1] * areas[j - 1]})
        assert exp_state(op, x(i) * x(j)) == both


def test_verify_sphere_builds_one_covariance_per_area_vector(monkeypatch):
    calls = []
    real = states.ym_covariance

    def counting(areas):
        calls.append(tuple(areas))
        return real(areas)

    monkeypatch.setattr(states, "ym_covariance", counting)
    first = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    second = [Fraction(1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(1, 5)]
    assert verify_sphere(first, 4).all_equal
    assert verify_sphere(second, 4).all_equal
    assert calls == [tuple(first), tuple(second)]


def test_verify_sphere_items_match_the_public_routes():
    rng = random.Random(1616)
    for n in range(2, 7):
        areas = rand_areas(n, rng)
        op = SphereOp(areas).to_euclidean()  # its own memo, not verify_sphere's
        report = verify_sphere(areas, 6)
        monomials = list(euclidean_monomials(n - 1, 6))
        assert len(report.items) == len(monomials)
        for mono, item in zip(monomials, report.items):
            f = Polynomial({mono: Fraction(1)})
            assert item.monomial == format_polynomial(f)
            assert item.exp_state == exp_state(op, f)
            assert item.ym_moment == ym_moment(areas, f)
            for value in (item.exp_state, item.ym_moment):
                assert all(type(k) is int and type(c) is Fraction and c
                           for k, c in value.coeffs.items())
        assert report.all_equal


SPHERE5 = [Fraction(w, 17) for w in (3, 5, 2, 4, 3)]


def test_the_substitution_identity_fires_on_a_perturbed_euclidean_table():
    sphere = SphereOp(SPHERE5)
    euclid = sphere.to_euclidean()
    _check_euclidean(sphere, euclid)
    broken = [euclid.with_entry(p, q, euclid.coeff_b(p, q) + Fraction(1, 289))
              for p, q in ((1, 1), (1, 2), (2, 4), (3, 4))]
    broken.append(euclid.with_entry(1, 3, Fraction(1, 3)))  # a new unit
    broken.append(ExplicitOp({**euclid.a, 2: euclid.a[2] + Fraction(1, 7)}, euclid.b))
    # every entry halved: the same integers as the sphere's, over half its unit
    broken.append(ExplicitOp({v: c / 2 for v, c in euclid.a.items()},
                             {k: c / 2 for k, c in euclid.b.items()}))
    for op in broken:
        with pytest.raises(AssertionError, match="substitution identity"):
            _check_euclidean(sphere, op)


def test_the_euclidean_symbol_is_the_sphere_covariance():
    # mu_0 reads the constant term and L has constant coefficients, so the state's second
    # moments are L's symbol: the sphere identity at every degree is this one matrix equality
    rng = random.Random(2026)
    for n in range(2, 8):
        for _ in range(20):
            areas = rand_areas(n, rng)
            euclid = SphereOp(areas).to_euclidean()
            symbol = _symbol_matrix(euclid, range(1, n))
            assert [[c * euclid.unit for c in row] for row in symbol] == entry_rows(
                ym_covariance(areas))


def test_the_inverse_precision_check_fires_on_a_perturbed_closed_form():
    sphere = SphereOp(SPHERE5)
    s, den, m = sphere._scaled, sphere._den, sphere.n - 1
    closed = [[den * s[i] * (i == j) - s[i] * s[j] for j in range(m)] for i in range(m)]
    states._check_inverse_precision(s, den, closed)
    for i, j in ((0, 0), (0, 2), (3, 1)):
        broken = [row[:] for row in closed]
        broken[i][j] += 1
        with pytest.raises(AssertionError, match="inverse precision"):
            states._check_inverse_precision(s, den, broken)


def test_both_identity_checks_run_on_every_verify_sphere_call(monkeypatch):
    from holoflow import operators

    calls = []
    for module, name in ((operators, "_check_euclidean"), (states, "_check_inverse_precision")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for _ in range(2):
        assert verify_sphere(SPHERE5, 2).all_equal
    assert calls == ["_check_euclidean", "_check_inverse_precision"] * 2


def test_verify_sphere_pairs_only_the_even_monomials(monkeypatch):
    real, seen = states.isserlis_moment, []
    monkeypatch.setattr(states, "isserlis_moment", lambda cov, m: seen.append(m) or real(cov, m))
    assert verify_sphere(SPHERE5, 6).all_equal
    assert seen == [m for m in euclidean_monomials(4, 6) if sum(e for _, e in m) % 2 == 0]


def assert_flags_match_the_values(report):
    """Each stored flag is the comparison of the values it stands for."""
    for item in report.items:
        assert item.equal == (item.exp_state == item.ym_moment)
        assert item.to_json()["equal"] is item.equal
    assert report.all_equal == all(item.equal for item in report.items)
    assert report.to_json()["all_equal"] is report.all_equal
    assert report.mismatches == [item for item in report.items
                                 if item.exp_state != item.ym_moment]


@pytest.mark.parametrize("entry", [(1, 3), (2, 2)])
def test_verify_sphere_flags_the_monomials_that_read_a_perturbed_entry(monkeypatch, entry):
    clean = verify_sphere(SPHERE5, 6)
    assert_flags_match_the_values(clean)
    assert clean.all_equal
    real = states.ym_covariance

    def perturbed(areas):
        cov = real(areas)
        rows = [row[:] for row in cov.rows]
        i, j = entry[0] - 1, entry[1] - 1
        rows[i][j] += 1
        rows[j][i] = rows[i][j]
        return CovarianceMatrix.over(cov.variables, rows, cov.unit.denominator)

    monkeypatch.setattr(states, "ym_covariance", perturbed)
    report = verify_sphere(SPHERE5, 6)
    cov = perturbed(SPHERE5)
    u, v = entry
    reads = []
    for mono, item, before in zip(euclidean_monomials(4, 6), report.items, clean.items):
        exponents = dict(mono)
        degree = sum(exponents.values())
        if degree % 2 == 0 and (exponents.get(u, 0) >= 2 if u == v
                                else exponents.get(u) and exponents.get(v)):
            reads.append(item.monomial)
        assert item.exp_state == before.exp_state  # the series route never reads cov
        assert item.ym_moment == ym_moment(SPHERE5, Polynomial({mono: 1}))  # over perturbed
    assert [item.monomial for item in report.mismatches] == reads
    assert len(reads) > 20
    assert_flags_match_the_values(report)
    assert not report.all_equal


def test_sphere_monomials_are_counted_in_closed_form():
    for n in range(1, 7):
        for degree in range(2, 8):
            assert len(list(euclidean_monomials(n - 1, degree))) == math.comb(n - 1 + degree,
                                                                              degree)


def test_sphere_monomials_above_the_bound_raise_before_listing(monkeypatch):
    count = math.comb(4 + 6, 6)  # five areas at degree 6
    monkeypatch.setattr(states, "MAX_SPHERE_MONOMIALS", count)
    assert len(verify_sphere(SPHERE5, 6).items) == count == 210
    monkeypatch.setattr(states, "MAX_SPHERE_MONOMIALS", count - 1)

    def unlisted(*_):
        raise AssertionError("a monomial was listed")

    monkeypatch.setattr(states, "euclidean_monomials", unlisted)
    with pytest.raises(ValueError, match="5 areas at degree 6 give 210 monomials,"
                                         " above the maximum 209"):
        verify_sphere(SPHERE5, 6)


def test_the_degree_bound_admits_max_degree_and_refuses_one_more():
    areas, top = [Fraction(1, 2), Fraction(1, 2)], states.MAX_DEGREE
    op = SphereOp(areas).to_euclidean()
    series = exp_state(op, x(1, top))
    assert list(series.coeffs) == [top // 2] and series == ym_moment(areas, x(1, top))
    assert verify_sphere(areas, top).all_equal
    with pytest.raises(ValueError, match=f"degree {top + 1} exceeds the maximum {top}"):
        exp_state(op, x(1, top + 1))
    with pytest.raises(ValueError, match=f"max_degree {top + 1} exceeds the maximum {top}"):
        verify_sphere(areas, top + 1)


def test_verify_sphere_requires_degree_two():
    with pytest.raises(ValueError, match="at least 2"):
        verify_sphere([Fraction(1, 2), Fraction(1, 2)], 1)


# -- lattice covariance windows -------------------------------------------------------


def test_covariance_window_entries():
    cov = covariance_window(MAIN3, 1)
    p = Cell(0, (1, 1, 0))
    q = Cell(0, (0, 1, 1))
    assert cov.entry(p, p) == 20
    assert cov.entry(p, q) == -4
    assert cov.entry(q, p) == -4


@pytest.mark.parametrize("family", [MAIN3, CubicalFamilyOp.alt(-1), CubicalFamilyOp.main(4, 1),
                                    MAIN3.perturbed("beta", (2, 0, 0), 3)], ids=repr)
def test_covariance_window_matches_the_checked_fraction_form(family):
    cov = covariance_window(family, 2)
    plaquettes = family.window_plaquettes(2)
    assert cov.variables == tuple(plaquettes)
    for i, p in enumerate(plaquettes):
        for q in plaquettes[i:]:  # both orientations: b is asymmetric at d=4 and when perturbed
            want = -(family.coeff_b(p, q) + family.coeff_b(q, p))
            if p == q:
                want += 2 * family.coeff_a(p)
            assert cov.entry(p, q) == cov.entry(q, p) == want


def test_a_window_above_the_bound_raises_before_listing(monkeypatch):
    # 12 plaquettes in the d=3 window of radius 1
    monkeypatch.setattr(states, "MAX_WINDOW_PLAQUETTES", 12)
    assert covariance_window(MAIN3, 1).size == 12
    monkeypatch.setattr(states, "MAX_WINDOW_PLAQUETTES", 11)

    def unlisted(*_):
        raise AssertionError("a plaquette was listed")

    monkeypatch.setattr(CubicalFamilyOp, "window_plaquettes", unlisted)
    with pytest.raises(ValueError, match="window 1 holds 12 plaquettes, above the maximum 11"):
        covariance_window(MAIN3, 1)


@pytest.mark.parametrize("family", [MAIN3, CubicalFamilyOp.alt(-1), CubicalFamilyOp.main(4),
                                    MAIN3.perturbed("beta", (2, 0, 0), 3)], ids=repr)
def test_covariance_window_matches_exp_state(family):
    cov = covariance_window(family, 1)
    for i, p in enumerate(cov.variables):
        for q in cov.variables[i:]:
            assert cov.entry(p, q) == exp_state(family, x(p) * x(q)).coeffs.get(1, 0), (p, q)


def test_one_orientation_of_b_is_not_the_state_at_d4():
    # the matrix read from b_pq of the earlier plaquette and mirrored, as an oracle:
    # at d=4 b is asymmetric, and that matrix misses the state at 1,536 upper entries
    family = CubicalFamilyOp.main(4, 1)
    cov = covariance_window(family, 2)
    plaquettes = cov.variables
    differ = 0
    for i, p in enumerate(plaquettes):
        for q in plaquettes[i:]:
            one_way = 2 * (family.a_int(p) * (p == q) - family.b_int(p, q)) * family.unit
            differ += cov.entry(p, q) != one_way
    assert differ == 1536


def test_psd_probe_on_tiny_window():
    cov = covariance_window(MAIN3, 1)
    probe = psd_probe(cov)
    assert probe.size == cov.size == 12
    assert len(probe.signs) == 12
    assert probe.signs[0] == 1


def test_psd_probe_positive_definite():
    cov = CovarianceMatrix.over((1, 2), [[2, 1], [1, 3]], 1)
    assert psd_probe(cov).signs == (1, 1)


def test_psd_probe_zero_pivot_indefinite():
    cov = CovarianceMatrix.over((1, 2), [[0, 1], [1, 0]], 1)
    report = psd_probe(cov)
    assert report.signs == (0, -1)
    assert not report.nonnegative
    assert report.signs.index(-1) + 1 == 2  # the first negative minor is the second


def test_psd_probe_zero_pivot_degenerate():
    cov = CovarianceMatrix.over((1, 2, 3), [[0, 0, 0], [0, 1, 0], [0, 0, 1]], 1)
    assert psd_probe(cov).signs == (0, 0, 0)


def test_psd_probe_negative_definite_direction():
    cov = CovarianceMatrix.over((1, 2), [[-1, 0], [0, 1]], 1)
    assert psd_probe(cov).signs == (-1, -1)


def leading_determinant_signs(cov):
    """Each leading minor's sign from its own determinant, with no shortcut."""
    rows = entry_rows(cov)
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    scaled = [[int(x * denom) for x in row] for row in rows]
    dets = (states._det_bareiss([row[:m] for row in scaled[:m]]) for m in range(1, cov.size + 1))
    return tuple((d > 0) - (d < 0) for d in dets)


@pytest.mark.parametrize("variant", ["cubical", "alt3"])
@pytest.mark.parametrize("window", [1, 2])
def test_psd_probe_signs_are_the_leading_determinants(variant, window):
    # at window 2 both families reach a zero pivot whose leading columns are dependent
    cov = covariance_window(CubicalFamilyOp(3, 0, variant), window)
    assert psd_probe(cov).signs == leading_determinant_signs(cov)


def _symmetric_with_leading_signs(rng, n, k, dependent):
    """A symmetric integer matrix whose first k pivots are nonzero and whose k+1st is zero.

    dependent: A = P^T S P with column k of P a combination of columns
    0..k-1, so columns 0..k of A are dependent.  Otherwise a random
    symmetric matrix gets the entry (k, k) that makes its Schur complement
    zero there, all entries scaled to integers.  Drawn again until the
    first k leading minors are nonzero and the Gram determinant of columns
    0..k agrees with the plant.
    """
    while True:
        if dependent:
            p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            mix = [rng.randint(-2, 2) for _ in range(k)]
            for row in p:
                row[k] = sum(c * x for c, x in zip(mix, row))
            s = [rng.choice((-1, 1)) for _ in range(n)]
            a = [[sum(p[r][i] * s[r] * p[r][j] for r in range(n)) for j in range(n)]
                 for i in range(n)]
        else:
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-4, 4)
        if any(states._det_bareiss([row[:m] for row in a[:m]]) == 0 for m in range(1, k + 1)):
            continue
        if not dependent:
            head = [[Fraction(x) for x in row[:k]] for row in a[:k]]
            border = a[k][:k]
            # solve head * y = border by Gauss-Jordan, then schur = border . y
            aug = [row + [Fraction(b)] for row, b in zip(head, border)]
            for c in range(k):
                piv = next(r for r in range(c, k) if aug[r][c])
                aug[c], aug[piv] = aug[piv], aug[c]
                aug[c] = [x / aug[c][c] for x in aug[c]]
                for r in range(k):
                    if r != c and aug[r][c]:
                        aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
            schur = sum(b * row[k] for b, row in zip(border, aug))
            a = [[x * schur.denominator for x in row] for row in a]
            a[k][k] = schur.numerator
        if _columns_dependent(a, k) == dependent:
            return a


def _columns_dependent(a, k):
    """Whether columns 0..k of a are dependent: their Gram matrix is singular."""
    cols = [col for col in zip(*a)][: k + 1]
    gram = [[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]
    return states._det_bareiss(gram) == 0


@pytest.mark.parametrize("dependent", [True, False], ids=["dependent", "independent"])
def test_the_zero_pivot_dependence_test_matches_the_gram_determinant(monkeypatch, dependent):
    rng = random.Random(f"planted-{dependent}")
    real = states._det_bareiss
    for _ in range(40):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 2)
        a = _symmetric_with_leading_signs(rng, n, k, dependent)
        cov = CovarianceMatrix.over(range(n), a, 1)
        want = leading_determinant_signs(cov)
        assert want[k] == 0 and 0 not in want[:k]
        calls = []
        monkeypatch.setattr(states, "_det_bareiss", lambda m: calls.append(len(m)) or real(m))
        assert psd_probe(cov).signs == want
        monkeypatch.setattr(states, "_det_bareiss", real)
        # dependent columns decide every later minor; otherwise each is computed
        assert calls == ([] if dependent else list(range(k + 2, n + 1)))


def test_zero_pivots_in_sparse_symmetric_matrices():
    rng = random.Random(2323)
    branches = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.choice((0, 0, 0, 1, -1, 2))
        cov = CovarianceMatrix.over(range(n), a, 1)
        signs = psd_probe(cov).signs
        assert signs == leading_determinant_signs(cov)
        if 0 in signs:
            k = signs.index(0)
            branches.add(_columns_dependent(a, k))
    assert branches == {True, False}


def test_psd_probe_singular_block_of_nullity_two():
    # the leading 2x2 block is zero, but the first column is not, so later minors are computed
    cov = CovarianceMatrix.over((1, 2, 3, 4), [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0],
                                               [0, 1, 0, 0]], 1)
    assert psd_probe(cov).signs == leading_determinant_signs(cov) == (0, 0, 0, 1)


# -- the coupling-polynomial value type ------------------------------------------------


def test_lambda_poly_basics():
    f = LambdaPoly({0: Fraction(1), 1: Fraction(-1, 2), 3: Fraction(2)})
    assert format_lambda_poly(f) == "1 - 1/2*lambda + 2*lambda^3"
    assert f.to_json() == {"0": "1", "1": "-1/2", "3": "2"}
    assert LambdaPoly({2: 0}).coeffs == {}
    assert format_lambda_poly(LambdaPoly()) == "0"
