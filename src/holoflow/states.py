"""States as linear functionals valued in exact polynomials of the coupling.

Two independent pipelines produce the same numbers for the sphere state and
check each other with zero tolerance:

* exp_state  -- expands mu_0 e^(coupling * L) as a terminating series: L
  lowers degree by two, so a polynomial of degree m needs floor(m/2) + 1
  terms, each an exact rational.
* ym_moment  -- computes Gaussian moments of the conditioned product measure
  by pairings (Isserlis) over its covariance matrix, a closed form checked
  exactly against the precision matrix.

Both sum integers and apply their unit once.  L's coefficients are integers
over the operator's unit, so mu_0(L^k m) is an integer times unit^k:
exp_state's series holds those integers and makes one Fraction per power of
the coupling.  A CovarianceMatrix stores one dense symmetric integer matrix
over one unit, so a pairing sum over 2k factors is an integer times unit^k.
Since mu_0 reads the constant term and L has constant coefficients, the
state's second moments are L's symbol (operators._symbol_matrix), which is
covariance_window's matrix; ym_covariance's closed form meets it only in tests.

Each pipeline memoizes internally and neither reads the other: exp_state
keeps the integer series per monomial m for one run (an exp_state call or
a verify_sphere area vector), and the integer pairing sums live on the
CovarianceMatrix (_pairings).  verify_sphere is one checked run per area
vector: one euclidean operator (its substitution identity checked on
integers), one covariance matrix (its inverse-precision identity checked
on integers), the variables checked once and one series and one pair memo
for every monomial.  Each monomial tuple goes straight to exp_state's
kernel, _series_state, and to ym_moment's, _pairing_kernel, with no
Polynomial; the series side makes one Fraction per nonzero power of the
coupling and the pairing side one per even monomial.  One round of n = 3,
4, 5 at degree 6 (322 monomials) makes 560 Fractions in all.  The series
memo is read in _mu0_series's loop, so a monomial's series is built by
one call that recurses only on the children it misses.

The reports are NamedTuples.  verify_sphere compares each monomial's two
values once and stores the flag in its MomentComparison, and the
SphereCheckReport stores all_equal, so to_json, mismatches and the CLI
compare no polynomial again.  It counts its monomials in closed form and
refuses more than MAX_SPHERE_MONOMIALS before listing one.

The coupling normalization is the heat-kernel one: a single holonomy of
weight a has second moment 2*a*coupling (density proportional to
exp(-x^2 / (4*coupling*a))).  Weights written with exp(-x^2/(coupling*a))
differ only by rescaling the coupling by 4.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from ._frozen import Frozen

from .cells import box_cell_count
from .operators import (CubicalFamilyOp, SphereOp, _apply_int, _check_vars, _pair_memo,
                        _symbol_matrix)
from .poly import (Monomial, Polynomial, _format_monomial, _integer_terms, _join_terms,
                   _mono_degree)

# The highest degree exp_state and verify_sphere accept.  A monomial's series
# recurses once per two degrees, so this bounds the recursion depth at 128.
MAX_DEGREE = 256
# The most monomials verify_sphere compares.  It lists C(n - 1 + d, d) of them
# for n areas at degree d: 33,153 for three areas at MAX_DEGREE, 1,352,078 for
# twelve at degree 12.
MAX_SPHERE_MONOMIALS = 50_000
# The most plaquettes covariance_window lists.  Its matrix has a square of
# entries: a d=3 window of radius 8 (1,728 plaquettes) prints about 3 M lines.
MAX_WINDOW_PLAQUETTES = 1_000


class LambdaPoly(Frozen):
    """A univariate polynomial in the coupling, over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[int(k)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _of(cls, coeffs: dict[int, Fraction]) -> "LambdaPoly":
        """The polynomial holding coeffs as given: int keys, nonzero Fraction values."""
        f = cls.__new__(cls)
        object.__setattr__(f, "coeffs", coeffs)
        return f

    def __eq__(self, other):
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def to_json(self) -> dict[str, str]:
        return {str(k): str(c) for k, c in sorted(self.coeffs.items())}

    def __repr__(self):
        return f"LambdaPoly({format_lambda_poly(self)})"

    def __str__(self):
        return format_lambda_poly(self)


def format_lambda_poly(f: LambdaPoly) -> str:
    """Ascending powers of the coupling, e.g. "1 - 1/2*lambda + 2*lambda^3"."""
    return _join_terms((f.coeffs[k], "" if k == 0 else "lambda" if k == 1 else f"lambda^{k}")
                       for k in sorted(f.coeffs))


def exp_state(op, f: Polynomial) -> LambdaPoly:
    """mu_0 e^(coupling * L) applied to f, exact in the coupling.

    The series sum_k coupling^k / k! * mu_0(L^k f) terminates after
    floor(deg f / 2) + 1 terms because L drops degree by two.  The flat
    state mu_0 sends every variable to 0 (Polynomial.eval_zero); it needs
    no reduction modulo a constraint ideal first, since the generators are
    linear with no constant term.  Every variable of f is checked once, as
    apply_operator checks them: L^k m has no variable m lacks.  f is
    scaled to integer terms, and _series_state sums the series of its
    monomials, memoized for this call.
    Raises ValueError when f's degree exceeds MAX_DEGREE.
    """
    if f.degree() > MAX_DEGREE:
        raise ValueError(f"degree {f.degree()} exceeds the maximum {MAX_DEGREE}")
    _check_vars(op, f.variables())
    terms, scale = _integer_terms(f)
    return _series_state(op, terms.items(), scale, {}, _pair_memo(op))


def _series_state(op, items, scale: int, memo: dict, pairs: tuple) -> LambdaPoly:
    """exp_state of sum c * m / scale over the (monomial m, integer c) items.

    The caller checks the variables and the degree.  L and mu_0 are linear,
    so mu_0(L^k f) is summed from the series of f's monomials (_mu0_series,
    memo and pairs as there).  Those series are integers over unit^k, so
    the sums are integers; each nonzero power k of the coupling becomes
    one Fraction, v * unit^k / (scale * k!).
    """
    sums: dict[int, int] = {}
    for m, c in items:
        series = memo.get(m)
        if series is None:
            series = _mu0_series(m, memo, pairs)
        for k, value in enumerate(series):
            if value:
                sums[k] = sums.get(k, 0) + c * value
    num, den = op.unit.numerator, op.unit.denominator
    return LambdaPoly._of({k: Fraction(v * num**k, scale * den**k * math.factorial(k))
                           for k, v in sums.items() if v})


def _mu0_series(m: Monomial, memo: dict, pairs: tuple) -> list[int]:
    """[mu_0(L^k m) / unit^k for k = 0..deg(m) // 2], from the series of L m's monomials.

    L m is unit times _apply_int's integer coefficients c2, so entry k is
    sum c2 * (entry k - 1 of m2's series), over every nonzero entry.  The
    caller checks m's variables and that m is not in memo yet; each m2's
    series is read from memo, and computed by recursion only on a miss.
    The series is stored in memo and returned.  pairs is _apply_int's pair
    memo (_pair_memo) for the operator, shared by the whole series.
    """
    series = [int(not m)] + [0] * (_mono_degree(m) // 2)
    for m2, c2 in _apply_int({m: 1}, pairs).items():
        if c2:
            child = memo.get(m2)
            if child is None:
                child = _mu0_series(m2, memo, pairs)
            for k, value in enumerate(child, start=1):
                if value:
                    series[k] += c2 * value
    memo[m] = series
    return series


class CovarianceMatrix(Frozen):
    """Symmetric rational matrix of second-moment coefficients.

    entry(u, v) is the coefficient of the coupling in the state applied to
    x_u x_v.  It is stored once, as the dense symmetric integer matrix rows
    over unit, the reciprocal of the lcm of the entry denominators, rows and
    columns in variable order; num(u, v) is one index read and entry derives
    the Fraction.  _pairings memoizes the integer Isserlis pairing sums on
    the sorted factor tuple; it never enters __eq__.  over() is the one
    constructor.
    """

    __slots__ = ("variables", "unit", "rows", "_index", "_pairings")

    @classmethod
    def over(cls, variables: Sequence, rows: list[list[int]], den) -> "CovarianceMatrix":
        """The matrix with entry(u, v) = rows[i][j] / den, u and v the i-th and j-th variables.

        rows must equal its transpose, so it is square and symmetric, and is
        kept, not copied; den is a positive rational D / N in lowest terms.
        The unit is 1/lcm(reduced entry denominators), D / g, g = gcd(D, every
        entry), so it and __eq__ depend on the entries alone.  rows becomes
        rows // g * N in place, in one pass over its nonzero entries.
        """
        variables = tuple(variables)
        n = len(variables)
        if len(rows) != n or any(tuple(row) != column
                                 for row, column in itertools.zip_longest(rows, zip(*rows))):
            raise ValueError(f"the rows are not a symmetric {n} x {n} matrix")
        den = Fraction(den)
        top, scale = den.numerator, den.denominator
        g = math.gcd(top, *itertools.chain.from_iterable(rows)) if top != 1 else 1
        if g != 1 or scale != 1:
            for row in rows:
                for j in itertools.compress(range(n), row):
                    row[j] = row[j] // g * scale
        cov = cls.__new__(cls)
        object.__setattr__(cov, "variables", variables)
        object.__setattr__(cov, "unit", Fraction(1, top // g))
        object.__setattr__(cov, "rows", rows)
        object.__setattr__(cov, "_index", {v: i for i, v in enumerate(variables)})
        object.__setattr__(cov, "_pairings", {})
        return cov

    def num(self, u, v) -> int:
        """entry(u, v) over unit."""
        return self.rows[self._index[u]][self._index[v]]

    def entry(self, u, v) -> Fraction:
        return self.num(u, v) * self.unit

    @property
    def size(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        # unit and rows are determined by the entries
        return (isinstance(other, CovarianceMatrix)
                and self.variables == other.variables
                and self.unit == other.unit
                and self.rows == other.rows)

    def __repr__(self):
        return f"CovarianceMatrix({self.size} variables)"


def ym_covariance(areas: Sequence) -> CovarianceMatrix:
    """Covariance of the conditioned Gaussian holonomy measure on the sphere.

    The density on x_1..x_{n-1} (with x_n = -sum x_i) is proportional to
    exp(-sum_i x_i^2 / (4*coupling*a_i)); inverting the quadratic form gives
    E[x_i x_j] = coupling * 2(a_i delta_ij - a_i a_j).  That closed form is
    confirmed exactly before returning (_check_inverse_precision), on
    integers: with a_i = s_i / den it is 2 c_ij / den^2, where c_ij =
    den s_i delta_ij - s_i s_j, and 2 c goes to CovarianceMatrix.over over
    den^2.  It never reads the operator's symbol, _symbol_matrix.
    """
    sphere = SphereOp(areas)  # validates positivity and normalization
    s, den, m = sphere._scaled, sphere._den, sphere.n - 1
    closed = [[den * s[i] * (i == j) - s[i] * s[j] for j in range(m)] for i in range(m)]
    _check_inverse_precision(s, den, closed)
    return CovarianceMatrix.over(range(1, m + 1), [[2 * c for c in row] for row in closed],
                                 den * den)


def _check_inverse_precision(s: Sequence[int], den: int, closed: list[list[int]]) -> None:
    """Raise AssertionError unless the precision matrix times twice the closed form is the identity.

    The areas are s / den and the closed form is 2 c / den^2.  The
    precision of x_1..x_{n-1} is P_ik = delta_ik / (4 a_i) + 1 / (4 a_n) =
    (s_n delta_ik + s_i) den / (4 s_i s_n), so entry (i, j) of P times
    4 c / den^2 is sum_k (s_n delta_ik + s_i) c_kj / (s_i s_n den).  The
    check compares those integer sums with delta_ij s_i s_n den.
    """
    m = len(closed)
    for i in range(m):
        precision = [s[m] * (i == k) + s[i] for k in range(m)]
        identity = s[i] * s[m] * den
        for j in range(m):
            if sum(map(mul, precision, (row[j] for row in closed))) != identity * (i == j):
                raise AssertionError("the closed-form covariance is not the inverse precision")


def isserlis_moment(cov: CovarianceMatrix, monomial: Monomial) -> Fraction:
    """Gaussian moment of a monomial as a sum over perfect pairings.

    Returns the coefficient of coupling^(degree/2); odd degrees vanish.
    Each of the degree/2 pairs contributes one factor of cov.unit, applied
    once to the integer pairing sum.
    """
    factors: list = []
    for v, e in monomial:
        factors += [v] * e
    pairs, odd = divmod(len(factors), 2)
    if odd:
        return Fraction(0)
    unit = cov.unit
    return Fraction(_pairing_sum(cov, tuple(factors)) * unit.numerator**pairs,
                    unit.denominator**pairs)


def _pairing_sum(cov: CovarianceMatrix, factors: tuple) -> int:
    """Sum over the perfect pairings of factors of the product of numerators.

    factors is sorted so equal ones are adjacent.  Pairing the head with any
    of k equal factors leaves the same rest, so each distinct partner is
    expanded once and counted k times.
    """
    if not factors:
        return 1
    total = cov._pairings.get(factors)
    if total is None:
        head, rest = factors[0], factors[1:]
        total = 0
        for i, v in enumerate(rest):
            if i and v == rest[i - 1]:
                continue
            c = cov.num(head, v)
            if c:
                total += rest.count(v) * c * _pairing_sum(cov, rest[:i] + rest[i + 1:])
        cov._pairings[factors] = total
    return total


def ym_moment(areas: Sequence, f: Polynomial) -> LambdaPoly:
    """The Yang-Mills state of f, by exact Gaussian pairings.

    f must already live in the coordinates x_1..x_{n-1} (the last holonomy
    eliminated against the conditioning constraint).
    """
    cov = ym_covariance(areas)
    allowed = set(cov.variables)
    bad = f.variables() - allowed
    if bad:
        raise ValueError(f"variables outside x_1..x_{len(allowed)}: {sorted(bad)}")
    return _pairing_kernel(cov, f.terms.items())


def _pairing_kernel(cov: CovarianceMatrix, items) -> LambdaPoly:
    """The pairing state of sum c * m over the (monomial m, coefficient c) items.

    The caller checks the variables.  Odd monomials vanish and are skipped;
    each even one costs one Fraction, isserlis_moment's, scaled by c unless
    c is 1, at power deg(m) / 2 of the coupling.
    """
    coeffs: dict[int, Fraction] = {}
    for m, c in items:
        deg = _mono_degree(m)
        if deg % 2:
            continue
        value = isserlis_moment(cov, m)
        if c != 1:
            value *= c
        k = deg // 2
        coeffs[k] = coeffs[k] + value if k in coeffs else value
    return LambdaPoly._of({k: v for k, v in coeffs.items() if v})


class MomentComparison(NamedTuple):
    """One monomial's values by both routes; equal is their comparison, made once."""

    monomial: str
    exp_state: LambdaPoly
    ym_moment: LambdaPoly
    equal: bool

    def to_json(self) -> dict:
        return {
            "monomial": self.monomial,
            "exp_state": self.exp_state.to_json(),
            "ym_moment": self.ym_moment.to_json(),
            "equal": self.equal,
        }


class SphereCheckReport(NamedTuple):
    """verify_sphere's items in monomial order; all_equal is whether every item's equal holds."""

    areas: tuple
    max_degree: int
    items: tuple
    all_equal: bool

    @property
    def mismatches(self) -> list:
        return [item for item in self.items if not item.equal]

    def to_json(self) -> dict:
        return {
            "areas": [str(a) for a in self.areas],
            "max_degree": self.max_degree,
            "all_equal": self.all_equal,
            "items": [item.to_json() for item in self.items],
        }


def euclidean_monomials(n_vars: int, max_degree: int):
    """All monomials in x_1..x_{n_vars} of total degree <= max_degree.

    They come by degree, each degree's in the order of its sorted variable
    combinations; a combination's distinct variables are its sorted factors.
    """
    for deg in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(1, n_vars + 1), deg):
            yield tuple([(v, combo.count(v)) for v in dict.fromkeys(combo)])


def verify_sphere(areas: Sequence, max_degree: int) -> SphereCheckReport:
    """Exact equality of the two sphere-state pipelines, monomial by monomial.

    Every monomial of degree <= max_degree in the euclidean coordinates is
    pushed through both exp_state (with the euclidean image of the sphere
    operator) and the pairing step (over one covariance matrix for the area
    vector); the report lists both values for each.  The run is one pass
    per area vector: the variables 1..n-1 are checked once, one series memo
    and one pair memo serve every monomial, and each monomial tuple goes
    straight to exp_state's kernel (_series_state) and to ym_moment's
    (_pairing_kernel), with no Polynomial.  Its label is format_polynomial's text of the
    monomial.  Each item's two values are compared once, with
    LambdaPoly.__eq__, and the report's all_equal is read from those flags.
    More than MAX_SPHERE_MONOMIALS monomials, C(n - 1 + max_degree,
    max_degree) for n areas, raise ValueError before any is listed.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree {max_degree} exceeds the maximum {MAX_DEGREE}")
    areas = tuple(Fraction(a) for a in areas)
    count = math.comb(len(areas) - 1 + max_degree, max_degree)
    if count > MAX_SPHERE_MONOMIALS:
        raise ValueError(f"{len(areas)} areas at degree {max_degree} give {count} monomials,"
                         f" above the maximum {MAX_SPHERE_MONOMIALS}")
    op = SphereOp(areas).to_euclidean()
    cov = ym_covariance(areas)
    _check_vars(op, range(1, len(areas)))
    memo, pairs = {}, _pair_memo(op)
    items = []
    for mono in euclidean_monomials(len(areas) - 1, max_degree):
        series = _series_state(op, ((mono, 1),), 1, memo, pairs)
        moment = _pairing_kernel(cov, ((mono, 1),))
        items.append(MomentComparison(_format_monomial(mono) or "1", series, moment,
                                      series == moment))
    return SphereCheckReport(areas, max_degree, tuple(items), all(item.equal for item in items))


def covariance_window(family: CubicalFamilyOp, radius: int) -> CovarianceMatrix:
    """The state's second moments over a window: 2 a_p delta_pq - (b_pq + b_qp).

    The window holds every plaquette with all coordinates within radius at
    the family's scale, in canonical cell order, each checked against the
    universe once.  Entry (p, q) is exp_state's coefficient of the coupling
    on x_p x_q: the family's symbol over the window (_symbol_matrix, read
    from the probes' pair table), integers over the family's unit for
    CovarianceMatrix.over to normalize.  A window of more than
    MAX_WINDOW_PLAQUETTES plaquettes raises ValueError before any is
    listed.
    """
    size = box_cell_count((-radius,) * family.d, (radius,) * family.d, 2)
    if size > MAX_WINDOW_PLAQUETTES:
        raise ValueError(f"window {radius} holds {size} plaquettes, above the maximum"
                         f" {MAX_WINDOW_PLAQUETTES}")
    plaquettes = family.window_plaquettes(radius)
    for p in plaquettes:
        family.check_var(p)
    return CovarianceMatrix.over(plaquettes, _symbol_matrix(family, plaquettes), 1 / family.unit)


class PsdReport(NamedTuple):
    """Signs of the leading principal minors of a symmetric rational matrix.

    Report only: a sign list with no negative entries is consistent with
    positive semidefiniteness on the window, nothing more is claimed.
    """

    size: int
    signs: tuple

    @property
    def nonnegative(self) -> bool:
        return all(s >= 0 for s in self.signs)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "minor_signs": list(self.signs),
            "nonnegative": self.nonnegative,
        }


def psd_probe(cov: CovarianceMatrix) -> PsdReport:
    """Exact signs of all leading principal minors of the covariance matrix.

    The minors of the numerator matrix have the signs of the entries'
    minors, since the unit is positive.
    """
    return PsdReport(size=cov.size, signs=tuple(_leading_minor_signs(cov.rows)))


def _leading_minor_signs(matrix: list[list[int]]) -> list[int]:
    """Signs of leading principal minors of a symmetric integer matrix.

    Fraction-free elimination: after step k the pivot equals the k-th leading
    minor exactly.  The matrix must be symmetric, as psd_probe's covariance
    matrices are: each step then keeps the trailing block symmetric, so only
    its entries with j >= i are computed, and each is mirrored to (j, i).

    At the first zero pivot, step k, the leading block is singular.  If
    the whole leading columns 0..k of the original matrix are dependent,
    every later leading block holds those columns and all later minors are
    zero.  After k steps, work[k][j] for j >= k is the bordered minor
    det(A[{0..k-1, k}, {0..k-1, j}]), the leading k-block's nonzero minor
    times row k reduced against rows 0..k-1.  By symmetry the columns are
    dependent exactly when rows 0..k are, that is when that reduced row is
    zero: when work[k][k:] is all zero.  Otherwise the remaining minors are
    computed independently, by _det_bareiss.
    """
    n = len(matrix)
    work = [row[:] for row in matrix]
    signs: list[int] = []
    prev = 1
    for k in range(n):
        pivot = work[k][k]
        if pivot == 0:
            if not any(work[k][k:]):
                signs.extend([0] * (n - k))
                return signs
            signs.append(0)
            signs.extend(
                _sign(_det_bareiss([row[: m + 1] for row in matrix[: m + 1]]))
                for m in range(k + 1, n)
            )
            return signs
        signs.append(_sign(pivot))
        row_k = work[k]
        for i in range(k + 1, n):
            row_i, w_ik = work[i], work[i][k]
            for j in range(i, n):
                row_i[j] = work[j][i] = (row_i[j] * pivot - w_ik * row_k[j]) // prev
        prev = pivot
    return signs


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    n = len(matrix)
    work = [row[:] for row in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][k] * work[k][j]) // prev
        prev = pivot
    return sign * work[n - 1][n - 1]
