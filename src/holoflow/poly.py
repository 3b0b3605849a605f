"""Sparse multivariate polynomials over exact rationals, and linear ideals.

Variables are either plaquette cells (lattice holonomies) or plain 1-based
integer indices (the sphere case).  Coefficients are fractions.Fraction, so
every identity checked downstream is exact; there is no floating-point mode.

A monomial is a tuple of (variable, exponent) pairs sorted by _var_key, and
the inner loops work on these tuples directly.  The product of two monomials
is one linear merge of the sorted factors.  _var_key's order is the native
one within each type, so the merge compares two cells as tuples and two ints
as ints; only an int against a cell goes through _var_key, which puts the
int first.  substitute(), the ring homomorphism that changes variables,
expands every term into one accumulator and builds a single Polynomial at
the end.

A LinearIdeal is spanned by degree-1 generators with zero constant term (the
shape of all holonomy constraints here).  It is triangularized once at
construction into integer rows over one denominator; reduce() is then a
substitution homomorphism onto normal forms, so reduce(f*g) =
reduce(reduce(f)*reduce(g)) and reduce(f) = 0 exactly when f lies in the
ideal.  Normal forms are computed on integers from a memo of monomial
normal forms (_reduce_int); reduce() is its Fraction wrapper.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping

from ._frozen import Frozen

from .cells import Cell, format_cell, parse_cell

Monomial = tuple  # tuple[(var, exponent), ...] sorted by variable key


def _var_key(v):
    if isinstance(v, Cell):
        return (1, v.scale, v.coords)
    return (0, v)


def _format_var(v) -> str:
    if isinstance(v, Cell):
        return "x" + format_cell(v)
    return f"x{v}"


def _mono_from_dict(d: dict) -> Monomial:
    return tuple(sorted(((v, e) for v, e in d.items() if e), key=lambda p: _var_key(p[0])))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials: one linear merge of their sorted factors."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    v1, v2 = m1[0][0], m2[0][0]
    while True:
        if v1 == v2:
            out.append((v1, m1[i][1] + m2[j][1]))
            i += 1
            j += 1
            if i == n1:
                return (*out, *m2[j:])
            if j == n2:
                return (*out, *m1[i:])
            v1, v2 = m1[i][0], m2[j][0]
            continue
        try:
            first = v1 < v2
        except TypeError:  # an int against a cell
            first = _var_key(v1) < _var_key(v2)
        if first:
            out.append(m1[i])
            i += 1
            if i == n1:
                return (*out, *m2[j:])
            v1 = m1[i][0]
        else:
            out.append(m2[j])
            j += 1
            if j == n2:
                return (*out, *m1[i:])
            v2 = m2[j][0]


def _mul_terms(t1: Mapping, t2: Mapping) -> dict:
    """Term map of the product of two term maps; cancelled terms stay as zeros."""
    out: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = _mono_mul(m1, m2)
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2
    return out


_exponent = itemgetter(1)


def _mono_degree(m: Monomial) -> int:
    return sum(map(_exponent, m))


def _mono_sort_key(m: Monomial):
    return (_mono_degree(m), tuple((_var_key(v), e) for v, e in m))


class Polynomial(Frozen):
    """Sparse polynomial: a map from monomials to nonzero rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, v, exp: int = 1) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return cls.const(1)
        return cls({((v, exp),): Fraction(1)})

    @classmethod
    def linear(cls, coeffs: Mapping) -> "Polynomial":
        return cls({((v, 1),): Fraction(c) for v, c in coeffs.items()})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Polynomial":
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, Fraction)):
            return Polynomial.const(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and queries ----------------------------------------------

    def derive(self, v) -> "Polynomial":
        """Formal partial derivative with respect to variable v."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(v, 0)
            if not e:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            mm = _mono_from_dict(d)
            out[mm] = out.get(mm, Fraction(0)) + c * e
        return Polynomial(out)

    def eval_zero(self) -> Fraction:
        """The constant term: evaluation with every variable sent to 0."""
        return self.terms.get((), Fraction(0))

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def substitute(self, mapping: Mapping) -> "Polynomial":
        """Ring homomorphism sending each mapped variable to a polynomial."""
        out: dict = {}
        powers: dict = {}
        for m, c in self.terms.items():
            kept = tuple(p for p in m if p[0] not in mapping)
            prod = {kept: c}
            for key in m:
                v, e = key
                if v in mapping:
                    power = powers.get(key)
                    if power is None:
                        power = powers[key] = (Polynomial._coerce(mapping[v]) ** e).terms
                    prod = _mul_terms(prod, power)
            for mm, x in prod.items():
                if mm in out:
                    out[mm] += x
                else:
                    out[mm] = x
        return Polynomial(out)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"

    def __str__(self):
        return format_polynomial(self)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form, e.g. "3/2*x[1,1,0]@0^2*x[0,1,1]@0 - x1"."""
    return _join_terms((f.terms[m], _format_monomial(m))
                       for m in sorted(f.terms, key=_mono_sort_key, reverse=True))


def _join_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """The (nonzero coefficient c, factors) terms as "c*factors - ... + ...", or "0" for none.

    A term with no factors is its magnitude alone; a magnitude of 1 before
    factors is left out.
    """
    text = ""
    for c, factors in terms:
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        mag = abs(c)
        text += str(mag) if not factors else factors if mag == 1 else f"{mag}*{factors}"
    return text or "0"


def _format_monomial(m: Monomial) -> str:
    """m's factors as format_polynomial writes them, e.g. "x1^2*x3"; "" for m = ()."""
    return "*".join(_format_var(v) + (f"^{e}" if e > 1 else "") for v, e in m)


def parse_polynomial(text: str):
    """Parse a polynomial literal.

    Terms look like "3/2*x[1,1,0]@0^2*x[0,1,1]@0" (lattice variables) or
    "x1^2*x2" (indexed variables); terms are joined with + and -.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial literal")
    total = Polynomial()
    i, n = 0, len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError(f"dangling sign in {text!r}")
        start, depth = i, 0
        while i < n:
            ch = s[i]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch in "+-" and depth == 0 and s[i - 1] not in "@^*/":
                break
            i += 1
        term = _parse_term(s[start:i], text)
        total = total + sign * term
    return total


def _parse_term(term: str, context: str) -> Polynomial:
    prod = Polynomial.const(1)
    for factor in _split_factors(term, context):
        if factor.startswith("x"):
            prod = prod * _parse_var_factor(factor, context)
        else:
            try:
                prod = prod * Fraction(factor)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad factor {factor!r} in {context!r}") from None
    return prod


def _split_factors(term: str, context: str) -> list[str]:
    out, start, depth = [], 0, 0
    for i, ch in enumerate(term):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "*" and depth == 0:
            out.append(term[start:i])
            start = i + 1
    out.append(term[start:])
    if "" in out:
        raise ValueError(f"empty factor in {term!r} ({context!r})")
    return out


def _parse_var_factor(factor: str, context: str) -> Polynomial:
    body, exp = factor, 1
    if "]" in factor:
        caret = factor.find("^", factor.rfind("]"))
    else:
        caret = factor.find("^")
    if caret >= 0:
        body, exp_text = factor[:caret], factor[caret + 1 :]
        try:
            exp = int(exp_text)
        except ValueError:
            raise ValueError(f"bad exponent in {factor!r} ({context!r})") from None
        if exp < 0:
            raise ValueError(f"negative exponent in {factor!r}")
    name = body[1:]
    if name.startswith("["):
        var = parse_cell(name)
    else:
        try:
            var = int(name)
        except ValueError:
            raise ValueError(f"bad variable {body!r} in {context!r}") from None
        if var < 1:
            raise ValueError(f"variable indices are 1-based: {body!r}")
    return Polynomial.var(var, exp)


class LinearIdeal(Frozen):
    """Ideal spanned by linear forms with zero constant term.

    Triangularization eliminates, for each independent generator, its largest
    variable in the declared total order (index order for integer variables,
    (scale, coords) order for cells), and back-substitutes fully, so no
    leading variable appears on a right-hand side.  Construction keeps an
    index from each variable to the leads whose right-hand side holds it, so
    a new lead is back-substituted into just those rows, not into every row
    of the system.  Each generator enters scaled to integer coefficients,
    and a pivot of 1 or -1 divides without a Fraction, so the cube and
    sphere ideals are eliminated on integers.  The rows are then stored as
    integer linear forms over one denominator den, the lcm of their
    denominators: leading variable v = _rows[v] / den.  den is 1 for the
    cube and sphere ideals.

    Normal forms are computed on integers.  A monomial's normal form is the
    product of its factors' rows, an integer polynomial over den**s with s
    its substituted degree; _memo keeps it, monomial -> (normal form, s),
    built by peeling one leading factor at a time, so every shorter
    monomial on the way is kept too.  The memo holds only pure values of
    the ideal.  _reduce_int sums memoized normal forms over den**depth;
    reduce() scales f to integers, runs it and divides once per surviving
    term.
    """

    __slots__ = ("generators", "den", "_rows", "_memo")

    def __init__(self, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.degree() > 1:
                raise ValueError(f"generator is not linear: {g}")
            if g.eval_zero():
                raise ValueError(f"generator has a constant term: {g}")
        subst: dict = {}
        holders: dict = {}
        for g in gens:
            terms, _ = _integer_terms(g)
            _insert(subst, holders, {v: n for m, n in terms.items() for v, _ in m})
        den = math.lcm(*(c.denominator for rhs in subst.values() for c in rhs.values()))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_rows", {
            v: {((w, 1),): c.numerator * (den // c.denominator) for w, c in rhs.items()}
            for v, rhs in subst.items()
        })
        object.__setattr__(self, "_memo", {})

    def relabelled(self, index: Mapping) -> "LinearIdeal":
        """The same ideal with every variable v renamed index[v], with no second elimination.

        index must order the new names as _var_key orders the old ones, so
        each row keeps its leading variable and each monomial stays sorted.
        The generators and rows are renamed; the memo starts empty.
        """
        def rename(m: Monomial) -> Monomial:
            return tuple([(index[v], e) for v, e in m])

        out = object.__new__(LinearIdeal)
        for name, value in (
                ("generators", tuple(Polynomial({rename(m): c for m, c in g.terms.items()})
                                     for g in self.generators)),
                ("den", self.den),
                ("_rows", {index[v]: {rename(m): c for m, c in row.items()}
                           for v, row in self._rows.items()}),
                ("_memo", {})):
            object.__setattr__(out, name, value)
        return out

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f modulo the ideal."""
        if not self._rows or f.variables().isdisjoint(self._rows):
            return f
        terms, scale = _integer_terms(f)
        depth = f.degree()
        total = scale * self.den**depth
        return Polynomial({m: Fraction(n, total)
                           for m, n in self._reduce_int(terms, depth).items() if n})

    def _reduce_int(self, terms: Mapping, depth: int) -> dict:
        """The normal form of {monomial: int} times den**depth, on integers.

        depth must be at least the degree of every monomial with a nonzero
        coefficient.  Monomials whose contributions cancel stay in the
        result with value 0.
        """
        den = self.den
        normal_form = self._normal_form
        out: dict = {}
        for m, c in terms.items():
            if not c:
                continue
            nf, s = normal_form(m)
            c *= den ** (depth - s)
            for mm, x in nf.items():
                y = c * x
                if mm in out:
                    out[mm] += y
                else:
                    out[mm] = y
        return out

    def _normal_form(self, m: Monomial) -> tuple[dict, int]:
        """(integer normal form of m over den**s, s), memoized.

        m's first leading factor is lowered by one until a memoized or
        leading-free monomial is reached; each step back up multiplies by
        that factor's row and adds one to s.
        """
        memo = self._memo
        hit = memo.get(m)
        if hit is not None:
            return hit
        rows = self._rows
        peeled = []
        while hit is None:
            i = next((i for i, (v, _) in enumerate(m) if v in rows), None)
            if i is None:
                hit = memo[m] = ({m: 1}, 0)
                break
            v, e = m[i]
            peeled.append((m, rows[v]))
            m = m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]
            hit = memo.get(m)
        for m, row in reversed(peeled):
            nf, s = hit
            hit = memo[m] = ({mm: x for mm, x in _mul_terms(nf, row).items() if x}, s + 1)
        return hit

    def __repr__(self):
        return f"LinearIdeal(rank={self.rank}, generators={len(self.generators)})"


def _insert(subst: dict, holders: dict, form: dict) -> None:
    """Add one linear form to a fully back-substituted triangular system.

    holders maps each variable to the set of leading variables whose
    right-hand side holds it; a new lead is substituted into those rows only.
    """
    for v in [v for v in form if v in subst]:
        c = form.pop(v)
        for w, cw in subst[v].items():
            form[w] = form.get(w, 0) + c * cw
    form = {v: c for v, c in form.items() if c}
    if not form:
        return
    lead = max(form, key=_var_key)
    coef = form.pop(lead)
    if coef == 1 or coef == -1:  # its own inverse: integer coefficients stay integers
        rhs = {w: -cw * coef for w, cw in form.items()}
    else:
        rhs = {w: Fraction(-cw, coef) for w, cw in form.items()}
    for u in holders.pop(lead, ()):
        other = subst[u]
        c = other.pop(lead)
        for w, cw in rhs.items():
            other[w] = other.get(w, 0) + c * cw
        for w in rhs:
            if other[w]:
                holders.setdefault(w, set()).add(u)
            else:
                del other[w]
                holders[w].discard(u)
    subst[lead] = rhs
    for w in rhs:
        holders.setdefault(w, set()).add(lead)


def _integer_terms(f: Polynomial) -> tuple[dict, int]:
    """(terms, scale) with f = terms / scale, terms integer and scale the lcm of f's denominators."""
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in f.terms.items()}, scale


def bianchi_form(cube: Cell) -> Polynomial:
    """The linear holonomy constraint of a 3-cell: sum of its signed faces."""
    from .cells import boundary

    if cube.dim != 3:
        raise ValueError(f"{cube} is not a 3-cell (dimension {cube.dim})")
    return Polynomial.linear(boundary(cube))


def ideal_from_cubes(cubes: Iterable[Cell]) -> LinearIdeal:
    """The linear ideal generated by the constraints of the given 3-cells."""
    return LinearIdeal(bianchi_form(c) for c in cubes)
