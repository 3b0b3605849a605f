"""Dyadic cubical cell complexes on Z^d.

A cell at scale n is stored as an integer coordinate vector u; it stands for
the unique cell of the scale-n complex containing the point u * 2^-n.  The
cell's dimension equals the number of odd entries of u: all-even vectors are
vertices, one odd entry an edge, two a plaquette, three a cube, and so on.

Cells and lattice symmetries are named tuples: equality, hashing and the
cell order (scale, then coordinates) are the tuple's.  A chain is a plain
dict, cell -> integer coefficient, holding nonzero entries only.  Boxes are
listed and counted per set of odd axes (_box_ranges), so box_cells costs
time in proportion to the cells it yields and box_cell_count lists nothing.
A coordinate or offset vector can be keyed by one integer, its Horner form
with centred digits (offset_key), which is linear, so keys add as the
vectors do; coefficient rows, sweep sites and plaquettes_near use it.
Everything here is pure; values can be shared freely.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import namedtuple
from typing import Iterable, Iterator, Sequence


class Cell(namedtuple("Cell", "scale coords")):
    """A cell of the dyadic cubical complex: the tuple (scale, coords).

    Equality, hashing and order are the tuple's, so cells sort by scale,
    then coordinates.  A cell therefore also equals the plain tuple
    (scale, coords); no dict, set or comparison here mixes the two, since
    polynomial variables are ints or cells and override indices are
    triples of ints.
    """

    __slots__ = ()

    def __new__(cls, scale: int, coords: Sequence[int]):
        return tuple.__new__(cls, (scale, tuple(coords)))

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    @property
    def dim(self) -> int:
        """Cell dimension: the number of odd coordinates."""
        return sum([c & 1 for c in self.coords])

    @property
    def plane(self) -> tuple[int, int]:
        """The ordered pair of odd-coordinate axes of a plaquette (0-based)."""
        odd = self.odd_axes()
        if len(odd) != 2:
            raise ValueError(f"{self} is not a plaquette (dimension {self.dim})")
        return odd

    def odd_axes(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c & 1)

    def __repr__(self):
        return f"Cell({self.scale}, {self.coords})"

    def __str__(self):
        return format_cell(self)


def format_cell(c: Cell) -> str:
    return "[" + ",".join(map(str, c.coords)) + "]@" + str(c.scale)


def parse_cell(text: str) -> Cell:
    """Parse a cell literal like "[1,1,0]@0": coordinates and scale are ASCII integers with an
    optional sign, each with optional surrounding whitespace."""
    s = text.strip()
    close = s.find("]")
    if not s.startswith("[") or close < 0 or not s[close + 1 :].startswith("@"):
        raise ValueError(f"bad cell literal {text!r}")
    numbers = [*s[1:close].split(","), s[close + 2 :]]
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", x) for x in numbers):
        raise ValueError(f"bad cell literal {text!r}")
    *coords, scale = map(int, numbers)
    return Cell(scale, coords)


def boundary(c: Cell) -> dict[Cell, int]:
    """Homological boundary of a cell of dimension >= 1, as the chain face -> +-1.

    For odd-coordinate positions i_1 < ... < i_k the boundary is
    sum_j (-1)^(j+1) ([u + e_{i_j}] - [u - e_{i_j}]), in that order, which
    satisfies boundary(boundary(c)) = 0.
    """
    odd = c.odd_axes()
    if not odd:
        raise ValueError("vertex has no boundary")
    terms: dict[Cell, int] = {}
    u = c.coords
    for j, axis in enumerate(odd):
        sign = 1 if j % 2 == 0 else -1
        plus = list(u)
        plus[axis] += 1
        minus = list(u)
        minus[axis] -= 1
        terms[Cell(c.scale, plus)] = sign
        terms[Cell(c.scale, minus)] = -sign
    return terms


def children(p: Cell) -> frozenset[Cell]:
    """The four scale-(n+1) plaquettes tiling a plaquette at scale n.

    Children carry the same plane as the parent, so their intrinsic
    orientations agree with it.
    """
    a, b = p.plane
    base = tuple(2 * c for c in p.coords)
    out = []
    for ea, eb in itertools.product((-1, 1), repeat=2):
        v = list(base)
        v[a] += ea
        v[b] += eb
        out.append(Cell(p.scale + 1, v))
    return frozenset(out)


class SignedSymmetry(namedtuple("SignedSymmetry", "perm signs trans")):
    """A lattice symmetry: axis permutation, per-axis reflections, even translation.

    Acting on coordinates: (g u)_i = signs_i * u[perm^-1(i)] + trans_i.
    perm[i] is the image axis of axis i (0-based).  Translation entries must
    be even so cells map to cells of the same dimension.  Equality and
    hashing are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, perm: Sequence[int], signs: Sequence[int] | None = None,
                trans: Sequence[int] | None = None):
        perm = tuple(int(i) for i in perm)
        d = len(perm)
        if sorted(perm) != list(range(d)):
            raise ValueError(f"not a permutation of 0..{d - 1}: {perm}")
        signs = tuple(int(s) for s in signs) if signs is not None else (1,) * d
        trans = tuple(int(t) for t in trans) if trans is not None else (0,) * d
        if len(signs) != d or any(s not in (-1, 1) for s in signs):
            raise ValueError(f"bad sign vector {signs}")
        if len(trans) != d:
            raise ValueError("translation length mismatch")
        if any(t % 2 for t in trans):
            raise ValueError(f"translation must be even to preserve the lattice: {trans}")
        return tuple.__new__(cls, (perm, signs, trans))

    @property
    def dim(self) -> int:
        return len(self.perm)

    def compose(self, other: "SignedSymmetry") -> "SignedSymmetry":
        """self after other: (self.compose(other))(u) = self(other(u))."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        perm = tuple(self.perm[other.perm[i]] for i in range(d))
        inv2 = _inverse_perm(self.perm)
        signs = tuple(self.signs[i] * other.signs[inv2[i]] for i in range(d))
        trans = tuple(self.signs[i] * other.trans[inv2[i]] + self.trans[i] for i in range(d))
        return SignedSymmetry(perm, signs, trans)

    def inverse(self) -> "SignedSymmetry":
        d = self.dim
        perm = _inverse_perm(self.perm)
        signs = tuple(self.signs[self.perm[i]] for i in range(d))
        trans = tuple(-self.signs[self.perm[i]] * self.trans[self.perm[i]] for i in range(d))
        return SignedSymmetry(perm, signs, trans)

    def apply_coords(self, u: Sequence[int]) -> tuple[int, ...]:
        inv = _inverse_perm(self.perm)
        return tuple(self.signs[i] * u[inv[i]] + self.trans[i] for i in range(len(u)))


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _sort_parity(seq: Sequence[int]) -> int:
    """+1 for an even number of inversions, -1 for odd."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def act(g: SignedSymmetry, c: Cell) -> tuple[Cell, int]:
    """Image of a cell under a signed symmetry, with its orientation sign.

    The sign is the parity of the induced map on the cell's oriented frame of
    odd axes: the sorting parity of the image axes times -1 for every frame
    axis that lands on a reflected axis.  For a plaquette this is -1 exactly
    when the map reverses the plane's canonical orientation; for vertices it
    is +1; for higher cells it makes the action commute with the boundary.
    """
    if g.dim != c.ambient_dim:
        raise ValueError("dimension mismatch")
    image = Cell(c.scale, g.apply_coords(c.coords))
    odd = c.odd_axes()
    if not odd:
        return image, 1
    image_axes = [g.perm[i] for i in odd]
    sign = _sort_parity(image_axes)
    for a in image_axes:
        if g.signs[a] < 0:
            sign = -sign
    return image, sign


def _box_ranges(lo: Sequence[int], hi: Sequence[int],
                dim: int | None) -> Iterator[tuple[range, ...]]:
    """For each set of dim axes to be odd (every set when dim is None), the
    per-axis ranges whose product is that set's cells of the box lo..hi.

    An axis of the set runs over the odd integers of [lo_i, hi_i], any other
    over the even ones.  Different sets give disjoint products, and each
    product comes out in coordinate order.
    """
    by_parity = [(range(a + (a & 1), b + 1, 2), range(a | 1, b + 1, 2)) for a, b in zip(lo, hi)]
    axes = range(len(by_parity))
    for k in range(len(axes) + 1) if dim is None else (dim,):
        for odd in itertools.combinations(axes, k):
            yield tuple(r[i in odd] for i, r in enumerate(by_parity))


def box_cells(scale: int, lo: Sequence[int], hi: Sequence[int],
              dim: int | None = None) -> Iterator[Cell]:
    """All cells with lo_i <= u_i <= hi_i, optionally of a fixed dimension, in cell order.

    The products of _box_ranges are merged, so no other cell of the box is visited.
    """
    products = [itertools.product(*ranges) for ranges in _box_ranges(lo, hi, dim)]
    for u in heapq.merge(*products):
        yield Cell(scale, u)


def box_cell_count(lo: Sequence[int], hi: Sequence[int], dim: int) -> int:
    """The number of cells box_cells(scale, lo, hi, dim) yields, enumerating nothing.

    Axis by axis, counts[k] is the number of coordinate prefixes with k odd
    entries; an axis range holding `odd` odd and `even` even integers sends
    it to counts[k] * even + counts[k - 1] * odd.  This costs O(d * dim),
    where summing the products of _box_ranges would cost C(d, dim).
    """
    counts = [1] + [0] * dim
    for a, b in zip(lo, hi):
        if b < a:
            return 0
        odd = (b + 1) // 2 - a // 2
        even = b - a + 1 - odd
        counts = [counts[k] * even + (counts[k - 1] * odd if k else 0) for k in range(dim + 1)]
    return counts[dim]


def offset_key(t: Iterable[int], radix: int) -> int:
    """t in Horner form, sum t_i radix^(d-1-i), with the coordinates as centred digits.

    On offsets whose coordinates lie within key_capacity(radix) it is
    injective and order-preserving (keys sort as their offsets do), and it
    is linear, so key(s + t) = key(s) + key(t) and key(-t) = -key(t).
    """
    key = 0
    for x in t:
        key = key * radix + x
    return key


def key_capacity(radix: int) -> int:
    """The largest |coordinate| that offset_key(t, radix) holds without aliasing."""
    return (radix - 1) // 2


def site_radix(points: Iterable[Sequence[int]], radius: int) -> int:
    """2R + 1, R the largest |coordinate| of any point plus radius: offset_key's digits in
    this radix hold every coordinate within max-norm radius of a point, and every offset."""
    return 2 * (max((abs(x) for c in points for x in c), default=0) + radius) + 1


def decode_key(key: int, radix: int, d: int) -> tuple:
    """The d-offset t with offset_key(t, radix) == key, t within the radix's capacity."""
    half, coords = radix // 2, []
    for _ in range(d):
        x = (key + half) % radix - half
        coords.append(x)
        key = (key - x) // radix
    return tuple(reversed(coords))


def cells_near(center: Cell, radius: int, dim: int) -> Iterator[Cell]:
    """Cells of a given dimension within max-norm distance radius of center."""
    lo = tuple(c - radius for c in center.coords)
    hi = tuple(c + radius for c in center.coords)
    return box_cells(center.scale, lo, hi, dim=dim)


def _offset_ranges(parity: Sequence[int], radius: int) -> Iterator[tuple[range, ...]]:
    """_box_ranges of the plaquettes within max-norm radius of the point parity, as offsets
    from it: the ranges of t with c + t a plaquette, for any c with these parities."""
    lo = [p - radius for p in parity]
    hi = [p + radius for p in parity]
    for ranges in _box_ranges(lo, hi, 2):
        yield tuple(range(r.start - p, r.stop - p, 2) for r, p in zip(ranges, parity))


def plaquette_offsets(parity: Sequence[int], radius: int) -> list[tuple[int, ...]]:
    """The offsets t with max-norm at most radius that move a cell whose
    coordinates have these parities onto a plaquette, in lexicographic order.

    That is cells_near(c, radius, dim=2) as offsets from c: the products of
    _offset_ranges, sorted.
    """
    out = []
    for ranges in _offset_ranges(parity, radius):
        out.extend(itertools.product(*ranges))
    out.sort()
    return out


def plaquettes_near(centers: Iterable[tuple], radius: int) -> set[tuple]:
    """The coordinates of every plaquette within max-norm radius of one of the centers.

    Centers are grouped by the parities of their coordinates.  Within a
    group, each pair of axes to be odd has a product of ranges as its
    offsets (_offset_ranges), so that pair's plaquettes are the centers
    grown one axis at a time, each step a set of offset_key integers in the
    centers' site_radix, which holds every coordinate reached: a step adds
    the axis's weight times the offset, a point that several centers reach
    is extended once, and each plaquette is decoded once at the end.
    """
    classes: dict = {}
    for c in centers:
        classes.setdefault(tuple([x & 1 for x in c]), set()).add(c)
    radix = site_radix(itertools.chain.from_iterable(classes.values()), radius)
    reached: dict = {}  # dimension -> keys, since keys of two dimensions may coincide
    for parity, group in classes.items():
        d = len(parity)
        weights = [radix ** (d - 1 - i) for i in range(d)]
        keys = {offset_key(c, radix) for c in group}
        out = reached.setdefault(d, set())
        for ranges in _offset_ranges(parity, radius):
            layer = keys
            for w, steps in zip(weights, ranges):
                moves = [t * w for t in steps]
                layer = {k + m for k in layer for m in moves}
            out |= layer
    return {decode_key(k, radix, d) for d, keys in reached.items() for k in keys}
