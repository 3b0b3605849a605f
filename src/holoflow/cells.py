"""Dyadic cubical cell complexes on Z^d.

A cell at scale n is stored as an integer coordinate vector u; it stands for
the unique cell of the scale-n complex containing the point u * 2^-n.  The
cell's dimension equals the number of odd entries of u: all-even vectors are
vertices, one odd entry an edge, two a plaquette, three a cube, and so on.

Cells and lattice symmetries are named tuples: equality, hashing and the
cell order (scale, then coordinates) are the tuple's, and box_cells yields
cells in that order.  Everything here is immutable and pure; values can be
shared freely.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterable, Iterator, Sequence

from ._frozen import Frozen


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
        odd = tuple(i for i, c in enumerate(self.coords) if c & 1)
        if len(odd) != 2:
            raise ValueError(f"{self} is not a plaquette (dimension {self.dim})")
        return odd

    def odd_axes(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c & 1)

    def translated(self, t: Sequence[int]) -> "Cell":
        return Cell(self.scale, tuple(c + d for c, d in zip(self.coords, t)))

    def sort_key(self) -> "Cell":
        """The cell itself, which already orders by (scale, coords)."""
        return self

    def __repr__(self):
        return f"Cell({self.scale}, {self.coords})"

    def __str__(self):
        return format_cell(self)


def format_cell(c: Cell) -> str:
    return "[" + ",".join(str(x) for x in c.coords) + "]@" + str(c.scale)


def parse_cell(text: str) -> Cell:
    """Parse a cell literal like "[1,1,0]@0"."""
    s = text.strip()
    if not s.startswith("["):
        raise ValueError(f"bad cell literal {text!r}")
    close = s.find("]")
    if close < 0 or not s[close + 1 :].startswith("@"):
        raise ValueError(f"bad cell literal {text!r}")
    body = s[1:close].strip()
    try:
        coords = tuple(int(x) for x in body.split(",")) if body else ()
        scale = int(s[close + 2 :])
    except ValueError:
        raise ValueError(f"bad cell literal {text!r}") from None
    if not coords:
        raise ValueError(f"bad cell literal {text!r}")
    return Cell(scale, coords)


def cell_dimension(c: Cell) -> int:
    return c.dim


def require_plaquette(c: Cell) -> Cell:
    if c.dim != 2:
        raise ValueError(f"{c} is not a plaquette (dimension {c.dim})")
    return c


class SignedChain(Frozen):
    """A formal integer combination of cells of a common dimension."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Cell, int] | None = None):
        clean = {}
        if terms:
            for c, k in terms.items():
                if k:
                    clean[c] = int(k)
        object.__setattr__(self, "terms", clean)

    def coefficient(self, c: Cell) -> int:
        return self.terms.get(c, 0)

    def cells(self):
        return self.terms.keys()

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SignedChain") -> "SignedChain":
        out = dict(self.terms)
        for c, k in other.terms.items():
            out[c] = out.get(c, 0) + k
        return SignedChain(out)

    def __neg__(self) -> "SignedChain":
        return SignedChain({c: -k for c, k in self.terms.items()})

    def __sub__(self, other: "SignedChain") -> "SignedChain":
        return self + (-other)

    def __rmul__(self, k: int) -> "SignedChain":
        return SignedChain({c: k * v for c, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, SignedChain) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_json(self) -> list[dict]:
        return [
            {"cell": format_cell(c), "coeff": self.terms[c]}
            for c in sorted(self.terms)
        ]

    def __repr__(self):
        if not self.terms:
            return "SignedChain(0)"
        parts = []
        for c in sorted(self.terms):
            k = self.terms[c]
            sign = "+" if k > 0 else "-"
            mag = "" if abs(k) == 1 else f"{abs(k)}*"
            parts.append(f"{sign} {mag}{format_cell(c)}")
        return "SignedChain(" + " ".join(parts).lstrip("+ ") + ")"


def boundary(c: Cell) -> SignedChain:
    """Homological boundary of a cell of dimension >= 1.

    For odd-coordinate positions i_1 < ... < i_k the boundary is
    sum_j (-1)^(j+1) ([u + e_{i_j}] - [u - e_{i_j}]), which satisfies
    boundary(boundary(c)) = 0.
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
    return SignedChain(terms)


def boundary_of_chain(chain: SignedChain) -> SignedChain:
    out = SignedChain()
    for c, k in chain.items():
        out = out + k * boundary(c)
    return out


def children(p: Cell) -> frozenset[Cell]:
    """The four scale-(n+1) plaquettes tiling a plaquette at scale n.

    Children carry the same plane as the parent, so their intrinsic
    orientations agree with it.
    """
    require_plaquette(p)
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

    def __new__(
        cls,
        perm: Sequence[int],
        signs: Sequence[int] | None = None,
        trans: Sequence[int] | None = None,
    ):
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

    @classmethod
    def identity(cls, d: int) -> "SignedSymmetry":
        return cls(tuple(range(d)))

    @classmethod
    def translation(cls, t: Sequence[int]) -> "SignedSymmetry":
        return cls(tuple(range(len(t))), trans=t)

    @classmethod
    def axis_swap(cls, d: int, i: int, j: int) -> "SignedSymmetry":
        perm = list(range(d))
        perm[i], perm[j] = perm[j], perm[i]
        return cls(perm)

    @classmethod
    def reflection(cls, d: int, axis: int, center: int = 0) -> "SignedSymmetry":
        """Coordinate reflection u_axis -> center - u_axis (center even)."""
        signs = [1] * d
        signs[axis] = -1
        trans = [0] * d
        trans[axis] = center
        return cls(tuple(range(d)), signs=signs, trans=trans)

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


def act_chain(g: SignedSymmetry, chain: SignedChain) -> SignedChain:
    """Push a chain forward, cells weighted by their orientation signs."""
    out: dict[Cell, int] = {}
    for c, k in chain.items():
        image, sign = act(g, c)
        out[image] = out.get(image, 0) + sign * k
    return SignedChain(out)


def box_cells(
    scale: int,
    lo: Sequence[int],
    hi: Sequence[int],
    dim: int | None = None,
) -> Iterator[Cell]:
    """All cells with lo_i <= u_i <= hi_i, optionally of a fixed dimension."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    for u in itertools.product(*ranges):
        if dim is None or sum(1 for x in u if x & 1) == dim:
            yield Cell(scale, u)


def box_cell_count(lo: Sequence[int], hi: Sequence[int], dim: int) -> int:
    """The number of cells box_cells(scale, lo, hi, dim) yields, enumerating nothing.

    Axis by axis, counts[k] is the number of coordinate prefixes with k odd
    entries; an axis range holding `odd` odd and `even` even integers sends
    it to counts[k] * even + counts[k - 1] * odd.
    """
    counts = [1] + [0] * dim
    for a, b in zip(lo, hi):
        if b < a:
            return 0
        odd = (b + 1) // 2 - a // 2
        even = b - a + 1 - odd
        counts = [counts[k] * even + (counts[k - 1] * odd if k else 0) for k in range(dim + 1)]
    return counts[dim]


def cells_near(center: Cell, radius: int, dim: int) -> Iterator[Cell]:
    """Cells of a given dimension within max-norm distance radius of center."""
    lo = tuple(c - radius for c in center.coords)
    hi = tuple(c + radius for c in center.coords)
    return box_cells(center.scale, lo, hi, dim=dim)


def _offset_ranges(parity: Sequence[int], radius: int) -> Iterator[tuple[range, ...]]:
    """For each pair of axes to be odd, the per-axis ranges whose product is
    that pair's share of plaquette_offsets(parity, radius).

    t_i needs the parity that makes c_i + t_i odd on the pair and even
    elsewhere, so each range runs over [-radius, radius] in steps of 2.
    """
    by_parity = [range(-radius + ((radius + s) & 1), radius + 1, 2) for s in (0, 1)]
    axes = range(len(parity))
    for pair in itertools.combinations(axes, 2):
        yield tuple(by_parity[parity[i] ^ (i in pair)] for i in axes)


def plaquette_offsets(parity: Sequence[int], radius: int) -> list[tuple[int, ...]]:
    """The offsets t with max-norm at most radius that move a cell whose
    coordinates have these parities onto a plaquette, in lexicographic order.

    That is cells_near(c, radius, dim=2) as offsets from c, without the box:
    the union over the pairs of axes to be odd of a product of per-axis
    ranges (_offset_ranges).  Different pairs give disjoint sets.
    """
    out = []
    for ranges in _offset_ranges(parity, radius):
        out.extend(itertools.product(*ranges))
    out.sort()
    return out


def plaquette_offset_count(parity: Sequence[int], radius: int) -> int:
    """len(plaquette_offsets(parity, radius)) from the ranges' lengths, enumerating nothing."""
    return sum(math.prod(map(len, ranges)) for ranges in _offset_ranges(parity, radius))


def plaquettes_near(centers: Iterable[tuple], radius: int) -> set[tuple]:
    """The coordinates of every plaquette within max-norm radius of one of the centers.

    Centers are grouped by the parities of their coordinates.  Within a
    group, each pair of axes to be odd has a product of ranges as its
    offsets (_offset_ranges), so that pair's plaquettes are the centers
    grown one axis at a time, each step a set: a coordinate prefix that
    several centers reach is extended once.
    """
    classes: dict = {}
    for c in centers:
        classes.setdefault(tuple([x & 1 for x in c]), set()).add(c)
    out: set = set()
    for parity, group in classes.items():
        for ranges in _offset_ranges(parity, radius):
            layer = group
            for i, steps in enumerate(ranges):
                layer = {c[:i] + (c[i] + t,) + c[i + 1:] for c in layer for t in steps}
            out |= layer
    return out
