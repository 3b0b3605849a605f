"""Shared hypothesis strategies for cells and signed symmetries."""

import hypothesis.strategies as st

from holoflow.cells import Cell, SignedSymmetry, box_cells
from holoflow.operators import ExplicitOp


def explicit_tables(fam, lo: int, hi: int) -> ExplicitOp:
    """fam's coefficients on the plaquettes of the box [lo, hi]^d at fam's scale."""
    plaquettes = list(box_cells(fam.scale, (lo,) * fam.d, (hi,) * fam.d, dim=2))
    b = {(p, q): fam.coeff_b(p, q) for i, p in enumerate(plaquettes) for q in plaquettes[i:]}
    return ExplicitOp({p: fam.coeff_a(p) for p in plaquettes}, {k: v for k, v in b.items() if v})


@st.composite
def cells(draw, min_dim=0, min_d=2, max_d=5, scale_range=(-1, 1)):
    """A cell with coordinates in |u_i| <= 9 and a chosen dimension range."""
    d = draw(st.integers(min_value=max(min_d, min_dim), max_value=max_d))
    k = draw(st.integers(min_value=min_dim, max_value=d))
    odd_axes = set(draw(st.permutations(range(d)))[:k])
    coords = []
    for i in range(d):
        half = draw(st.integers(min_value=-4, max_value=4))
        coords.append(2 * half + (1 if i in odd_axes else 0))
    scale = draw(st.integers(*scale_range))
    return Cell(scale, coords)


@st.composite
def symmetries(draw, d):
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    trans = [2 * x for x in draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))]
    return SignedSymmetry(perm, signs, trans)


@st.composite
def cell_with_symmetry(draw, min_dim=0, max_d=5):
    c = draw(cells(min_dim=min_dim, max_d=max_d))
    g = draw(symmetries(c.ambient_dim))
    return c, g


@st.composite
def cell_with_two_symmetries(draw, min_dim=0, max_d=5):
    c = draw(cells(min_dim=min_dim, max_d=max_d))
    g = draw(symmetries(c.ambient_dim))
    h = draw(symmetries(c.ambient_dim))
    return c, g, h
