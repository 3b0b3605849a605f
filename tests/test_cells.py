"""Lattice layer: boundaries, subdivision, and the signed symmetry action."""

import itertools
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from holoflow.cells import (
    Cell,
    SignedSymmetry,
    act,
    boundary,
    box_cell_count,
    box_cells,
    children,
    format_cell,
    parse_cell,
    plaquette_offsets,
    plaquettes_near,
)

from conftest import cells, cell_with_symmetry, cell_with_two_symmetries


def chain(entries):
    return {Cell(0, u): k for u, k in entries}


def push(chain, step):
    """sum k * step(c) over the chain's cells, step(c) a chain; zero entries dropped."""
    out = Counter()
    for c, k in chain.items():
        for image, s in step(c).items():
            out[image] += k * s
    return {c: k for c, k in out.items() if k}


def box_scan(scale, lo, hi, dim=None):
    """Every point of the box in coordinate order, kept when it has dim odd entries."""
    for u in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if dim is None or sum(x & 1 for x in u) == dim:
            yield Cell(scale, u)


# -- oracle: a child plaquette must be geometrically contained in its parent --

def _axis_interval(u: int) -> tuple[int, int]:
    # closed extent along one axis, in units of the cell's own scale
    return (u - 1, u + 1) if u & 1 else (u, u)


def _contained_in(child: Cell, parent: Cell) -> bool:
    # child at scale n+1, parent at scale n: compare in child units
    for cu, pu in zip(child.coords, parent.coords):
        clo, chi = _axis_interval(cu)
        plo, phi = _axis_interval(pu)
        if clo < 2 * plo or chi > 2 * phi:
            return False
    return True


def children_by_containment(p: Cell) -> frozenset[Cell]:
    base = tuple(2 * c for c in p.coords)
    lo = tuple(b - 2 for b in base)
    hi = tuple(b + 2 for b in base)
    return frozenset(
        q for q in box_cells(p.scale + 1, lo, hi, dim=2) if _contained_in(q, p)
    )


# -- dimension ---------------------------------------------------------------


def test_dimension_counts_odd_coordinates():
    assert Cell(0, (2, 0, 4)).dim == 0
    assert Cell(0, (1, 1, 0)).dim == 2
    assert Cell(0, (1, 1, 1, 1)).dim == 4


def test_cell_equality_includes_scale():
    assert Cell(0, (1, 1, 0)) != Cell(1, (1, 1, 0))
    assert Cell(0, (1, 1, 0)) == Cell(0, (1, 1, 0))


def test_cell_from_a_list_is_the_cell_from_a_tuple():
    from_list, from_tuple = Cell(0, [1, 1, 0]), Cell(0, (1, 1, 0))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert {from_list: 1}[from_tuple] == 1
    assert repr(from_list) == "Cell(0, (1, 1, 0))"
    with pytest.raises(AttributeError):
        from_list.scale = 1


def test_symmetries_compare_by_value():
    g = SignedSymmetry([1, 0, 2], [1, -1, 1], [0, 2, 0])
    assert g == SignedSymmetry((1, 0, 2), (1, -1, 1), (0, 2, 0))
    assert hash(g) == hash(SignedSymmetry((1, 0, 2), (1, -1, 1), (0, 2, 0)))
    assert g.compose(g.inverse()) == SignedSymmetry((0, 1, 2))
    assert g != SignedSymmetry((0, 1, 2))
    assert repr(SignedSymmetry((0, 1))) == "SignedSymmetry(perm=(0, 1), signs=(1, 1), trans=(0, 0))"


# -- boundary ------------------------------------------------------------------


def test_boundary_of_unit_cube():
    expected = chain(
        [
            ((0, 1, 1), -1),
            ((2, 1, 1), 1),
            ((1, 0, 1), 1),
            ((1, 2, 1), -1),
            ((1, 1, 0), -1),
            ((1, 1, 2), 1),
        ]
    )
    assert boundary(Cell(0, (1, 1, 1))) == expected


def test_boundary_of_interval():
    # the docstring's order: plus face before minus face, axis by axis
    assert list(boundary(Cell(0, (1, 0, 0))).items()) == [(Cell(0, (2, 0, 0)), 1),
                                                          (Cell(0, (0, 0, 0)), -1)]


def test_boundary_of_4d_cube_even_first_axis():
    # [2i, 1+2j, 1+2k, 1+2l] at (i,j,k,l) = (1,0,1,2)
    c = Cell(0, (2, 1, 3, 5))
    expected = {
        Cell(0, (2, 0, 3, 5)): -1,
        Cell(0, (2, 2, 3, 5)): 1,
        Cell(0, (2, 1, 2, 5)): 1,
        Cell(0, (2, 1, 4, 5)): -1,
        Cell(0, (2, 1, 3, 4)): -1,
        Cell(0, (2, 1, 3, 6)): 1,
    }
    assert boundary(c) == expected


def test_boundary_of_4d_cube_even_last_axis():
    # [1+2i, 1+2j, 1+2k, 2l] at (i,j,k,l) = (0,1,0,1)
    c = Cell(0, (1, 3, 1, 2))
    expected = {
        Cell(0, (0, 3, 1, 2)): -1,
        Cell(0, (2, 3, 1, 2)): 1,
        Cell(0, (1, 2, 1, 2)): 1,
        Cell(0, (1, 4, 1, 2)): -1,
        Cell(0, (1, 3, 0, 2)): -1,
        Cell(0, (1, 3, 2, 2)): 1,
    }
    assert boundary(c) == expected


def test_boundary_squares_to_zero_on_unit_cube():
    assert push(boundary(Cell(0, (1, 1, 1))), boundary) == {}


def test_vertex_has_no_boundary():
    with pytest.raises(ValueError, match="vertex has no boundary"):
        boundary(Cell(0, (0, 2, 0)))


@settings(max_examples=150)
@given(cells(min_dim=2))
def test_boundary_squares_to_zero(c):
    assert push(boundary(c), boundary) == {}


# -- subdivision ---------------------------------------------------------------


def test_children_of_base_plaquette():
    got = children(Cell(0, (1, 1, 0)))
    expected = frozenset(
        {Cell(1, (1, 1, 0)), Cell(1, (1, 3, 0)), Cell(1, (3, 1, 0)), Cell(1, (3, 3, 0))}
    )
    assert got == expected
    assert got == children_by_containment(Cell(0, (1, 1, 0)))


def test_children_rejects_non_plaquettes():
    with pytest.raises(ValueError, match="not a plaquette"):
        children(Cell(0, (1, 1, 1)))


@settings(max_examples=100)
@given(cells(min_dim=2))
def test_children_match_containment_oracle(p):
    if p.dim != 2:
        return
    got = children(p)
    assert len(got) == 4
    assert got == children_by_containment(p)
    for q in got:
        assert q.scale == p.scale + 1
        assert q.plane == p.plane


# -- the signed symmetry action ------------------------------------------------


def test_swap_reverses_plane_containing_both_axes():
    g = SignedSymmetry((1, 0, 2))
    assert act(g, Cell(0, (1, 1, 0))) == (Cell(0, (1, 1, 0)), -1)


def test_swap_moves_plaquette_without_sign_when_plane_partly_outside():
    g = SignedSymmetry((1, 0, 2))
    assert act(g, Cell(0, (0, 1, 1))) == (Cell(0, (1, 0, 1)), 1)


def test_identity_action():
    g = SignedSymmetry(range(4))
    c = Cell(0, (1, 0, 3, 1))
    assert act(g, c) == (c, 1)


def test_reflection_requires_even_center():
    with pytest.raises(ValueError, match="even"):
        SignedSymmetry((0, 1, 2), (-1, 1, 1), (1, 0, 0))
    with pytest.raises(ValueError, match="even"):
        SignedSymmetry((0, 1, 2), trans=(1, 0, 0))


@settings(max_examples=200)
@given(cell_with_two_symmetries())
def test_action_is_a_group_action(data):
    c, g, h = data
    via_h, sh = act(h, c)
    via_gh, sg = act(g, via_h)
    composed, sc = act(g.compose(h), c)
    assert composed == via_gh
    assert sc == sg * sh


@settings(max_examples=200)
@given(cell_with_symmetry())
def test_action_inverts(data):
    c, g = data
    image, s = act(g, c)
    back, s_inv = act(g.inverse(), image)
    assert back == c
    assert s * s_inv == 1


@settings(max_examples=200)
@given(cell_with_symmetry(min_dim=1))
def test_boundary_commutes_with_action(data):
    c, g = data
    acted = lambda x: dict([act(g, x)])
    assert push(push({c: 1}, acted), boundary) == push(boundary(c), acted)


# -- literals ------------------------------------------------------------------


def test_cell_literal_roundtrip():
    for text in ("[1,1,0]@0", "[1,1,-2]@0", "[2,1,1]@-1", "[1,0,3,5]@2"):
        assert format_cell(parse_cell(text)) == text
    assert parse_cell(" [ 1, +1 ,-2 ]@ 0 ") == Cell(0, (1, 1, -2))  # whitespace and signs


def test_bad_cell_literals():
    # coordinates and scale are ASCII integers: "1_0" read as 10 and "\u0661" as 1
    for text in ("1,1,0", "[1,1,0]", "[1,1,0]@x", "[]@0", "[1,a]@0", "[1_0,1,0]@0",
                 "[\u0661,1,0]@0", "[1,1,0]@\u0661", "[+-1,1,0]@0", "[1,,0]@0", "[1,1,0]@0@0"):
        with pytest.raises(ValueError):
            parse_cell(text)


# -- neighbourhoods --------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_plaquette_offsets_are_the_nearby_plaquettes(d):
    # every parity pattern, not only those of plaquettes and cubes
    for parity in itertools.product((0, 1), repeat=d):
        center = Cell(1, tuple(p - 2 * i for i, p in enumerate(parity)))
        for radius in range(4):
            lo = [c - radius for c in center.coords]
            hi = [c + radius for c in center.coords]
            want = [tuple(a - b for a, b in zip(q.coords, center.coords))
                    for q in box_scan(1, lo, hi, dim=2)]
            assert plaquette_offsets(parity, radius) == want, (parity, radius)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plaquettes_near_is_every_center_plus_every_offset(data):
    d = data.draw(st.integers(2, 4))
    radius = data.draw(st.integers(0, 3))
    coords = st.lists(st.integers(-5, 5), min_size=d, max_size=d).map(tuple)
    centers = data.draw(st.lists(coords, min_size=1, max_size=6))
    want = {tuple(a + b for a, b in zip(c, t))
            for c in centers for t in plaquette_offsets([x & 1 for x in c], radius)}
    assert plaquettes_near(centers, radius) == want


@st.composite
def boxes(draw, dims=st.none()):
    """(lo, hi, dim) with d <= 5: some axes may be empty (hi = lo - 1), and dim may be above d."""
    d = draw(st.integers(1, 5))
    lo = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    hi = [a + draw(st.integers(-1, 4)) for a in lo]
    return lo, hi, draw(dims | st.integers(0, d + 1))


@settings(max_examples=150, deadline=None)
@given(boxes(), st.integers(-2, 2))
def test_box_cells_come_in_cell_order(box, scale):
    # default_cubes, base_plaquettes and window_plaquettes list box_cells as it comes;
    # the merged products must give the full scan's cells, in its order
    lo, hi, dim = box
    listed = list(box_cells(scale, lo, hi, dim=dim))
    assert listed == list(box_scan(scale, lo, hi, dim=dim))
    assert listed == sorted(listed)


@settings(max_examples=100, deadline=None)
@given(boxes(dims=st.nothing()))
def test_box_cell_count_counts_box_cells(box):
    lo, hi, dim = box
    assert box_cell_count(lo, hi, dim) == sum(1 for _ in box_scan(0, lo, hi, dim=dim))
