"""Lattice layer: boundaries, subdivision, and the signed symmetry action."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from holoflow.cells import (
    Cell,
    SignedChain,
    SignedSymmetry,
    act,
    act_chain,
    boundary,
    boundary_of_chain,
    box_cell_count,
    box_cells,
    cell_dimension,
    cells_near,
    children,
    format_cell,
    parse_cell,
    plaquette_offsets,
    plaquettes_near,
)

from conftest import cells, cell_with_symmetry, cell_with_two_symmetries


def chain(entries):
    return SignedChain({Cell(0, u): k for u, k in entries})


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
    assert cell_dimension(Cell(0, (2, 0, 4))) == 0
    assert cell_dimension(Cell(0, (1, 1, 0))) == 2
    assert cell_dimension(Cell(0, (1, 1, 1, 1))) == 4


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
    assert g.compose(g.inverse()) == SignedSymmetry.identity(3)
    assert g != SignedSymmetry.identity(3)
    assert repr(SignedSymmetry.identity(2)) == "SignedSymmetry(perm=(0, 1), signs=(1, 1), trans=(0, 0))"


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
    assert boundary(Cell(0, (1, 0, 0))) == chain([((0, 0, 0), -1), ((2, 0, 0), 1)])


def test_boundary_of_4d_cube_even_first_axis():
    # [2i, 1+2j, 1+2k, 1+2l] at (i,j,k,l) = (1,0,1,2)
    c = Cell(0, (2, 1, 3, 5))
    expected = SignedChain(
        {
            Cell(0, (2, 0, 3, 5)): -1,
            Cell(0, (2, 2, 3, 5)): 1,
            Cell(0, (2, 1, 2, 5)): 1,
            Cell(0, (2, 1, 4, 5)): -1,
            Cell(0, (2, 1, 3, 4)): -1,
            Cell(0, (2, 1, 3, 6)): 1,
        }
    )
    assert boundary(c) == expected


def test_boundary_of_4d_cube_even_last_axis():
    # [1+2i, 1+2j, 1+2k, 2l] at (i,j,k,l) = (0,1,0,1)
    c = Cell(0, (1, 3, 1, 2))
    expected = SignedChain(
        {
            Cell(0, (0, 3, 1, 2)): -1,
            Cell(0, (2, 3, 1, 2)): 1,
            Cell(0, (1, 2, 1, 2)): 1,
            Cell(0, (1, 4, 1, 2)): -1,
            Cell(0, (1, 3, 0, 2)): -1,
            Cell(0, (1, 3, 2, 2)): 1,
        }
    )
    assert boundary(c) == expected


def test_boundary_squares_to_zero_on_unit_cube():
    assert boundary_of_chain(boundary(Cell(0, (1, 1, 1)))).is_zero()


def test_vertex_has_no_boundary():
    with pytest.raises(ValueError, match="vertex has no boundary"):
        boundary(Cell(0, (0, 2, 0)))


@settings(max_examples=150)
@given(cells(min_dim=2))
def test_boundary_squares_to_zero(c):
    assert boundary_of_chain(boundary(c)).is_zero()


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
    g = SignedSymmetry.axis_swap(3, 0, 1)
    assert act(g, Cell(0, (1, 1, 0))) == (Cell(0, (1, 1, 0)), -1)


def test_swap_moves_plaquette_without_sign_when_plane_partly_outside():
    g = SignedSymmetry.axis_swap(3, 0, 1)
    assert act(g, Cell(0, (0, 1, 1))) == (Cell(0, (1, 0, 1)), 1)


def test_identity_action():
    g = SignedSymmetry.identity(4)
    c = Cell(0, (1, 0, 3, 1))
    assert act(g, c) == (c, 1)


def test_reflection_requires_even_center():
    with pytest.raises(ValueError, match="even"):
        SignedSymmetry.reflection(3, 0, center=1)
    with pytest.raises(ValueError, match="even"):
        SignedSymmetry.translation((1, 0, 0))


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
    lhs = boundary_of_chain(act_chain(g, SignedChain({c: 1})))
    rhs = act_chain(g, boundary(c))
    assert lhs == rhs


def test_chain_arithmetic():
    a = chain([((1, 0, 0), 1)])
    b = chain([((1, 0, 0), -1), ((0, 1, 0), 2)])
    assert (a + b) == chain([((0, 1, 0), 2)])
    assert (a - a).is_zero()
    assert 3 * b == chain([((1, 0, 0), -3), ((0, 1, 0), 6)])


# -- literals ------------------------------------------------------------------


def test_cell_literal_roundtrip():
    for text in ("[1,1,0]@0", "[1,1,-2]@0", "[2,1,1]@-1", "[1,0,3,5]@2"):
        assert format_cell(parse_cell(text)) == text


def test_bad_cell_literals():
    for text in ("1,1,0", "[1,1,0]", "[1,1,0]@x", "[]@0", "[1,a]@0"):
        with pytest.raises(ValueError):
            parse_cell(text)


# -- neighbourhoods --------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_plaquette_offsets_are_the_nearby_plaquettes(d):
    # every parity pattern, not only those of plaquettes and cubes
    for parity in itertools.product((0, 1), repeat=d):
        center = Cell(1, tuple(p - 2 * i for i, p in enumerate(parity)))
        for radius in range(4):
            want = [tuple(a - b for a, b in zip(q.coords, center.coords))
                    for q in cells_near(center, radius, dim=2)]
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_box_cells_come_in_cell_order(data):
    # default_cubes, base_plaquettes and window_plaquettes list box_cells as it comes
    d = data.draw(st.integers(1, 4))
    lo = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    hi = [a + data.draw(st.integers(-1, 3)) for a in lo]
    dim = data.draw(st.none() | st.integers(0, d))
    scale = data.draw(st.integers(-2, 2))
    listed = list(box_cells(scale, lo, hi, dim=dim))
    assert listed == sorted(listed)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_box_cell_count_counts_box_cells(data):
    d = data.draw(st.integers(1, 4))
    lo = data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    hi = [a + data.draw(st.integers(-1, 4)) for a in lo]
    dim = data.draw(st.integers(0, d + 1))
    assert box_cell_count(lo, hi, dim) == sum(1 for _ in box_cells(0, lo, hi, dim=dim))
