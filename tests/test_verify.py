"""Residual checks: gauge invariance, scale compatibility, well-definedness."""

import itertools
import random
from collections import Counter
from collections.abc import Callable
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from holoflow.cells import (Cell, boundary, box_cells, cells_near, children, decode_key,
                            format_cell, offset_key, parse_cell, site_radix)
from holoflow import verify
from holoflow.operators import (
    CubicalFamilyOp,
    ExplicitOp,
    SphereOp,
    _spread,
    apply_operator,
    operator_from_json,
)
from holoflow.poly import LinearIdeal, Polynomial, _mono_sort_key, _var_key, ideal_from_cubes
from holoflow.verify import (
    ResidualReport,
    alpha_extended,
    base_plaquettes,
    beta_extended,
    child_interaction_sum,
    compat_residual_a,
    compat_residual_b,
    compat_sweep,
    default_cubes,
    gauge_residual,
    gauge_sweep,
    invariance_table_residual,
    solve_base_coefficient,
    sphere_condition,
    violations,
    welldefined_property,
    WELLDEFINED_MAX_DEGREE,
    WELLDEFINED_MAX_TERMS,
    WELLDEFINED_POOL_RADIUS,
    _class_offsets,
    _parity,
    _probe_pool,
    _random_polynomial,
)

from conftest import explicit_tables

x = Polynomial.var

MAIN3 = CubicalFamilyOp.main(3)
ALT3 = CubicalFamilyOp.alt()
BASE3 = Cell(0, (1, 1, 0))
CUBE = Cell(0, (1, 1, 1))


# -- gauge residuals -----------------------------------------------------------


def test_gauge_residual_vanishes_at_reference_sites():
    assert gauge_residual(MAIN3, CUBE, BASE3) == 0
    assert gauge_residual(MAIN3, Cell(0, (3, 3, 3)), BASE3) == 0
    assert gauge_residual(ALT3, CUBE, BASE3) == 0


def test_base_coefficient_is_forced():
    assert solve_base_coefficient(MAIN3, CUBE, BASE3) == 12
    assert solve_base_coefficient(ALT3, CUBE, BASE3) == 1
    assert solve_base_coefficient(explicit_tables(MAIN3, 0, 2), CUBE, BASE3) == 12
    # only b is read: with a_0 moved off 12 the gauge residual fails, the forced value stays
    shifted = MAIN3.perturbed("a0", None, 5)
    assert gauge_residual(shifted, CUBE, BASE3) != 0
    assert solve_base_coefficient(shifted, CUBE, BASE3) == 12
    with pytest.raises(ValueError, match="not a face"):
        solve_base_coefficient(MAIN3, CUBE, Cell(0, (5, 5, 0)))
    with pytest.raises(ValueError, match="3-cell"):
        solve_base_coefficient(MAIN3, BASE3, BASE3)
    with pytest.raises(ValueError, match="scale-0 lattice"):
        solve_base_coefficient(MAIN3, Cell(1, CUBE.coords), Cell(1, BASE3.coords))
    with pytest.raises(ValueError, match="universe"):
        solve_base_coefficient(explicit_tables(MAIN3, 0, 1), CUBE, BASE3)


def test_gauge_residual_input_validation():
    with pytest.raises(ValueError, match="scale mismatch"):
        gauge_residual(MAIN3, CUBE, Cell(1, (1, 1, 0)))
    with pytest.raises(ValueError, match="3-cell"):
        gauge_residual(MAIN3, BASE3, BASE3)


def test_gauge_sweep_is_clean_and_in_head_order():
    # centers in head-label order, each center's sites distinct; nothing sorts the sites
    reports = gauge_sweep(MAIN3, default_cubes(3, 0), 2)
    assert reports and not violations(reports)
    heads = [r.site[0] for r in reports]
    assert heads == sorted(heads) and len({r.site for r in reports}) == len(reports)


def test_explicit_fault_breaks_gauge_invariance():
    clean = explicit_tables(MAIN3, -2, 3)
    clean_reports = gauge_sweep(clean, [CUBE], 2)
    assert clean_reports and not violations(clean_reports)

    broken = clean.with_entry(BASE3, Cell(0, (0, 1, 1)), Fraction(3))
    assert violations(gauge_sweep(broken, [CUBE], 2))


def test_explicit_tables_sweep_like_the_family_at_their_sites():
    cubes = default_cubes(3, 0)
    explicit = gauge_sweep(explicit_tables(MAIN3, -3, 2), cubes, 2)
    family = {r.site: r for r in gauge_sweep(MAIN3, cubes, 2)}
    assert explicit and len(explicit) < len(family)
    assert all(family[r.site] == r for r in explicit)


def test_explicit_fault_violations_are_the_nonzero_single_site_residuals():
    op = explicit_tables(MAIN3, -3, 3).with_entry(BASE3, Cell(0, (0, 1, 1)), 3)
    reports = gauge_sweep(op, default_cubes(3, 0), 2)
    bad = violations(reports)
    assert bad and len(bad) < len(reports)
    assert bad == [r for r in reports if gauge_residual(op, *map(parse_cell, r.site)) != 0]


def test_cross_scale_entry_changes_no_gauge_report():
    # each finer cell sits at a face's coordinates, so its offset from
    # another face is a same-scale offset of the face's row
    op = explicit_tables(MAIN3, -3, 3)
    fine = [Cell(1, q.coords) for q in boundary(CUBE)]
    a = {**op.a, **dict.fromkeys(fine, 1)}
    plain = ExplicitOp(a, op.b)
    crossed = ExplicitOp(a, {**op.b, **{(p, c): 5 + i for i, c in enumerate(fine)
                                        for p in boundary(CUBE)}})
    cubes = default_cubes(3, 0)
    assert gauge_sweep(crossed, cubes, 2) == gauge_sweep(plain, cubes, 2)
    for p in boundary(CUBE):
        assert gauge_residual(crossed, CUBE, p) == gauge_residual(plain, CUBE, p) == 0
        assert solve_base_coefficient(crossed, CUBE, p) == solve_base_coefficient(plain, CUBE, p)


# -- the index-space identity vs the canonicalized lookup ----------------------


def test_extension_rules_match_canonicalized_lookup():
    # beta(0, 0, 1) moved off -beta(1, 0, 1): the first index reflects only below 0
    for fam in (MAIN3, ALT3, MAIN3.perturbed("beta", (0, 0, 1), 1)):
        for i, j, k in itertools.product(range(-4, 5), repeat=3):
            q_beta = Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * k))
            assert beta_extended(fam, i, j, k) == fam.coeff_b(BASE3, q_beta)
            q_alpha = Cell(0, (1 + 2 * i, 1 + 2 * j, 2 * k))
            assert alpha_extended(fam, i, j, k) == fam.coeff_b(BASE3, q_alpha)


def test_table_residual_agrees_with_raw_residual():
    for fam in (MAIN3, ALT3, MAIN3.with_scale(-1)):
        for i, j, k in itertools.product(range(-3, 4), repeat=3):
            cube = Cell(fam.scale, (1 + 2 * i, 1 + 2 * j, 1 + 2 * k))
            base = Cell(fam.scale, (1, 1, 0))
            raw = gauge_residual(fam, cube, base)
            assert invariance_table_residual(fam, i, j, k) == raw == 0


def test_table_residual_sees_faults():
    fam = MAIN3.perturbed("alpha", (0, 0, 1), 1)
    hits = [
        (i, j, k)
        for i, j, k in itertools.product(range(-2, 3), repeat=3)
        if invariance_table_residual(fam, i, j, k) != 0
    ]
    assert hits
    for i, j, k in hits:
        cube = Cell(0, (1 + 2 * i, 1 + 2 * j, 1 + 2 * k))
        assert gauge_residual(fam, cube, BASE3) == invariance_table_residual(fam, i, j, k)


# -- sphere condition ------------------------------------------------------------


def test_sphere_condition_vanishes():
    op = SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert sphere_condition(op) == [0, 0, 0]


def test_sphere_condition_detects_perturbation():
    areas = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    base = SphereOp(areas)
    b = {(i, j): base.coeff_b(i, j) for i in range(1, 4) for j in range(i, 4)}
    b[(1, 2)] += 1
    broken = ExplicitOp(a={i: areas[i - 1] for i in range(1, 4)}, b=b)
    residuals = sphere_condition(broken)
    assert any(r != 0 for r in residuals)


def test_degenerate_areas_rejected():
    with pytest.raises(ValueError, match="positive"):
        SphereOp([1, 0, 0])


# -- multiscale compatibility ------------------------------------------------------


def test_compat_residuals_vanish():
    assert compat_residual_a(MAIN3, BASE3) == 0
    assert compat_residual_b(MAIN3, BASE3, Cell(0, (0, 1, 1))) == 0
    assert compat_residual_a(ALT3, BASE3) == 0
    assert compat_residual_b(ALT3, BASE3, Cell(0, (1, 1, 2))) == 0


def test_cross_scale_interaction_sums():
    coarse = MAIN3.with_scale(-1)
    p = Cell(-1, (1, 1, 0))
    assert child_interaction_sum(coarse, p, Cell(-1, (2, 1, 1))) == -8
    for k in range(1, 5):
        q = Cell(-1, (2 * k + 2, 1 + 2 * k, 1 + 2 * k))
        assert child_interaction_sum(coarse, p, q) == -4
        q2 = Cell(-1, (2 * k + 2, 3 + 2 * k, 1 + 2 * k))
        assert child_interaction_sum(coarse, p, q2) == -4


def test_child_interaction_sum_on_a_perturbed_family():
    # beta(1,0,0) + 1 breaks compat_b at this pair, so the child sum is not coeff_b
    fam = CubicalFamilyOp.main(3, -1).perturbed("beta", (1, 0, 0), 1)
    p, q = Cell(-1, (1, 1, 0)), Cell(-1, (2, 1, 1))
    fine = fam.with_scale(0)
    direct = sum(fine.coeff_b(pc, qc) for pc in children(p) for qc in children(q))
    assert child_interaction_sum(fam, p, q) == direct == -6
    assert compat_residual_b(fam, p, q) == 2


def test_compat_sweep_clean():
    reports = compat_sweep(MAIN3, base_plaquettes(3, 0), 3)
    assert reports and not violations(reports)
    reports_alt = compat_sweep(ALT3, base_plaquettes(3, 0), 3)
    assert reports_alt and not violations(reports_alt)


def test_compat_detects_broken_scaling():
    fam = MAIN3.perturbed("beta", (1, 0, 0), 1)
    reports = compat_sweep(fam, base_plaquettes(3, 0), 2)
    assert violations(reports)


def _count_calls(monkeypatch, owner, name: str, record=lambda *args: True) -> Counter:
    """Count owner.name's calls, keyed by record(*args), from now on."""
    calls = Counter()
    fn = getattr(owner, name)

    def counted(*args):
        calls[record(*args)] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _child_steps_from_cells(p: Cell, q: Cell) -> Counter:
    """The child-pair offsets of (p, q) less 2(q - p), walked over cells.children."""
    t2 = [2 * (b - a) for a, b in zip(p.coords, q.coords)]
    return Counter(tuple(y - x - s for x, y, s in zip(pc.coords, qc.coords, t2))
                   for pc in children(p) for qc in children(q))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_child_steps_from_planes_match_the_children(d):
    planes = list(_patterns(d, 2))
    # a family's radix, and the smallest site radix, whose digits just hold the steps' +-2
    smallest = site_radix([p.coords for p in base_plaquettes(d, 0)], 1)
    assert smallest == 5
    for radix in (CubicalFamilyOp.main(d).radix, smallest):
        for p_pattern, q_pattern in itertools.product(planes, repeat=2):
            steps = verify._child_steps(p_pattern, q_pattern, radix)
            decoded = Counter({decode_key(k, radix, d): m for k, m in steps})
            assert len(steps) == len(dict(steps)) == len(decoded)
            assert all(offset_key(decode_key(k, radix, d), radix) == k for k, _ in steps)
            assert decoded == _child_steps_from_cells(Cell(0, p_pattern), Cell(0, q_pattern))
            # the steps depend on the planes only, not on where p and q sit
            far = Cell(1, tuple(x + 2 * i - 6 for i, x in enumerate(q_pattern)))
            assert decoded == _child_steps_from_cells(Cell(1, p_pattern), far)


def test_compat_residuals_and_sweeps_share_the_child_steps(monkeypatch):
    calls = _count_calls(monkeypatch, verify, "_child_steps")
    compat_residual_b(MAIN3, BASE3, Cell(0, (0, 1, 1)))
    assert calls == {True: 1}
    calls.clear()
    assert compat_sweep(_fresh(MAIN3, 0), [BASE3], 1)
    assert calls == {True: 3}  # one per plane of q


# -- one numerator per translation class -------------------------------------------


def _patterns(d: int, odd: int):
    """Every coordinate-parity pattern in R^d with `odd` odd coordinates."""
    for axes in itertools.combinations(range(d), odd):
        yield tuple(1 if i in axes else 0 for i in range(d))


@pytest.mark.parametrize("d", [3, 4])
def test_class_offsets_enumerate_exactly_the_nearby_plaquettes(d):
    # Sweeps skip the universe check on a memo hit, so the shifted offset
    # list must give exactly cells_near's plaquettes, no more and no fewer.
    shifts = [(0,) * d, (2, -4) + (6,) * (d - 2), (-2,) * d]
    for odd in (3, 2):
        for pattern in _patterns(d, odd):
            centers = [Cell(0, tuple(a + b for a, b in zip(pattern, t))) for t in shifts]
            for radius in (1, 2, 3):
                offsets = _class_offsets(centers, radius)
                assert list(offsets) == [pattern]
                for c in centers:
                    shifted = [Cell(0, tuple(a + b for a, b in zip(c.coords, t)))
                               for t in offsets[_parity(c)]]
                    assert shifted == list(cells_near(c, radius, dim=2))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_sweep_sites_count_the_offsets_without_enumerating(d):
    for centers in (default_cubes(d, 0), base_plaquettes(d, 0), [CUBE] if d == 3 else []):
        offsets = _class_offsets(centers, 2)
        want = sum(len(offsets[_parity(c)]) for c in centers)
        assert verify.sweep_sites(centers, 2) == want
    assert verify.sweep_sites(default_cubes(4, 0), 6) * 3 <= verify.MAX_SWEEP_SITES


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_box_sweep_sites_count_the_listed_centers(d):
    # default cubes, base plaquettes and two explicit boxes, one with an empty axis
    boxes = [((-1,) * d, (1,) * d, 3), ((0,) * d, (1,) * d, 2),
             ((-2,) + (0,) * (d - 1), (3, 2) + (1,) * (d - 2), 3),
             ((1,) * d, (4, 0) + (5,) * (d - 2), 3)]
    for lo, hi, dim in boxes:
        centers = list(box_cells(0, lo, hi, dim=dim))
        for window in (1, 2, 3):
            assert verify.box_sweep_sites(lo, hi, dim, window) == verify.sweep_sites(centers, window)


@pytest.mark.parametrize("sweep", [gauge_sweep, compat_sweep])
def test_a_sweep_above_the_bound_raises_before_enumerating(monkeypatch, sweep):
    centers = default_cubes(3, 0) if sweep is gauge_sweep else base_plaquettes(3, 0)
    sites = verify.sweep_sites(centers, 2)
    monkeypatch.setattr(verify, "MAX_SWEEP_SITES", sites)
    assert sweep(_fresh(MAIN3, 0), centers, 2)
    monkeypatch.setattr(verify, "MAX_SWEEP_SITES", sites - 1)
    offsets = _count_calls(monkeypatch, verify, "plaquette_offsets")
    with pytest.raises(ValueError, match=f"{sites} sweep sites exceed the maximum {sites - 1}"):
        sweep(_fresh(MAIN3, 0), centers, 2)
    assert not offsets


@pytest.mark.parametrize("fam", [MAIN3, CubicalFamilyOp.main(4), ALT3],
                         ids=["d3", "d4", "alt3"])
@pytest.mark.parametrize("scale", [-1, 0])
def test_the_driver_lists_exactly_the_sites_the_bound_counts(fam, scale):
    # the closed form behind MAX_SWEEP_SITES is the sweep's own count, duplicate centers included
    sweeps = [(gauge_sweep, default_cubes(fam.d, scale), "gauge"),
              (compat_sweep, base_plaquettes(fam.d, scale), "compat_b")]
    for sweep, centers, name in sweeps:
        for listed in (centers, centers + centers[1:2]):
            counts = Counter(r.condition for r in sweep(_fresh(fam, scale), listed, 2))
            assert counts.pop(name) == verify.sweep_sites(listed, 2)
            assert counts == ({"compat_a": len(listed)} if sweep is compat_sweep else {})


def _identities(fam, kind: str) -> int:
    return sum(len(row) for key, row in fam._memo.items() if key[0] == kind)


@pytest.mark.parametrize("d, window, sites, identities", [(4, 1, 2880, 120), (3, 6, 21168, 882)])
def test_gauge_sweep_computes_each_identity_once(monkeypatch, d, window, sites, identities):
    # every identity at the first scale; the later scales read the family's class rows
    calls = _count_calls(monkeypatch, verify, "gauge_numerator")
    fam = CubicalFamilyOp.main(d)
    checked = 0
    for s in (-1, 0, 1):
        checked += len(gauge_sweep(fam.with_scale(s), default_cubes(d, s), window))
        assert sum(calls.values()) == identities
    assert checked == sites
    assert _identities(fam, "gauge") == identities


SWEPT_FAMILIES = [CubicalFamilyOp.main(4), ALT3, MAIN3.perturbed("beta", (1, 0, 0), 1)]


def _fresh(fam, scale: int) -> CubicalFamilyOp:
    """The same family at scale, with an empty memo."""
    return CubicalFamilyOp(fam.d, scale, fam.variant, fam.table_overrides)


@pytest.mark.parametrize("fam", SWEPT_FAMILIES, ids=["d4", "alt3", "perturbed"])
def test_cold_and_warm_sweeps_agree(fam):
    # one family warmed across both scales against a fresh family per center
    warm = _fresh(fam, 0)
    for scale in (-1, 0):
        cubes, plaquettes = default_cubes(fam.d, scale), base_plaquettes(fam.d, scale)
        cold_gauge = [r for c in cubes for r in gauge_sweep(_fresh(fam, scale), [c], 2)]
        cold_compat = [r for p in plaquettes for r in compat_sweep(_fresh(fam, scale), [p], 2)]
        assert sorted(gauge_sweep(warm.with_scale(scale), cubes, 2)) == sorted(cold_gauge)
        assert sorted(compat_sweep(warm.with_scale(scale), plaquettes, 2)) == sorted(cold_compat)
    assert _identities(warm, "gauge") and _identities(warm, "compat")


def test_a_warm_clean_family_does_not_hide_a_fault():
    fam = CubicalFamilyOp.main(3)
    cubes, plaquettes = default_cubes(3, 0), base_plaquettes(3, 0)
    assert not violations(gauge_sweep(fam, cubes, 2))
    assert not violations(compat_sweep(fam, plaquettes, 2))
    broken = fam.perturbed("beta", (1, 0, 0), 1)
    assert broken._memo == {}
    assert operator_from_json(broken.to_json())._memo == {}
    assert violations(gauge_sweep(broken, cubes, 2))
    assert violations(compat_sweep(broken, plaquettes, 2))
    assert not violations(gauge_sweep(fam, cubes, 2))


@pytest.mark.parametrize("fam", [CubicalFamilyOp.main(3), CubicalFamilyOp.main(4),
                                 CubicalFamilyOp.alt()], ids=["main3", "main4", "alt3"])
def test_swept_sites_are_in_the_universe(fam):
    # sweeps build a site's label from its offset and check no site against the universe
    fine = fam.with_scale(fam.scale + 1)
    gauge = gauge_sweep(fam, default_cubes(fam.d, fam.scale), 2)
    compat = compat_sweep(fam, base_plaquettes(fam.d, fam.scale), 2)
    assert gauge and compat
    for r in gauge + compat:
        cells = [parse_cell(label) for label in r.site]
        assert list(r.site) == [format_cell(c) for c in cells]
        assert fam.has_var(cells[-1])
        if r.condition == "compat_b":
            assert all(fine.has_var(c) for c in children(cells[-1]))


def test_identity_rows_stay_out_of_equality():
    fam = CubicalFamilyOp.main(3)
    gauge_sweep(fam, default_cubes(3, 0), 1)
    compat_sweep(fam, base_plaquettes(3, 0), 1)
    assert _identities(fam, "gauge") and _identities(fam, "compat")
    fresh = CubicalFamilyOp.main(3)
    assert fresh._memo == {}
    assert fresh == fam


def test_explicit_op_sites_never_share_a_row():
    # Both cubes are in one translation class, and the universe holds a
    # different part of each cube's window; each site is checked on its own.
    universe = list(box_cells(0, (0, 0, 0), (4, 4, 4), dim=2))
    op = ExplicitOp({p: 12 for p in universe}, {})
    cubes = [CUBE, Cell(0, (3, 3, 3))]
    sites = {r.site for r in gauge_sweep(op, cubes, 2)}
    assert len(sites) < 2 * len(list(cells_near(CUBE, 2, dim=2)))
    assert sites == {(str(c), str(p)) for c in cubes for p in cells_near(c, 2, dim=2)
                     if p in op.a}
    assert not hasattr(op, "_memo")


def test_family_gauge_sweep_reports_only_its_own_scale():
    # a family's translation classes are per scale: cubes at another scale
    # share every parity pattern with the family's cubes but lie outside it
    inside, outside = default_cubes(3, 0), default_cubes(3, 1)
    want = gauge_sweep(_fresh(MAIN3, 0), inside, 2)
    assert want
    for cubes in (outside + inside, inside + outside):
        assert gauge_sweep(_fresh(MAIN3, 0), cubes, 2) == want
    assert gauge_sweep(_fresh(MAIN3, 0), outside, 2) == []


def test_explicit_cubes_of_one_pattern_are_separate_classes():
    # both cubes have parity pattern (1,1,1); only [1,1,1] has every face in
    # the box, since [5,1,1] has the face [6,1,1]
    op = explicit_tables(MAIN3, 0, 4).with_entry(BASE3, Cell(0, (0, 1, 1)), 3)
    inside, outside = CUBE, Cell(0, (5, 1, 1))
    assert _parity(inside) == _parity(outside)
    assert all(op.has_var(q) for q in boundary(inside))
    assert not all(op.has_var(q) for q in boundary(outside))
    for cubes in ([inside, outside], [outside, inside]):
        reports = gauge_sweep(op, cubes, 2)
        assert {r.site[0] for r in reports} == {str(inside)}
        assert {r.site[1] for r in reports} == {str(p) for p in cells_near(inside, 2, dim=2)
                                                if op.has_var(p)}
        assert violations(reports)
        for r in reports:
            assert r.value == gauge_residual(op, *map(parse_cell, r.site))


def test_a_fault_sweep_computes_each_class_offset_once(monkeypatch):
    # the benchmark's fault sweep: 8 cubes of one class at window 5, 3,600 sites
    calls = _count_calls(monkeypatch, verify, "gauge_numerator")
    reports = gauge_sweep(MAIN3.perturbed("beta", (1, 0, 0), 1), default_cubes(3, 0), 5)
    assert len(reports) == 3600 and violations(reports)
    assert sum(calls.values()) == 450


@pytest.mark.parametrize("fam", SWEPT_FAMILIES, ids=["d4", "alt3", "perturbed"])
def test_a_family_sweep_fetches_one_partner_row_per_pattern(monkeypatch, fam):
    # cold, each pattern's row is fetched once; warm, the class rows need none
    rows = _count_calls(monkeypatch, CubicalFamilyOp, "b_row", lambda op, p, reach: _parity(p))
    cold = _fresh(fam, 0)
    for scale, fetches in ((-1, {p: 1 for p in _patterns(fam.d, 2)}), (0, {})):
        cubes = default_cubes(fam.d, scale) + [Cell(scale, (3,) * 3 + (0,) * (fam.d - 3))]
        rows.clear()
        assert gauge_sweep(cold.with_scale(scale), cubes, 2)
        assert rows == fetches


def _single_site_value(fam, report: ResidualReport) -> Fraction:
    cells = [parse_cell(label) for label in report.site]
    if report.condition == "gauge":
        return gauge_residual(fam, *cells)
    if report.condition == "compat_a":
        return compat_residual_a(fam, *cells)
    return compat_residual_b(fam, *cells)


@pytest.mark.parametrize("sweep, kind, index", [
    ("gauge", "beta", (1, 0, 0)), ("gauge", "a0", None), ("compat", "beta", (1, 0, 0))])
def test_family_sweeps_pass_on_the_shared_zero(sweep, kind, index):
    # the beta(1,0,0) shift breaks both conditions; an a0 shift is a compat blind spot
    fam = MAIN3.perturbed(kind, index, 1)
    if sweep == "gauge":
        reports = gauge_sweep(fam, default_cubes(3, 0), 2)
    else:
        reports = compat_sweep(fam, base_plaquettes(3, 0), 2)
    bad = violations(reports)
    assert bad and len(bad) < len(reports)
    for r in reports:
        assert r.passed == (r.value == 0)
        if r.passed:
            assert r.value is verify._ZERO
        assert _single_site_value(fam, r) == r.value
    assert bad == [r for r in reports if _single_site_value(fam, r) != 0]


def test_passed_reads_a_zero_that_is_not_the_shared_one():
    for value in (Fraction(0), Fraction(0, 7), 0):
        assert value is not verify._ZERO
        assert ResidualReport("gauge", ("a",), value).passed
    assert not ResidualReport("gauge", ("a",), Fraction(1, 4)).passed


def test_labels_never_cross_a_scale_or_a_sweep():
    fam = CubicalFamilyOp.main(4)
    for scale in (-1, 0, 1):
        scoped = fam.with_scale(scale)
        reports = (gauge_sweep(scoped, default_cubes(4, scale), 1)
                   + compat_sweep(scoped, base_plaquettes(4, scale), 1))
        for r in reports:
            for label in r.site:
                assert label == format_cell(Cell(scale, parse_cell(label).coords))
    # one sweep over centers at two scales of one universe
    universe = [p for s in (0, 1) for p in box_cells(s, (0, 0, 0), (2, 2, 2), dim=2)]
    op = ExplicitOp({p: 12 for p in universe}, {})
    reports = gauge_sweep(op, [Cell(0, CUBE.coords), Cell(1, CUBE.coords)], 1)
    assert {parse_cell(r.site[0]).scale for r in reports} == {0, 1}
    for r in reports:
        head, label = map(parse_cell, r.site)
        assert r.site[1] == format_cell(Cell(head.scale, label.coords))


# -- sweep order and site keys ------------------------------------------------------


def _gauge_oracle(op, cubes, radius: int) -> list[ResidualReport]:
    """Every gauge site's report built on its own, then sorted."""
    return sorted(ResidualReport("gauge", (format_cell(c), format_cell(p)),
                                 gauge_residual(op, c, p))
                  for c in cubes if all(map(op.has_var, boundary(c)))
                  for p in cells_near(c, radius, dim=2) if op.has_var(p))


def _compat_oracle(fam, plaquettes, radius: int) -> list[ResidualReport]:
    """Every compatibility site's report built on its own, then sorted."""
    return sorted([ResidualReport("compat_a", (format_cell(p),), compat_residual_a(fam, p))
                   for p in plaquettes]
                  + [ResidualReport("compat_b", (format_cell(p), format_cell(q)),
                                    compat_residual_b(fam, p, q))
                     for p in plaquettes for q in cells_near(p, radius, dim=2)])


def _orders(centers: list) -> list[list]:
    """centers as given, reversed, and shuffled with one of them twice."""
    shuffled = centers + centers[:1]
    random.Random(7).shuffle(shuffled)
    return [centers, centers[::-1], shuffled]


def _assert_orders_match(sweep: Callable, oracle: Callable, centers: list, want: list) -> None:
    """sweep's reports sort to the oracle's over every one of _orders(centers), and come out
    as one list over every order of the distinct centers."""
    emitted = []
    for order in _orders(centers):
        reports = sweep(order)
        if len(order) == len(centers):
            assert sorted(reports) == want
            emitted.append(reports)
        else:
            assert sorted(reports) == oracle(order)
    assert len(emitted) == 2 and emitted[0] == emitted[1]


# coordinates pass -10 and 10, where string order is not numeric order ("[-1," < "[-10," < "[-2,")
WIDE_CUBES = [Cell(0, (9, -11, 1)), Cell(0, (-9, 9, -1)), Cell(0, (1, 1, 9)), CUBE]
WIDE_PLAQUETTES = [Cell(0, (9, -11, 0)), Cell(0, (-10, 9, -1)), Cell(0, (11, 0, -9)), BASE3]
FAULTY3 = MAIN3.perturbed("beta", (1, 0, 0), 1)


@pytest.mark.parametrize("cubes, radius", [(default_cubes(3, 0), 2), (WIDE_CUBES, 3)],
                         ids=["default", "wide"])
def test_gauge_sweep_matches_the_sorted_oracle_in_any_center_order(cubes, radius):
    want = _gauge_oracle(FAULTY3, cubes, radius)
    assert violations(want)
    _assert_orders_match(lambda order: gauge_sweep(_fresh(FAULTY3, 0), order, radius),
                         lambda order: _gauge_oracle(FAULTY3, order, radius), cubes, want)


@pytest.mark.parametrize("plaquettes, radius", [(base_plaquettes(3, 0), 2), (WIDE_PLAQUETTES, 2)],
                         ids=["default", "wide"])
def test_compat_sweep_matches_the_sorted_oracle_in_any_center_order(plaquettes, radius):
    fam = MAIN3.perturbed("beta", (2, 1, 0), 1)
    want = _compat_oracle(fam, plaquettes, radius)
    assert violations(want)
    _assert_orders_match(lambda order: compat_sweep(_fresh(fam, 0), order, radius),
                         lambda order: _compat_oracle(fam, order, radius), plaquettes, want)


def test_an_explicit_sweep_over_two_scales_matches_the_sorted_oracle():
    tables = [explicit_tables(FAULTY3.with_scale(s), -3, 3) for s in (0, 1)]
    op = ExplicitOp({**tables[0].a, **tables[1].a}, {**tables[0].b, **tables[1].b})
    cubes = default_cubes(3, 1) + default_cubes(3, 0)
    want = _gauge_oracle(op, cubes, 2)
    assert {parse_cell(r.site[0]).scale for r in want} == {0, 1} and violations(want)
    _assert_orders_match(lambda order: gauge_sweep(op, order, 2),
                         lambda order: _gauge_oracle(op, order, 2), cubes, want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_site_keys_add_and_separate_the_sweep_box(data):
    d = data.draw(st.integers(1, 15), label="d")
    radius = data.draw(st.integers(0, 6), label="radius")
    point = st.lists(st.integers(-12, 12), min_size=d, max_size=d).map(tuple)
    centers = data.draw(st.lists(point, min_size=1, max_size=4), label="centers")
    radix = site_radix(centers, radius)
    bound = radix // 2  # R: every site coordinate of the sweep lies in [-R, R]
    offset = st.lists(st.integers(-radius, radius), min_size=d, max_size=d).map(tuple)
    in_box = st.lists(st.integers(-bound, bound), min_size=d, max_size=d).map(tuple)
    key = lambda coords: offset_key(coords, radix)
    u, t = data.draw(st.sampled_from(centers), label="u"), data.draw(offset, label="t")
    assert key(u) + key(t) == key(tuple(map(sum, zip(u, t))))
    v, w = data.draw(in_box, label="v"), data.draw(in_box, label="w")
    assert (key(v) == key(w)) == (v == w)
    labels = verify._Labels(2, d, radix)
    assert labels[key(v)] == format_cell(Cell(2, v))
    # v's first half with w's last, and the box's alternating corner, whose coordinates
    # pass +-10 on both sides of the split once the box does
    h = (d + 1) // 2
    for u in (v[:d - h] + w[d - h:], tuple(bound * (-1) ** i for i in range(d))):
        assert labels[key(u)] == format_cell(Cell(2, u))


def test_labels_decode_each_key_half_once(monkeypatch):
    # a warm d=4 sweep: the rows are memoized, so decode_key serves only the labels
    fam = _fresh(CubicalFamilyOp.main(4), 0)
    cubes = default_cubes(4, 0)
    gauge_sweep(fam, cubes, 2)
    calls = _count_calls(monkeypatch, verify, "decode_key", lambda key, radix, n: (key, radix, n))
    reports = gauge_sweep(fam, cubes, 2)
    radix = site_radix([c.coords for c in cubes], 2)
    sites = {parse_cell(site[1]).coords for _, site, _ in reports}
    # the first and the last two coordinates: a key heads some labels and ends others
    heads = {(offset_key(u[:2], radix), radix, 2) for u in sites}
    tails = {(offset_key(u[2:], radix), radix, 2) for u in sites}
    assert calls == Counter([*heads, *tails])
    assert sum(calls.values()) == 2 * radix**2 < len(sites)  # 98 decodes for 864 labels


# -- quotient well-definedness ------------------------------------------------------


def test_welldefined_for_sphere():
    op = SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    ideal = LinearIdeal([Polynomial.linear({1: 1, 2: 1, 3: 1})])
    reports = welldefined_property(op, ideal, trials=25, seed=1)
    assert reports and not violations(reports)


def test_welldefined_for_lattice_families():
    ideal = ideal_from_cubes([CUBE, Cell(0, (3, 1, 1))])
    for fam in (MAIN3, ALT3):
        reports = welldefined_property(fam, ideal, trials=25, seed=2)
        assert reports and not violations(reports)


def test_welldefined_checks_nothing_for_an_ideal_with_no_generators():
    assert welldefined_property(MAIN3, LinearIdeal([]), trials=5, seed=0) == []


def test_welldefined_detects_d4_descent_failure():
    # The probe-first gauge residuals all vanish in d=4, but the operator
    # itself symmetrizes its cross coefficients, and the symmetrized descent
    # condition fails; this witness pins the nearest failing site.
    fam4 = CubicalFamilyOp.main(4)
    cube = Cell(0, (1, 1, 1, 0))
    ideal = ideal_from_cubes([cube])
    witness = Polynomial.var(Cell(0, (-1, -1, 0, -2)))
    (generator,) = ideal.generators
    normal = ideal.reduce(apply_operator(fam4, generator * witness))
    assert normal == Polynomial.const(-2)


def test_welldefined_reports_faults():
    areas = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    base = SphereOp(areas)
    b = {(i, j): base.coeff_b(i, j) for i in range(1, 4) for j in range(i, 4)}
    b[(1, 2)] += 1
    broken = ExplicitOp(a={i: areas[i - 1] for i in range(1, 4)}, b=b)
    ideal = LinearIdeal([Polynomial.linear({1: 1, 2: 1, 3: 1})])
    reports = welldefined_property(broken, ideal, trials=25, seed=3)
    assert violations(reports)
    assert all(not r.passed or r.value == 0 for r in reports)


def _record_draws(monkeypatch) -> list:
    """The random polynomials welldefined_property draws from now on, in order, over the
    variables of its pool."""
    draws = []
    draw = verify._random_polynomial
    monkeypatch.setattr(verify, "_random_polynomial",
                        lambda rng, pool: draws.append(draw(rng, pool)) or draws[-1])
    return draws


@pytest.mark.parametrize("op", [MAIN3, ALT3, FAULTY3], ids=repr)
def test_constant_draws_check_nothing(monkeypatch, op):
    # criterion 7's run: a constant g gives L(f_c g) = g L(f_c) = 0 whatever the tables, so
    # 11 of its 100 trials, 88 of its 800 sites, pass even on FAULTY3, which fails elsewhere
    draws = _record_draws(monkeypatch)
    reports = welldefined_property(op, ideal_from_cubes(default_cubes(3, 0)), trials=100, seed=41)
    idle = {f"trial{t}" for t, g in enumerate(draws) if not g.variables()}
    assert len(idle) == 11 and all(draws[int(t[5:])].terms for t in idle)  # none is zero
    idle_reports = [r for r in reports if r.site[1] in idle]
    assert len(reports) == 800 and len(idle_reports) == 88
    assert all(r.passed for r in idle_reports)
    assert bool(violations(reports)) == (op is FAULTY3)


def polynomial_draw(rng, pool) -> Polynomial:
    """The random polynomial as a sum of Polynomial products, in the rng calls'
    order: the oracle for _random_polynomial's term map."""
    f = Polynomial()
    for _ in range(rng.randint(1, WELLDEFINED_MAX_TERMS)):
        term = Polynomial.const(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        for _ in range(rng.randint(0, WELLDEFINED_MAX_DEGREE)):
            term = term * Polynomial.var(rng.choice(pool))
        f = f + term
    return f


# a one- or two-variable pool repeats monomials, so terms cancel and come back
DRAW_POOLS = {
    "window1-cells": _probe_pool(MAIN3, ideal_from_cubes(default_cubes(3, 0))),
    "two-cells": [Cell(0, (1, 1, 0)), Cell(-1, (0, 1, 1))],
    "ints": [1, 2, 3, 4, 5],
    "one-int": [7],
}


@pytest.mark.parametrize("pool", sorted(DRAW_POOLS))
def test_drawn_term_maps_match_the_polynomial_draw(pool):
    pool, cancelled = DRAW_POOLS[pool], 0
    for seed in range(300):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(4):
            g, expected = _random_polynomial(rng, pool), polynomial_draw(oracle, pool)
            assert list(g.terms.items()) == list(expected.terms.items())
            cancelled += not g.terms
        assert rng.getstate() == oracle.getstate()
    if len(pool) == 1:
        assert cancelled  # a draw whose every term cancelled


def _fraction_route(op, ideal, draws) -> list:
    """welldefined_property's reports for the given draws, as
    ideal.reduce(apply_operator(op, f_c * g)) over Fractions."""
    reports = []
    for t, g in enumerate(draws):
        for idx, f_c in enumerate(ideal.generators):
            normal = ideal.reduce(apply_operator(op, f_c * g)).terms
            value = normal[min(normal, key=_mono_sort_key)] if normal else Fraction(0)
            reports.append(ResidualReport("welldefined", (f"gen{idx}", f"trial{t}"), value))
    return reports


# rows over den = 6 (x2 = x1/2, x4 = x1/6 + x3/3); a generator with a fractional coefficient
DEN6_IDEAL = LinearIdeal(Polynomial.linear(form) for form in (
    {1: Fraction(1, 2), 2: -1}, {2: 1, 3: 1, 4: -3}))
SPHERE4 = SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
WINDOW1_D3 = ideal_from_cubes(box_cells(0, (-1,) * 3, (1,) * 3, dim=3))
WELLDEFINED_CASES = {
    "main3": (MAIN3, WINDOW1_D3, 3, 0),
    "alt3": (ALT3, WINDOW1_D3, 3, 1),
    "main4": (CubicalFamilyOp.main(4), ideal_from_cubes(box_cells(0, (-1,) * 4, (1,) * 4, dim=3)),
              2, 0),
    "perturbed": (operator_from_json({"variant": "cubical",
                                      "overrides": [[[0, 0, 1], "alpha", 1]]}), WINDOW1_D3, 2, 4),
    "sphere": (SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
               LinearIdeal([Polynomial.linear({1: 1, 2: 1, 3: 1})]), 25, 1),
    "sphere-sum": (SPHERE4, LinearIdeal([Polynomial.linear({i: 1 for i in range(1, 5)})]), 25, 2),
    "den6": (SPHERE4, DEN6_IDEAL, 25, 3),
}
WELLDEFINED_FAILURES = {"main4": 35, "perturbed": None, "den6": None}


@pytest.mark.parametrize("case", sorted(WELLDEFINED_CASES))
def test_integer_probes_match_the_fraction_route(monkeypatch, case):
    op, ideal, trials, seed = WELLDEFINED_CASES[case]
    draws = _record_draws(monkeypatch)
    reports = welldefined_property(op, ideal, trials=trials, seed=seed)
    assert len(draws) == trials
    # the rng draws over the pool of variables, in its str order
    rng, pool = random.Random(seed), _probe_pool(op, ideal)
    assert draws == [polynomial_draw(rng, pool) for _ in range(trials)]
    assert reports == _fraction_route(op, ideal, draws)
    assert all(type(r.value) is Fraction for r in reports)
    failures = len(violations(reports))
    if case not in WELLDEFINED_FAILURES:
        assert failures == 0
    elif WELLDEFINED_FAILURES[case] is None:
        assert failures
    else:
        assert failures == WELLDEFINED_FAILURES[case]


@pytest.mark.parametrize("op, ideal", [
    (SphereOp([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]), DEN6_IDEAL),
    (MAIN3, ideal_from_cubes([CUBE, Cell(1, (1, 1, 1))])),
], ids=["sphere-index", "family-scale"])
def test_out_of_universe_generator_raises_as_the_fraction_route(monkeypatch, op, ideal):
    draws = _record_draws(monkeypatch)
    with pytest.raises(ValueError) as integer_route:
        welldefined_property(op, ideal, trials=1, seed=0)
    with pytest.raises(ValueError) as fraction_route:
        _fraction_route(op, ideal, draws)
    assert str(integer_route.value) == str(fraction_route.value)


@pytest.mark.parametrize("case", ["main3", "alt3", "perturbed"])
def test_each_variable_is_checked_once_per_run(monkeypatch, case):
    op, ideal, _, seed = WELLDEFINED_CASES[case]
    draws = _record_draws(monkeypatch)
    checked = Counter()
    check_var = CubicalFamilyOp.check_var
    monkeypatch.setattr(CubicalFamilyOp, "check_var",
                        lambda self, p: checked.update([p]) or check_var(self, p))
    welldefined_property(op, ideal, trials=12, seed=seed)
    seen = {v for g in draws if g.terms
            for f_c in ideal.generators if f_c.terms
            for v in f_c.variables() | g.variables()}
    assert len(seen) > len(ideal.generators)
    assert checked == Counter(seen)


class _Stop(Exception):
    pass


def _record_index_pairs(monkeypatch, stop: bool = False) -> list:
    """The (variables, reach) of each _index_pairs call welldefined_property makes from now
    on; with stop, the call raises _Stop instead, before any probe."""
    calls = []
    index_pairs = verify._index_pairs

    def record(op, variables, reach=None):
        calls.append((list(variables), reach))
        if stop:
            raise _Stop
        return index_pairs(op, variables, reach)

    monkeypatch.setattr(verify, "_index_pairs", record)
    return calls


@pytest.mark.parametrize("case", ["main3", "alt3", "perturbed", "main4", "sphere"])
def test_a_run_numbers_only_the_drawn_and_the_generator_variables(monkeypatch, case):
    op, ideal, trials, seed = WELLDEFINED_CASES[case]
    draws = _record_draws(monkeypatch)
    calls = _record_index_pairs(monkeypatch)
    welldefined_property(op, ideal, trials=trials, seed=seed)
    ((variables, reach),) = calls
    read = set().union(*(g.variables() for g in draws), *(f.variables() for f in ideal.generators))
    assert variables == sorted(read, key=_var_key)
    pool = _probe_pool(op, ideal)
    if isinstance(op, CubicalFamilyOp):
        # a strict part of the pool, with rows sized as for the whole pool
        assert len(variables) < len(pool)
        assert reach == _spread(filter(op.has_var, pool))
    else:
        assert variables == pool and reach is None


REACH_CASES = {
    **{f"main{d}-window{w}": (CubicalFamilyOp.main(d), w) for d in (3, 4, 5) for w in (1, 2, 3)},
    "perturbed-window2": (WELLDEFINED_CASES["perturbed"][0], 2),
    "family-scale": (MAIN3, None),
}


@pytest.mark.parametrize("case", sorted(REACH_CASES))
def test_the_closed_form_reach_is_the_spread_of_the_pool(monkeypatch, case):
    op, w = REACH_CASES[case]
    if w is None:  # generators at the family's scale and, out of its universe, the next
        ideal = ideal_from_cubes([CUBE, Cell(1, (1, 1, 1))])
    else:
        ideal = ideal_from_cubes(box_cells(0, (-w,) * op.d, (w,) * op.d, dim=3))
    calls = _record_index_pairs(monkeypatch, stop=True)
    with pytest.raises(_Stop):
        welldefined_property(op, ideal, trials=1, seed=0)
    ((_, reach),) = calls
    assert reach == _spread(filter(op.has_var, _probe_pool(op, ideal)))


@pytest.mark.parametrize("d", [3, 4])
def test_probe_pool_is_the_pairwise_pool(d):
    # the pool as one (plaquette, offset) tuple per pair, deduplicated afterwards
    family = CubicalFamilyOp.main(d)
    ideal = ideal_from_cubes(box_cells(0, (-1,) * d, (1,) * d, dim=3))
    generator_vars = {v for g in ideal.generators for v in g.variables()}
    cells = [v for v in generator_vars if isinstance(v, Cell)]
    offsets = _class_offsets(cells, WELLDEFINED_POOL_RADIUS)
    sites = {(v.scale, tuple(a + b for a, b in zip(v.coords, t)))
             for v in cells for t in offsets[_parity(v)]}
    pool_set = generator_vars | {Cell(scale, coords) for scale, coords in sites}
    want = sorted((v for v in pool_set if family.has_var(v)), key=lambda v: str(v))
    assert _probe_pool(family, ideal) == want
    assert len(want) == {3: 240, 4: 2016}[d]
