"""Acceptance criteria: every check is exact (tolerance zero).

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output).  Windows follow the sweep concretization documented in the README:
representative 3-cells around the origin crossed with all plaquettes within
max-norm distance 6, at scales -1, 0, 1.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from holoflow.cells import Cell, SignedSymmetry, act, box_cells
from holoflow.operators import CubicalFamilyOp, SphereOp, apply_operator
from holoflow.poly import LinearIdeal, Polynomial, ideal_from_cubes
from holoflow.states import (
    LambdaPoly,
    covariance_window,
    exp_state,
    psd_probe,
    verify_sphere,
    ym_moment,
)
from holoflow.verify import (
    base_plaquettes,
    child_interaction_sum,
    compat_sweep,
    default_cubes,
    gauge_sweep,
    solve_base_coefficient,
    violations,
    welldefined_property,
)

x = Polynomial.var

MAIN3 = CubicalFamilyOp.main(3)
MAIN4 = CubicalFamilyOp.main(4)
ALT3 = CubicalFamilyOp.alt()
BASE3 = Cell(0, (1, 1, 0))
BASE4 = Cell(0, (1, 1, 0, 0))

WINDOW = 6
SCALES = (-1, 0, 1)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def cubes_d4(scale):
    return sorted(box_cells(scale, (0,) * 4, (1,) * 4, dim=3))


def rand_areas(n, rng):
    weights = [rng.randint(1, 20) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def test_criterion_1_base_coefficient_derivation():
    with criterion(1, "base coefficient forced to 12"):
        cube = Cell(0, (1, 1, 1))
        assert solve_base_coefficient(MAIN3, cube, BASE3) == Fraction(12)
        assert solve_base_coefficient(ALT3, cube, BASE3) == Fraction(1)


def test_criterion_2_gauge_invariance_windows():
    with criterion(2, "gauge invariance on windows"):
        sites = 0
        for scale in SCALES:
            for family in (MAIN3.with_scale(scale), ALT3.with_scale(scale)):
                reports = gauge_sweep(family, default_cubes(3, scale), WINDOW)
                assert not violations(reports)
                sites += len(reports)
            reports4 = gauge_sweep(MAIN4.with_scale(scale), cubes_d4(scale), WINDOW)
            assert not violations(reports4)
            sites += len(reports4)
        assert sites >= 10_000
        print(f"  gauge sites checked: {sites}")


def test_criterion_3_multiscale_compatibility():
    with criterion(3, "multiscale compatibility"):
        sites = 0
        for scale in (-1, 0):
            for family in (MAIN3.with_scale(scale), ALT3.with_scale(scale)):
                reports = compat_sweep(family, base_plaquettes(3, scale), WINDOW)
                assert not violations(reports)
                sites += len(reports)
            reports4 = compat_sweep(MAIN4.with_scale(scale), base_plaquettes(4, scale), WINDOW)
            assert not violations(reports4)
            sites += len(reports4)
        print(f"  compatibility sites checked: {sites}")

        # the child-pair sums behind the coarse-scale table values
        coarse = MAIN3.with_scale(-1)
        p = Cell(-1, (1, 1, 0))
        assert child_interaction_sum(coarse, p, Cell(-1, (2, 1, 1))) == -8
        for k in range(1, 5):
            q_lower = Cell(-1, (2 * k + 2, 2 * k + 1, 2 * k + 1))
            q_upper = Cell(-1, (2 * k + 2, 2 * k + 3, 2 * k + 1))
            assert child_interaction_sum(coarse, p, q_lower) == -4
            assert child_interaction_sum(coarse, p, q_upper) == -4
        # scale -1 parallel-plane coefficients are 4x their scale-0 values
        for i, j, k in itertools.product(range(-2, 3), repeat=3):
            q = (1 + 2 * i, 1 + 2 * j, 2 * k)
            total = child_interaction_sum(coarse, p, Cell(-1, q))
            assert total == 4 * MAIN3.coeff_b(BASE3, Cell(0, q))


def test_criterion_4_dimension_reduction():
    with criterion(4, "d=4 reduction to d=3 tables"):
        for i, j in itertools.product(range(-2, 4), repeat=2):
            for k, l in itertools.product(range(4), repeat=2):
                q4 = Cell(0, (1 + 2 * i, 1 + 2 * j, 2 * k, 2 * l))
                q3 = Cell(0, (1 + 2 * i, 1 + 2 * j, 2 * (k + l)))
                assert MAIN4.coeff_b(BASE4, q4) == MAIN3.coeff_b(BASE3, q3)
                q4b = Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * k, 2 * l))
                q3b = Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * (k + l)))
                assert MAIN4.coeff_b(BASE4, q4b) == MAIN3.coeff_b(BASE3, q3b)
        # disjoint planes never interact
        for q in box_cells(0, (-3, -3, -3, -3), (4, 4, 4, 4), dim=2):
            qa, qb = q.plane
            if qa >= 2 and qb >= 2:
                assert MAIN4.coeff_b(BASE4, q) == 0


def test_criterion_5_sphere_identity():
    with criterion(5, "sphere state equals Gaussian moments"):
        rng = random.Random(2026)
        checked = 0
        for n in (3, 4, 5):
            for _ in range(20):
                report = verify_sphere(rand_areas(n, rng), 6)
                assert report.all_equal
                checked += len(report.items)
        print(f"  monomials compared: {checked}")

        # the displayed first-order coefficients
        areas = rand_areas(4, rng)
        op = SphereOp(areas).to_euclidean()
        a = dict(enumerate(areas, start=1))
        for i in (1, 2, 3):
            assert exp_state(op, x(i, 2)) == LambdaPoly({1: 2 * a[i] * (1 - a[i])})
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert exp_state(op, x(i) * x(j)) == LambdaPoly({1: -2 * a[i] * a[j]})
            assert ym_moment(areas, x(i) * x(j)) == LambdaPoly({1: -2 * a[i] * a[j]})


def test_criterion_6_coordinate_change_consistency():
    with criterion(6, "euclidean/algebraic coordinate change"):
        rng = random.Random(99)
        for trial in range(100):
            n = rng.choice((2, 3, 4, 5))
            areas = rand_areas(n, rng)
            op = SphereOp(areas)
            euclid = op.to_euclidean()
            ideal = LinearIdeal([Polynomial.linear({i: 1 for i in range(1, n + 1)})])
            f = Polynomial()
            for _ in range(rng.randint(1, 4)):
                term = Polynomial.const(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
                for _ in range(rng.randint(0, 5)):
                    term = term * x(rng.randint(1, n))
                f = f + term
            assert apply_operator(euclid, ideal.reduce(f)) == ideal.reduce(apply_operator(op, f))
            if n not in f.variables():
                assert apply_operator(euclid, f) == ideal.reduce(apply_operator(op, f))


def test_criterion_7_quotient_welldefinedness():
    with criterion(7, "quotient well-definedness"):
        lattice_ideal = ideal_from_cubes(default_cubes(3, 0))
        for family in (MAIN3, ALT3):
            reports = welldefined_property(family, lattice_ideal, trials=100, seed=41)
            assert reports and not violations(reports)
        for areas in ([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                      [Fraction(1, 5), Fraction(1, 5), Fraction(2, 5), Fraction(1, 5)]):
            op = SphereOp(areas)
            ideal = LinearIdeal([Polynomial.linear({i: 1 for i in range(1, op.n + 1)})])
            reports = welldefined_property(op, ideal, trials=100, seed=42)
            assert reports and not violations(reports)


def test_criterion_8_symmetry_self_consistency():
    with criterion(8, "symmetry self-consistency"):
        # exhaustive symmetry of b on d=3 windows, both families.  (The d>=4
        # transverse-sum rule is orientation-sensitive by construction; the
        # counterexample is pinned in test_operators and the notes.)
        for fam in (MAIN3, ALT3, MAIN3.with_scale(-1)):
            for p in base_plaquettes(3, fam.scale):
                lo = tuple(c - 4 for c in p.coords)
                hi = tuple(c + 4 for c in p.coords)
                for q in box_cells(fam.scale, lo, hi, dim=2):
                    assert fam.coeff_b(p, q) == fam.coeff_b(q, p)

        # group equivariance with orientation signs (holds in every d)
        rng = random.Random(7)
        for d in (3, 4):
            fam = CubicalFamilyOp.main(d)
            for _ in range(60):
                perm = list(range(d))
                rng.shuffle(perm)
                g = SignedSymmetry(
                    perm,
                    [rng.choice((1, -1)) for _ in range(d)],
                    [2 * rng.randint(-3, 3) for _ in range(d)],
                )
                axes = rng.sample(range(d), 2)
                coords = [2 * rng.randint(-3, 3) + (1 if i in axes else 0) for i in range(d)]
                p = Cell(0, coords)
                axes_q = rng.sample(range(d), 2)
                coords_q = [2 * rng.randint(-3, 3) + (1 if i in axes_q else 0) for i in range(d)]
                q = Cell(0, coords_q)
                gp, sp = act(g, p)
                gq, sq = act(g, q)
                assert fam.coeff_b(p, q) == sp * sq * fam.coeff_b(gp, gq)

        # the three reflection identities, as computed facts of the lookup
        def beta(i, j, k):
            return MAIN3.coeff_b(BASE3, Cell(0, (2 * i, 1 + 2 * j, 1 + 2 * k)))

        for i, j, k in itertools.product(range(-4, 5), repeat=3):
            assert beta(-i, j, k) == -beta(1 + i, j, k)
            assert beta(i, -j, k) == beta(i, j, k)
            # reflecting the transverse coordinate maps index k to -1-k
            assert beta(i, j, -k) == -beta(i, j, k - 1)


def test_criterion_9_fault_sensitivity():
    with criterion(9, "single-entry fault detection"):
        rng = random.Random(314)
        cubes = default_cubes(3, 0)
        detected = 0
        for trial in range(20):
            kind = rng.choice(("alpha", "beta", "beta", "a0"))
            index = None if kind == "a0" else (
                rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            delta = rng.choice((-2, -1, 1, 2))
            broken = MAIN3.perturbed(kind, index, delta)
            reports = gauge_sweep(broken, cubes, WINDOW)
            assert violations(reports), (kind, index, delta)
            detected += 1
        assert detected == 20


def test_criterion_10_psd_probe_reports():
    with criterion(10, "covariance minor-sign probe (report only)"):
        for radius in (1, 2, 3):
            cov = covariance_window(MAIN3, radius)
            report = psd_probe(cov)
            assert len(report.signs) == cov.size
            assert all(s in (-1, 0, 1) for s in report.signs)
            positives = sum(1 for s in report.signs if s > 0)
            zeros = sum(1 for s in report.signs if s == 0)
            negatives = sum(1 for s in report.signs if s < 0)
            print(f"  window {radius}: size {cov.size}, minor signs "
                  f"+{positives} / 0x{zeros} / -{negatives}")
