"""Exact-arithmetic verification of invariant operators on holonomy algebras.

The package builds the observable algebra of an abelian lattice gauge field
(polynomials in plaquette holonomies modulo the constraints induced by
3-cells), models invariant second-order operators on it, and verifies -- with
zero numerical tolerance -- gauge invariance, compatibility across lattice
scales, and the exact agreement between the exponential state mu_0 e^(c*L)
and the Gaussian Yang-Mills moments on the two-sphere.
"""

from .cells import (
    Cell,
    SignedSymmetry,
    act,
    boundary,
    box_cells,
    cells_near,
    children,
    format_cell,
    parse_cell,
)
from .operators import (
    CubicalFamilyOp,
    ExplicitOp,
    SphereOp,
    apply_operator,
    operator_from_json,
)
from .poly import (
    LinearIdeal,
    Polynomial,
    bianchi_form,
    format_polynomial,
    ideal_from_cubes,
    parse_polynomial,
)
from .states import (
    CovarianceMatrix,
    LambdaPoly,
    covariance_window,
    exp_state,
    isserlis_moment,
    mu0,
    psd_probe,
    verify_sphere,
    ym_covariance,
    ym_moment,
)
from .verify import (
    ResidualReport,
    compat_residual_a,
    compat_residual_b,
    child_interaction_sum,
    gauge_residual,
    gauge_sweep,
    compat_sweep,
    solve_base_coefficient,
    sphere_condition,
    welldefined_property,
)

__version__ = "0.1.0"
