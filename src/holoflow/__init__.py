"""Exact-arithmetic verification of invariant operators on holonomy algebras.

The package builds the observable algebra of an abelian lattice gauge field
(polynomials in plaquette holonomies modulo the constraints induced by
3-cells), models invariant second-order operators on it, and verifies -- with
zero numerical tolerance -- gauge invariance, compatibility across lattice
scales, and the exact agreement between the exponential state mu_0 e^(c*L)
and the Gaussian Yang-Mills moments on the two-sphere.
"""

__version__ = "0.1.0"
