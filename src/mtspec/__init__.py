"""mtspec: exact computations around low-dimensional bordism spectra.

The package mechanizes, in exact integer and root-of-unity arithmetic,
the cohomology tables of suspended oriented Madsen-Tillmann spectra and
their connective covers, the classification of invertible topological
field theories in dimensions up to four, the restriction maps and their
kernels, vector-field bordism invariants of concrete manifolds, and the
impossibility certificate for the fundamental central extension of the
three-dimensional bordism category.
"""

from .abelian import (FgAbGroup, GroupHom, IntMatrix, check_exact, cokernel,
                      ext_group, middle_group_candidates, smith_normal_form,
                      units_kernel)
from .charclasses import (CohomologyEntry, RingElement, graded_piece,
                          restrict_generators, thom_module_piece)
from .classify import (ExtensionClass, TheoryGroup, TheoryParams, classify,
                       gilmer_masbaum_report, mcg_extension_class,
                       restrict_theory, restriction_kernel, restriction_matrix)
from .exactnum import ExactComplex, parse_exact
from .spectra import (DerivationConstraint, SpectrumId, cohomology, cover_map,
                      default_constraints, derive_cover_cohomology,
                      grid_equivalence, homotopy_group, hz_self_cohomology,
                      verify_les, vf_splitting)
from .tftlab import (FormalSum, FrobeniusData, ManifoldClass, SurfaceBordism,
                     connected_sum, disjoint_union, euler_theory_value,
                     frobenius_closed_value, frobenius_surface_value,
                     frobenius_verify, invertible_4d_value, is_vf_nullbordant,
                     standard_manifolds, vf_invariant)

__version__ = "0.1.0"
