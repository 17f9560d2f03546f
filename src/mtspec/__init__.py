"""mtspec: exact computations around low-dimensional bordism spectra.

The package mechanizes, in exact integer and root-of-unity arithmetic,
the cohomology tables of suspended oriented Madsen-Tillmann spectra and
their connective covers, the classification of invertible topological
field theories in dimensions up to four, the restriction maps and their
kernels, vector-field bordism invariants of concrete manifolds, and the
impossibility certificate for the fundamental central extension of the
three-dimensional bordism category.
"""

__version__ = "0.1.0"
DIMENSIONS = (1, 2, 3, 4)  # the dimensions served, declared once for every module
