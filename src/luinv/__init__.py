"""Exact Poincare series and low-degree local-unitary invariants of
qubit-qutrit mixed states.

The package has two halves that cross-check each other:

* an exact constant-term engine that computes the dimensions of the
  spaces of homogeneous SU(2)xSU(3)-invariant polynomials on traceless
  hermitian 6x6 matrices, degree by degree, and verifies them against
  the known closed form of the generating series;
* evaluators for the seven independent quadratic and cubic invariants
  on density matrices, in exact rational and floating arithmetic.
"""

from luinv.exact import (
    GaussianRational,
    UniPoly,
    UniSeries,
    palindrome_check,
    poly_from_factored,
    poly_mul,
    series_from_rational,
)
from luinv.molien import (
    MemoryBudgetError,
    SeriesReport,
    MultigradedTable,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    verify_theorem,
    weight_system,
)
from luinv.states import (
    StateDecomposition,
    decompose_state,
    recompose,
)
from luinv.invariants import (
    InvariantVector,
    eval_basis_form,
    eval_matrix_form,
    independence_rank,
    invariance_battery,
)

__all__ = [
    "GaussianRational",
    "UniPoly",
    "UniSeries",
    "palindrome_check",
    "poly_from_factored",
    "poly_mul",
    "series_from_rational",
    "MemoryBudgetError",
    "SeriesReport",
    "MultigradedTable",
    "poincare_coefficients",
    "poincare_multigraded",
    "quadrature_coefficients",
    "verify_theorem",
    "weight_system",
    "StateDecomposition",
    "decompose_state",
    "recompose",
    "InvariantVector",
    "eval_basis_form",
    "eval_matrix_form",
    "independence_rank",
    "invariance_battery",
]

__version__ = "0.1.0"
