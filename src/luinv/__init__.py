"""Exact Poincare series and low-degree local-unitary invariants of
qubit-qutrit mixed states.

The package has two halves that cross-check each other:

* an exact constant-term engine that computes the dimensions of the
  spaces of homogeneous SU(2)xSU(3)-invariant polynomials on traceless
  hermitian 6x6 matrices, degree by degree, and verifies them against
  the known closed form of the generating series and against an exact
  quadrature mod the one prime the engine skips (quadrature_grid);
* evaluators for the seven independent quadratic and cubic invariants
  on density matrices, held as real 12x12 embeddings of int and
  Fraction entries (exact) or float64, through one code path.
"""

from luinv.molien import (
    MemoryBudgetError,
    SeriesReport,
    MultigradedTable,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    quadrature_grid,
    verify_theorem,
)
from luinv.states import (
    StateDecomposition,
    decompose_state,
)
from luinv.invariants import (
    InvariantVector,
    eval_basis_form,
    eval_matrix_form,
    invariance_battery,
)

__all__ = [
    "MemoryBudgetError",
    "SeriesReport",
    "MultigradedTable",
    "poincare_coefficients",
    "poincare_multigraded",
    "quadrature_coefficients",
    "quadrature_grid",
    "verify_theorem",
    "StateDecomposition",
    "decompose_state",
    "InvariantVector",
    "eval_basis_form",
    "eval_matrix_form",
    "invariance_battery",
]

__version__ = "0.1.0"
