"""Poincare series of the qubit-qutrit local-unitary invariant algebra.

The 35-dimensional space of traceless hermitian 6x6 matrices splits
under SU(2)xSU(3) into a qubit part (dim 3), a qutrit part (dim 8) and a
correlation part (dim 24).  On the maximal torus, with coordinates x for
SU(2) and (y, z) for SU(3), the action diagonalizes into 35 weights, all
with exponents in {-1, 0, 1} per variable.  Weyl integration turns the
group average of 1/det(1 - t g) into a constant-term extraction: the
dimension of the degree-d invariant space is

    CT( weyl_factor * h_d )

where h_d, the character of the d-th symmetric power of the weight
system, is the t^d coefficient of prod_w (1 - t w)^(-1) over the 35
weights.  The engine builds that product one weight at a time on dense
arrays of Python ints: dividing by (1 - t w) is the update
G[d] += w * G[d-1], applied for increasing d, so it only ever adds
nonnegative integers and needs no division.  Each degree keeps only the
exponent window that can still reach the Weyl factor's twelve terms by
the top degree.  Giving each subspace its own t yields the multigraded
table from the same update.

A floating-point quadrature over the torus grid provides an independent
cross-check of the exact coefficients: at every grid point it sums the
power sums p_k = sum_w w^k of the weights, recovers h_d from Newton's
identity d h_d = sum_k p_k h_{d-k}, and averages weyl_factor * h_d over
the grid.  verify_theorem compares the whole series against the
tabulated closed form in luinv.reference.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from luinv import reference
from luinv.exact import UniPoly, palindrome_check, series_from_rational

Weight = Tuple[int, int, int]

#: Tags for the three irreducible pieces of the 35-dim space.
TAGS = ("qubit", "qutrit", "corr")

#: The six nonzero weights of the qutrit adjoint (y-z exponent pairs).
_QUTRIT_ROOTS = (
    (0, 1, 0), (0, 0, 1), (0, 1, 1),
    (0, -1, 0), (0, 0, -1), (0, -1, -1),
)

#: (1 - 1/x)(1 - 1/y)(1 - 1/z)(1 - 1/(yz)) expanded, as (exponents,
#: coefficient) pairs.  Multiplying by this factor reduces the Weyl
#: integral over the group to a plain constant-term extraction.
WEYL_TERMS = (
    ((0, 0, 0), 1),
    ((0, -1, 0), -1),
    ((0, 0, -1), -1),
    ((0, -2, -1), 1),
    ((0, -1, -2), 1),
    ((0, -2, -2), -1),
    ((-1, 0, 0), -1),
    ((-1, -1, 0), 1),
    ((-1, 0, -1), 1),
    ((-1, -2, -1), -1),
    ((-1, -1, -2), -1),
    ((-1, -2, -2), 1),
)

#: Default cap on the engine's estimated bytes held (1 GiB).
DEFAULT_MEMORY_BUDGET = 1 << 30

MULTIGRADED_NOTE = (
    "multigraded dimensions are engine output only; unlike the single-graded "
    "series they have no tabulated closed form to verify against"
)


class MemoryBudgetError(MemoryError):
    """A run's estimated memory would exceed the memory budget."""


@dataclass(frozen=True)
class WeightEntry:
    weight: Weight
    multiplicity: int
    tag: str


@dataclass(frozen=True)
class WeightSystem:
    """Multiset of torus weights with multiplicities and subspace tags."""

    entries: Tuple[WeightEntry, ...]

    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def subsystem(self, tag: str) -> "WeightSystem":
        if tag not in TAGS:
            raise ValueError(f"unknown tag {tag!r}; expected one of {TAGS}")
        return WeightSystem(tuple(e for e in self.entries if e.tag == tag))

    def weights(self) -> List[Weight]:
        """Every weight, repeated by its multiplicity."""
        return [e.weight for e in self.entries for _ in range(e.multiplicity)]


def weight_system() -> WeightSystem:
    """The 35 torus weights of traceless hermitian 6x6 matrices.

    qubit part:  x^{+-1} and one zero weight (dim 3)
    qutrit part: the six roots and two zero weights (dim 8)
    corr part:   {x^{+-1}, 1} times {roots, two zeros} (dim 24)
    """
    entries: List[WeightEntry] = [
        WeightEntry((1, 0, 0), 1, "qubit"),
        WeightEntry((-1, 0, 0), 1, "qubit"),
        WeightEntry((0, 0, 0), 1, "qubit"),
    ]
    entries += [WeightEntry(r, 1, "qutrit") for r in _QUTRIT_ROOTS]
    entries.append(WeightEntry((0, 0, 0), 2, "qutrit"))
    for s in (1, 0, -1):
        entries += [
            WeightEntry((s, r[1], r[2]), 1, "corr") for r in _QUTRIT_ROOTS
        ]
    entries += [
        WeightEntry((1, 0, 0), 2, "corr"),
        WeightEntry((-1, 0, 0), 2, "corr"),
        WeightEntry((0, 0, 0), 2, "corr"),
    ]
    return WeightSystem(tuple(entries))


def _window(d: int, max_degree: int) -> Tuple[int, int]:
    """Exponent range kept on every axis at total degree d.

    Each further degree moves an exponent by at most one, so a cell
    outside this range cannot reach the Weyl factor's negated support
    [0, 2]^3 by max_degree.
    """
    return max(-d, d - max_degree), min(d, max_degree - d + 2)


def _estimated_bytes(grades: int, weights: int, max_degree: int) -> int:
    """Bytes held by a run, estimated before anything is allocated.

    Each cell is a pointer to an int no larger than comb(weights - 1 + D,
    D): a degree-d piece has nonnegative coefficients summing to at most
    comb(weights - 1 + d, d), which grows with d.
    """
    top = math.comb(weights - 1 + max_degree, max_degree)
    cells = 0
    for d in range(max_degree + 1):
        lo, hi = _window(d, max_degree)
        cells += math.comb(d + grades - 1, grades - 1) * (hi - lo + 1) ** 3
    return cells * (8 + sys.getsizeof(top))


def _feasible_degree(grades: int, weights: int, budget: int) -> int:
    """Largest max_degree whose estimate fits the budget, -1 if none."""
    d = -1
    while _estimated_bytes(grades, weights, d + 1) <= budget:
        d += 1
    return d


def _degree_advice(feasible: int) -> str:
    if feasible < 0:
        return "no degree fits this budget"
    return f"with this budget the feasible max degree is {feasible}"


def _overlap(target: Tuple[int, int], source: Tuple[int, int], shift: int):
    """Slices of the target and source ranges where source + shift lands."""
    start = max(target[0], source[0] + shift)
    stop = min(target[1], source[1] + shift) + 1
    return (
        slice(start - target[0], stop - target[0]),
        slice(start - shift - source[0], stop - shift - source[0]),
    )


def _character_windows(
    grades: Sequence[Sequence[Weight]],
    max_degree: int,
    memory_budget: Optional[int] = None,
) -> Dict[Tuple[int, ...], np.ndarray]:
    """Pruned coefficients of prod_g prod_{w in grades[g]} (1 - t_g w)^(-1).

    Maps each multidegree delta with total degree d <= max_degree to a
    cube of Python ints whose corner sits at exponent _window(d,
    max_degree)[0] on every axis.  Weight exponents must lie in
    {-1, 0, 1}.  Raises MemoryBudgetError, before allocating, if the
    estimated bytes held exceed the budget.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    weights = sum(len(ws) for ws in grades)
    need = _estimated_bytes(len(grades), weights, max_degree)
    if need > budget:
        advice = _degree_advice(_feasible_degree(len(grades), weights, budget))
        raise MemoryBudgetError(
            f"max degree {max_degree} needs an estimated {need} bytes, over "
            f"the budget of {budget}; {advice}"
        )

    windows = [_window(d, max_degree) for d in range(max_degree + 1)]
    order = sorted(
        (
            delta
            for delta in itertools.product(range(max_degree + 1), repeat=len(grades))
            if sum(delta) <= max_degree
        ),
        key=sum,
    )
    blocks = {}
    for delta in order:
        lo, hi = windows[sum(delta)]
        blocks[delta] = np.zeros((hi - lo + 1,) * 3, dtype=object)
    blocks[order[0]][0, 0, 0] = 1
    for g, grade in enumerate(grades):
        for w in grade:
            for delta in order:
                if delta[g] == 0:
                    continue
                prev = delta[:g] + (delta[g] - 1,) + delta[g + 1:]
                d = sum(delta)
                target, source = zip(
                    *(_overlap(windows[d], windows[d - 1], a) for a in w)
                )
                blocks[delta][target] += blocks[prev][source]
    return blocks


def _dimensions(
    grades: Sequence[Sequence[Weight]],
    max_degree: int,
    memory_budget: Optional[int],
) -> Dict[Tuple[int, ...], int]:
    """CT(weyl * G[delta]) for every multidegree of _character_windows."""
    out = {}
    for delta, block in _character_windows(grades, max_degree, memory_budget).items():
        lo = _window(sum(delta), max_degree)[0]
        total = 0
        for (ex, ey, ez), coeff in WEYL_TERMS:
            index = (-ex - lo, -ey - lo, -ez - lo)
            # a Weyl term beyond the window meets a coefficient that is zero
            if max(index) < block.shape[0]:
                total += coeff * block[index]
        out[delta] = int(total)
    return out


def poincare_coefficients(
    max_degree: int, *, memory_budget: Optional[int] = None
) -> List[int]:
    """Exact dimensions of the invariant spaces at degrees 0..max_degree."""
    dims = _dimensions([weight_system().weights()], max_degree, memory_budget)
    return [dims[(d,)] for d in range(max_degree + 1)]


@dataclass(frozen=True)
class MultigradedTable:
    """Dimensions refined by (qubit, qutrit, correlation) degrees.

    entries[(d1, d2, d3)] is the dimension of the invariant space of
    multidegree (d1, d2, d3); summing over d1+d2+d3 = d recovers the
    single-graded coefficient at d.
    """

    max_total_degree: int
    entries: Dict[Tuple[int, int, int], int]
    note: str = MULTIGRADED_NOTE

    def row_sums(self) -> List[int]:
        sums = [0] * (self.max_total_degree + 1)
        for (d1, d2, d3), value in self.entries.items():
            sums[d1 + d2 + d3] += value
        return sums


def poincare_multigraded(
    max_total_degree: int, *, memory_budget: Optional[int] = None
) -> MultigradedTable:
    """Multigraded refinement of the series, up to a total degree.

    Runs the series engine with one grade per subspace: the coefficient
    at (d1, d2, d3) is CT(weyl * h_{d1}(qubit) * h_{d2}(qutrit) *
    h_{d3}(corr)).
    """
    ws = weight_system()
    grades = [ws.subsystem(tag).weights() for tag in TAGS]
    dims = _dimensions(grades, max_total_degree, memory_budget)
    return MultigradedTable(
        max_total_degree, {delta: v for delta, v in dims.items() if v}
    )


def _distinct_weight_factors(ws: WeightSystem) -> List[Tuple[Tuple[int, int, int], int]]:
    terms: Dict[Tuple[int, int, int], int] = {}
    for e in ws.entries:
        terms[e.weight] = terms.get(e.weight, 0) + e.multiplicity
    return sorted(terms.items())


def _quadrature_bytes(max_degree: int, grid_size: int) -> int:
    """Bytes the quadrature holds at its peak, estimated before allocating.

    The power sums and the series are (max_degree + 1, M^3) complex128
    arrays; the grid coordinates, the Weyl factor, the running weight
    power and the temporaries of one row operation hold at most eight
    more M^3 complex values per point.
    """
    return grid_size ** 3 * 16 * (2 * (max_degree + 1) + 8)


def _check_quadrature_budget(max_degree: int, grid_size: int, budget: int) -> None:
    """Raise MemoryBudgetError, naming what would fit, if the grid is too big."""
    need = _quadrature_bytes(max_degree, grid_size)
    if need <= budget:
        return
    # the cube root lands within a step of the largest grid that fits
    m = min(grid_size, int((budget / _quadrature_bytes(max_degree, 1)) ** (1 / 3)) + 1)
    while m > 0 and _quadrature_bytes(max_degree, m) > budget:
        m -= 1
    if m >= 2 * max_degree + 5:
        advice = f"the largest grid within it at this degree is {m}"
    else:
        d = -1  # at the default grid, 2 * degree + 7
        while _quadrature_bytes(d + 1, 2 * d + 9) <= budget:
            d += 1
        advice = _degree_advice(d)
    raise MemoryBudgetError(
        f"quadrature at max degree {max_degree} on a {grid_size}^3 grid needs an "
        f"estimated {need} bytes, over the budget of {budget}; {advice}"
    )


def _torus_series(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, max_degree: int
) -> np.ndarray:
    """h_0..h_max_degree of the 35 weights at the torus points (x, y, z).

    Returns an (max_degree + 1, points) complex array whose row d is the
    t^d coefficient of prod_w (1 - t w)^(-mult).  The power sums
    p_k = sum_w mult * w^k give it by Newton's identity
    d * h_d = sum_{k=1..d} p_k * h_{d-k}, so each step is a contiguous
    row operation.
    """
    order = max_degree + 1
    power = np.zeros((order, x.size), dtype=np.complex128)  # row k holds p_k
    for (ex, ey, ez), mult in _distinct_weight_factors(weight_system()):
        wval = (x ** ex) * (y ** ey) * (z ** ez)
        wpow = np.ones_like(wval)
        for k in range(1, order):
            wpow *= wval
            power[k] += mult * wpow
    series = np.empty_like(power)
    series[0] = 1.0
    for d in range(1, order):
        series[d] = np.einsum("kp,kp->p", power[1 : d + 1], series[d - 1 :: -1]) / d
    return series


def quadrature_coefficients(
    max_degree: int,
    grid_size: Optional[int] = None,
    *,
    imag_tolerance: float = 1e-9,
    memory_budget: Optional[int] = None,
) -> List[float]:
    """Series coefficients by trapezoid quadrature over the torus grid.

    Independent of the exact path: at every grid point (x, y, z) on the
    M^3 lattice of M-th roots of unity, the power sums of the 35 weights
    give the truncated t-series of prod (1 - t w)^(-mult) by Newton's
    identity; each coefficient is multiplied by the t-free weyl factor
    and averaged.  The integrand's exponents are bounded, so for
    M >= 2*max_degree + 5 the grid average is exact up to rounding and
    the result's imaginary part, relative to max(1, |real part|) degree
    by degree, must vanish to tolerance.  Raises MemoryBudgetError,
    before allocating, if the estimated bytes held exceed the budget.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    min_grid = 2 * max_degree + 5
    if grid_size is None:
        grid_size = 2 * max_degree + 7
    if grid_size < min_grid:
        raise ValueError(
            f"grid_size {grid_size} is below the exactness bound {min_grid}"
        )
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    _check_quadrature_budget(max_degree, grid_size, budget)
    m = grid_size
    omega = np.exp(2j * np.pi * np.arange(m) / m)
    x, y, z = (g.ravel() for g in np.meshgrid(omega, omega, omega, indexing="ij"))
    weyl = (1 - 1 / x) * (1 - 1 / y) * (1 - 1 / z) * (1 - 1 / (y * z))

    series = _torus_series(x, y, z, max_degree)
    series *= weyl
    averages = series.mean(axis=1)
    # rounding error grows with the coefficients, so compare relative to them
    relative_imag = np.abs(averages.imag) / np.maximum(1.0, np.abs(averages.real))
    worst_imag = float(relative_imag.max())
    if not worst_imag <= imag_tolerance:
        raise ArithmeticError(
            f"quadrature result has relative imaginary residue {worst_imag:.3e} "
            f"above tolerance {imag_tolerance:.3e}"
        )
    return [float(v) for v in averages.real]


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of checking computed coefficients against the closed form."""

    max_degree: int
    coefficients: Tuple[int, ...]
    theorem_match: bool
    first_mismatch: Optional[int]
    palindrome_numerator: bool
    palindrome_nonneg_numerator: bool
    nonneg_coefficients: bool
    transform_identity: bool
    degree_gap: int
    hsop_degrees: Tuple[int, ...]
    series_head: bool

    def checks(self) -> Dict[str, bool]:
        """Every named check, in report order."""
        return {
            "theorem_match": self.theorem_match,
            "palindrome_numerator": self.palindrome_numerator,
            "palindrome_nonneg_numerator": self.palindrome_nonneg_numerator,
            "nonneg_coefficients": self.nonneg_coefficients,
            "transform_identity": self.transform_identity,
            "degree_gap_35": self.degree_gap == 35,
            "series_head": self.series_head,
        }

    @property
    def all_passed(self) -> bool:
        return all(self.checks().values())


def verify_theorem(computed: Sequence[int]) -> SeriesReport:
    """Check computed series coefficients against the tabulated closed form.

    Verifies, in order: the Taylor expansion of the tabulated rational
    form reproduces the computed coefficients; both numerators are
    palindromic at their stated degrees; multiplying the reduced form by
    (1 - t + t^2)(1 + t^3) reproduces the nonnegative form exactly; the
    nonnegative numerator has no negative coefficient; both
    denominator/numerator degree gaps equal 35; the series starts 1, 0
    (c1 only when computed); and reports the degree multiset of a
    homogeneous system of parameters read off the nonnegative
    denominator's factors.
    """
    if not computed:
        raise ValueError("need at least the degree-0 coefficient")
    num = reference.numerator_poly()
    den = reference.denominator_poly()
    num_star = reference.nonneg_numerator_poly()
    den_star = reference.nonneg_denominator_poly()

    expected = series_from_rational(num, den, len(computed) - 1)
    first_mismatch = None
    for d, value in enumerate(computed):
        if value != expected.coefficient(d):
            first_mismatch = d
            break

    # (1 - t + t^2)(1 + t^3), the factor relating the two forms
    transform = UniPoly([1, -1, 1]) * UniPoly([1, 0, 0, 1])

    gap = den.degree - num.degree
    gap_star = den_star.degree - num_star.degree
    hsop = tuple(
        e
        for e, mult in sorted(reference.NONNEG_DENOMINATOR_FACTORS)
        for _ in range(mult)
    )
    return SeriesReport(
        max_degree=len(computed) - 1,
        coefficients=tuple(computed),
        theorem_match=first_mismatch is None,
        first_mismatch=first_mismatch,
        palindrome_numerator=palindrome_check(num, reference.NUMERATOR_DEGREE),
        palindrome_nonneg_numerator=palindrome_check(
            num_star, reference.NONNEG_NUMERATOR_DEGREE
        ),
        nonneg_coefficients=all(c >= 0 for c in num_star.coeffs),
        transform_identity=(den * transform == den_star)
        and (num * transform == num_star),
        degree_gap=gap if gap == gap_star else -1,
        hsop_degrees=hsop,
        series_head=computed[0] == 1 and all(c == 0 for c in computed[1:2]),
    )
