"""Poincare series of the qubit-qutrit local-unitary invariant algebra.

The 35-dimensional space of traceless hermitian 6x6 matrices splits
under SU(2)xSU(3) into a qubit part (dim 3), a qutrit part (dim 8) and a
correlation part (dim 24).  On the maximal torus, with coordinates x for
SU(2) and (y, z) for SU(3), the action diagonalizes into 35 weights, all
with exponents in {-1, 0, 1} per variable.  GRADES tabulates them once,
by subspace and repeated by multiplicity, and WEIGHTS joins the three
grades; the engine, the multigraded table and the quadrature all read
them from there.  Weyl integration turns the group average of
1/det(1 - t g) into a constant-term extraction: the dimension of the
degree-d invariant space is

    CT( weyl_factor * h_d )

where h_d, the character of the d-th symmetric power of the weight
system, is the t^d coefficient of prod_w (1 - t w)^(-1) over the 35
weights.  The Weyl factor is (1 - 1/x) times an x-free part, so the
engine takes the x constant term in closed form and is left with a 2-D
problem, whose grid average over a square grid of roots of unity in F_p,
against the rest of the Weyl factor, is each dimension mod p.  Apart from
that factor the integrand is invariant under the 12 automorphisms of the
SU(3) roots, A2_MAPS, which permute the grid, so the engine evaluates it
at one point per orbit, about a twelfth of the grid, and weights each
orbit by its sum of the Weyl factor.  There dividing by (1 - t w) is the
update G[d] += w * G[d-1] on int64 rows, one array operation for all the
rows of a level.  A few primes joined by the Chinese remainder theorem
give the integers.  Giving each subspace its own t yields the
multigraded table from the same update.

An exact quadrature, with no x constant-term identity, orbits or Chinese
remainder theorem, cross-checks the engine mod one prime: it builds h_d
at every point of the 3-D torus grid in F_p by the same additive update,
a block of x values at a time, and sums weyl_factor * h_d over the grid.
verify_theorem compares the whole series against the tabulated closed
form in luinv.reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from luinv import reference

Weight = Tuple[int, int, int]

#: The 35 torus weights, (x, y, z) exponents, by subspace, each repeated by
#: its multiplicity: the qubit part x^{+-1}, 1 (dim 3); the qutrit part,
#: the six roots and two zero weights (dim 8); the correlation part,
#: {x, 1, 1/x} times the qutrit part (dim 24).  The order of the grades
#: is the order of the multidegree (d1, d2, d3).
GRADES: Dict[str, Tuple[Weight, ...]] = {
    "qubit": ((1, 0, 0), (-1, 0, 0), (0, 0, 0)),
    "qutrit": (
        (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1), (0, -1, -1),
        (0, 0, 0), (0, 0, 0),
    ),
}
GRADES["corr"] = tuple((s, y, z) for s in (1, 0, -1) for _, y, z in GRADES["qutrit"])
#: All 35 weights in one multiset.
WEIGHTS: Tuple[Weight, ...] = sum(GRADES.values(), ())

#: Default cap on the engine's estimated bytes held (1 GiB).
DEFAULT_MEMORY_BUDGET = 1 << 30

MULTIGRADED_NOTE = (
    "multigraded dimensions are engine output only; unlike the single-graded "
    "series they have no tabulated closed form to verify against"
)


class MemoryBudgetError(MemoryError):
    """A run's estimated memory would exceed the memory budget."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5 and 7, exact for n < 3215031751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _apply(a: Tuple[Tuple[int, int], Tuple[int, int]], w: Tuple[int, int]) -> Tuple[int, int]:
    """The image a w of the (y, z)-exponents w under the map a."""
    return a[0][0] * w[0] + a[0][1] * w[1], a[1][0] * w[0] + a[1][1] * w[1]


#: The roots of SU(3) as (y, z)-exponents.
_A2_ROOTS = frozenset({(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)})
#: The 12 lattice maps ((a, b), (c, d)): (y, z) -> (a y + b z, c y + d z) of
#: the (y, z)-exponents that permute the roots, the Weyl group S3 and its
#: negatives; their columns, the images of (1, 0) and (0, 1), are roots.
A2_MAPS = tuple(
    ((u[0], v[0]), (u[1], v[1]))
    for u in sorted(_A2_ROOTS)
    for v in sorted(_A2_ROOTS)
    if {_apply(((u[0], v[0]), (u[1], v[1])), r) for r in _A2_ROOTS} == _A2_ROOTS
)


def _symmetries(grades: Sequence[Sequence[Weight]]) -> Tuple:
    """The maps of A2_MAPS that fix, as a multiset of (y, z)-exponents, the
    weights of each grade with each x-exponent.  They form a group, and the
    engine's series are invariant under it; for GRADES it is all of A2_MAPS.
    """
    parts = [sorted(w[1:] for w in weights if w[0] == s) for weights in grades for s in (1, -1, 0)]
    return tuple(
        a for a in A2_MAPS if all(sorted(_apply(a, w) for w in part) == part for part in parts)
    )


def _orbit_count(m: int, maps: Sequence) -> int:
    """The number of orbits of the group maps on the M x M grid, by Burnside's lemma.

    A map a sends a weight w to a w, so it moves the grid exponents (i, j)
    of a point by its transpose, and the points it fixes solve
    (a^T - 1) v = 0 mod m: there are gcd(s1, m) gcd(s2, m) of them, for
    s1, s2 the Smith invariants of a - 1.
    """
    fixed = 0
    for (a, b), (c, d) in maps:
        s1 = math.gcd(a - 1, b, c, d - 1)
        s2 = abs((a - 1) * (d - 1) - b * c) // s1 if s1 else 0
        fixed += math.gcd(s1, m) * math.gcd(s2, m)
    return fixed // len(maps)


def _orbits(m: int, maps: Sequence) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, perm, starts) for the orbits of maps on the M x M grid.

    Point i*m + j has y = omega^i, z = omega^j.  Its orbit's representative
    is the least linear index over its images; reps lists them ascending,
    perm sorts the points by orbit, and the orbit of reps[r] is the run of
    perm that begins at starts[r].
    """
    i, j = np.divmod(np.arange(m * m), m)
    label = np.arange(m * m)
    for (a, b), (c, d) in maps:
        np.minimum(label, (a * i + c * j) % m * m + (b * i + d * j) % m, out=label)
    perm = np.argsort(label, kind="stable")
    reps, starts = np.unique(label[perm], return_index=True)
    return reps, perm, starts


def _weyl_sums(
    powers: np.ndarray, perm: np.ndarray, starts: np.ndarray, p: int
) -> np.ndarray:
    """(1 - 1/y)(1 - 1/z)(1 - 1/(yz)), the x-free part of the Weyl factor,
    summed over each orbit of _orbits mod p, in int64.

    powers[a] is omega^a for the grid's m-th root of unity omega.
    """
    m = len(powers)
    grid = np.arange(m)
    inverse = 1 - powers[-grid % m]
    weyl = np.outer(inverse, inverse) % p
    weyl *= 1 - powers[-(grid[:, None] + grid) % m]
    weyl %= p
    # an orbit sums at most 12 values below 2^31
    return np.add.reduceat(weyl.ravel()[perm], starts) % p


def _estimated_bytes(k: int, d: int, maps: Sequence = A2_MAPS) -> int:
    """Bytes the engine holds at its peak for k grades to degree d.

    A row is an int64 per orbit of maps on the M^2 grid, M = d + 3.  E has
    a row per multidegree, P and Q one per multidegree of at most half the
    total degree, and the slab temporaries of one division level or one
    pairing, with the grid values, take at most four times the rows of
    total degree d and eight more.  Enumerating the orbits and summing the
    Weyl factor over them hold at most twelve int64 per grid point.  The
    pairing stores a row of E per (P row, Q row) pair, at most twice the P
    rows times the rows of total degree (d + 1) // 2; the multidegrees are
    looked up in an int64 per point of the cube [0, d]^k; the multidegree
    tables and the residues take a few hundred bytes per multidegree.
    """
    m, cells, half = d + 3, math.comb(d + k, k), math.comb((d + 1) // 2 + k, k)
    rows = cells + 2 * half + 4 * math.comb(d + k - 1, k - 1) + 8
    pairs = 2 * half * math.comb((d + 1) // 2 + k - 1, k - 1)
    return (
        8 * _orbit_count(m, maps) * rows
        + 96 * m * m
        + 8 * (pairs + (d + 1) ** k)
        + 500 * cells
        + 16384
    )


def _check_budget(
    what: str, need: int, memory_budget: Optional[int], estimate: Callable[[int], int]
) -> None:
    """Raise MemoryBudgetError if need bytes exceed the budget, naming the largest max degree
    whose estimate fits (they fit up to some degree): double it until it fails, then bisect."""
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if need <= budget:
        return
    lo, hi = -1, 1
    while estimate(hi) <= budget:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if estimate(mid) <= budget:
            lo = mid
        else:
            hi = mid
    advice = f"with this budget the feasible max degree is {lo}"
    if lo < 0:
        advice = "no degree fits this budget"
    raise MemoryBudgetError(
        f"{what} needs an estimated {need} bytes, over the budget of {budget}; {advice}"
    )


def _grid_primes(m: int) -> Iterator[Tuple[int, int]]:
    """Primes p = k*m + 1 < 2^31, largest first, each with an element of order m.

    The element is the first c^((p - 1)/m), c = 2, 3, ..., whose (m/q)-th
    power is not 1 for any prime q dividing m.
    """
    root = math.isqrt(m)  # a divisor of m above its root is the cofactor of one below
    factors = {q for d in range(1, root + 1) if m % d == 0 for q in (d, m // d) if _is_prime(q)}
    for p in range((2**31 - 2) // m * m + 1, m, -m):
        if _is_prime(p):
            roots = (pow(c, (p - 1) // m, p) for c in range(2, p))
            yield p, next(w for w in roots if all(pow(w, m // q, p) != 1 for q in factors))


def _levels(depth: np.ndarray, source: np.ndarray) -> List[tuple]:
    """The rows at each depth >= 1 with their sources, which lie one depth lower.

    A level of one row is a pair of ints, a larger one a pair of index arrays.
    """
    levels = []
    for level in range(1, depth.max() + 1):
        rows = np.flatnonzero(depth == level)
        src = source[rows]
        levels.append((int(rows[0]), int(src[0])) if len(rows) == 1 else (rows, src))
    return levels


def _divide(series: np.ndarray, weights: Iterable, levels: Sequence, p: int) -> None:
    """Divide series by prod (1 - t_g w) in place, mod p.

    Row i of series holds a multidegree's values at the grid points, and
    levels[g] is _levels of grade g's degrees and sources: the row of each
    multidegree less one in grade g.  weights yields (g, values of w at the
    points).  The update series[i] += w * series[source], for increasing
    i, only adds; a row at depth L along grade g's chain reads only a row
    at depth L - 1, so each depth is one update of all its rows.
    """
    for g, w in weights:
        for rows, src in levels[g]:
            if isinstance(rows, int):
                series[rows] += w * series[src]
                series[rows] %= p
            else:
                block = series[src]
                block *= w
                block += series[rows]
                block %= p
                series[rows] = block


def _dimensions(
    grades: Sequence[Sequence[Weight]],
    max_degree: int,
    memory_budget: Optional[int],
) -> Dict[Tuple[int, ...], int]:
    """CT(weyl * G[delta]) for each multidegree delta of total degree at most
    max_degree, where G = prod_g prod_{w in grades[g]} (1 - t_g w)^(-1).

    P(x) and Q(1/x), the factors of the weights with x-exponent +1 and -1,
    pair as CT_x[(1 - 1/x) P(x) Q(1/x)] = sum_a P_a Q_a - sum_a P_(a+1) Q_a.
    The rest has (y, z)-exponents in [-max_degree - 2, max_degree], so its
    average over the grid of M-th roots of unity in F_p, M = max_degree +
    3, is its constant term mod p, and enough primes fix it by the Chinese
    remainder theorem.  Apart from the Weyl factor, that rest is invariant
    under _symmetries(grades), so it is evaluated at one point per orbit
    and weighted by the orbit's sum of the Weyl factor.  Weight exponents
    must lie in {-1, 0, 1}.  Raises MemoryBudgetError, before allocating,
    if the estimated bytes held exceed the budget.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    k, m = len(grades), max_degree + 3
    maps = _symmetries(grades)
    _check_budget(
        f"max degree {max_degree}",
        _estimated_bytes(k, max_degree, maps),
        memory_budget,
        lambda d: _estimated_bytes(k, d, maps),
    )
    reps, perm, starts = _orbits(m, maps)
    rep_y, rep_z = np.divmod(reps, m)
    e = np.zeros((math.comb(max_degree + k, k), len(reps)), dtype=np.int64)
    pq = np.zeros((2, math.comb((max_degree + 1) // 2 + k, k), len(reps)), dtype=np.int64)
    # multidegrees by total degree; those of total t start at row comb(t + k - 1, k)
    cube = itertools.product(range(max_degree + 1), repeat=k)
    order = sorted((d for d in cube if sum(d) <= max_degree), key=sum)
    degrees = np.array(order).reshape(len(order), k)
    strides = (max_degree + 1) ** np.arange(k - 1, -1, -1)
    row = np.zeros((max_degree + 1) ** k, dtype=np.int64)  # by index in the cube
    row[degrees @ strides] = np.arange(len(order))
    # a row's depth along grade g is d_g; where d_g = 0 the source wraps around, unread
    sources = [row[degrees @ strides - strides[g]] for g in range(k)]
    levels = [_levels(degrees[:, g], sources[g]) for g in range(k)]
    # the rows of total degree at most (max_degree + 1) // 2 come first
    half = len(pq[0])
    half_levels = [_levels(degrees[:half, g], sources[g][:half]) for g in range(k)]
    split = [  # (grade, weight) by x-exponent +1, -1 and 0
        [(g, w) for g in range(k) for w in grades[g] if w[0] == s] for s in (1, -1, 0)
    ]
    pairs = []  # (P row, its Q rows, how many of them pair with sign -1, their rows of E)
    for a, alpha in enumerate(order[: len(pq[0])]):
        # the Q rows of total sum(alpha) - 1, sign -1, and sum(alpha), sign +1, in range
        first = math.comb(max(sum(alpha) - 2, -1) + k, k)
        middle = math.comb(sum(alpha) - 1 + k, k)
        last = math.comb(min(sum(alpha), max_degree - sum(alpha)) + k, k)
        if first < last:
            targets = row[(degrees[first:last] + degrees[a]) @ strides]
            pairs.append((a, slice(first, last), min(middle, last) - first, targets))
    # |CT| <= the sum of the cells of G[delta] <= comb(weights + max_degree, max_degree)
    bound = 2 * math.comb(sum(map(len, grades)) + max_degree, max_degree)
    values, modulus, primes = [0] * len(order), 1, _grid_primes(m)
    while modulus <= bound:
        p, omega = next(primes)
        powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)

        def at(w):  # y^w[1] z^w[2] at the orbit representatives
            return powers[(w[1] * rep_y + w[2] * rep_z) % m]

        for series, weights in zip(pq, split):
            series.fill(0)
            series[0] = 1
            _divide(series, ((g, at(w)) for g, w in weights), half_levels, p)
        e.fill(0)
        # within one P row the targets are distinct, so each pairing is one update
        for a, betas, negative, targets in pairs:
            block = pq[1, betas] * pq[0, a]
            block[:negative] *= -1
            block %= p
            block += e[targets]
            block %= p
            e[targets] = block
        _divide(e, ((g, at(w)) for g, w in split[2]), levels, p)
        e *= _weyl_sums(powers, perm, starts, p)
        e %= p
        # a row sums fewer than 2^32 values below 2^31, which int64 holds
        residues = (e.sum(axis=1) % p * pow(m * m, -1, p) % p).tolist()
        inverse = pow(modulus, -1, p)
        values = [v + (r - v) * inverse % p * modulus for v, r in zip(values, residues)]
        modulus *= p
    return {d: v - modulus if 2 * v > modulus else v for d, v in zip(order, values)}


def poincare_coefficients(
    max_degree: int, *, memory_budget: Optional[int] = None
) -> List[int]:
    """Exact dimensions of the invariant spaces at degrees 0..max_degree."""
    dims = _dimensions([WEIGHTS], max_degree, memory_budget)
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

    def row_sums(self) -> List[int]:
        sums = [0] * (self.max_total_degree + 1)
        for (d1, d2, d3), value in self.entries.items():
            sums[d1 + d2 + d3] += value
        return sums


def poincare_multigraded(
    max_total_degree: int, *, memory_budget: Optional[int] = None
) -> MultigradedTable:
    """Multigraded refinement of the series, up to a total degree.

    Runs the series engine with one grade per subspace of GRADES: the
    coefficient at (d1, d2, d3) is CT(weyl * h_{d1}(qubit) *
    h_{d2}(qutrit) * h_{d3}(corr)).
    """
    dims = _dimensions(list(GRADES.values()), max_total_degree, memory_budget)
    return MultigradedTable(
        max_total_degree, {delta: v for delta, v in dims.items() if v}
    )


def _quadrature_block(max_degree: int, m: int) -> int:
    """x values per block: as many as hold h_0..h_max_degree in 4 MiB, at least one."""
    return max(1, min(m // 2, (1 << 22) // (8 * (max_degree + 1) * m * m)))


def _quadrature_bytes(max_degree: int, grid_size: int) -> int:
    """Bytes the quadrature holds at its peak, estimated before allocating.

    A block of b x values holds h_0..h_max_degree, a weight and a product,
    an int64 per point of b M^2 each, and two int64 per row sum over z.
    The grid coordinates, the seven (y, z) parts of the weights, the Weyl
    factor and their temporaries hold at most sixteen int64 per point of
    the M^2 grid; numpy's buffers for the broadcast products, 8192 int64
    each, and the small tables take under 128 KiB.
    """
    m, d, b = grid_size, max_degree, _quadrature_block(max_degree, grid_size)
    return 8 * (d + 3) * b * m * m + 16 * (d + 1) * b * m + 128 * m * m + (1 << 17)


def quadrature_grid(max_degree: int, grid_size: Optional[int] = None) -> Tuple[int, int, int]:
    """(M, p, omega) of quadrature_coefficients: the grid size, max_degree + 3
    by default, the prime p = 1 mod M its residues are taken mod, and an
    element of order M mod p.  Raises ValueError for a negative degree, a
    grid below the exactness bound max_degree + 3 or one with no such p < 2^31.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    m = max_degree + 3 if grid_size is None else grid_size
    if m < max_degree + 3:
        raise ValueError(f"grid_size {m} is below the exactness bound {max_degree + 3}")
    found = next(_grid_primes(m), None)
    if found is None:
        raise ValueError(f"no prime below 2^31 is 1 mod the grid size {m}")
    return (m, *found)


def _slice_sums(max_degree: int, m: int, p: int, omega: int, exponents: np.ndarray) -> np.ndarray:
    """For each a in exponents, a row of the sums over the M x M grid of (y, z) of
    (1 - 1/y)(1 - 1/z)(1 - 1/(yz)) h_d(omega^a, y, z) mod p, d = 0..max_degree.  A block
    of x values at a time, dividing 1 by (1 - t w) for each of the 35 weights, h_d += w
    h_(d-1) for increasing d, builds h_0..h_max_degree at the block's points."""
    # the grid first, so that a grid too large to hold fails before the rest
    i, j = np.divmod(np.arange(m * m), m)  # point i*m + j is (omega^i, omega^j)
    powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)
    yz = {u[1:]: powers[(u[1] * i + u[2] * j) % m] for u in WEIGHTS}
    weyl = (1 - yz[-1, 0]) * (1 - yz[0, -1]) % p * (1 - yz[-1, -1]) % p
    size = _quadrature_block(max_degree, m)
    out = np.empty((len(exponents), max_degree + 1), dtype=np.int64)
    for start in range(0, len(exponents), size):
        block = exponents[start : start + size]
        h = np.zeros((max_degree + 1, len(block), m * m), dtype=np.int64)
        h[0] = 1
        w, product = np.empty((2, len(block), m * m), dtype=np.int64)
        for ex, ey, ez in WEIGHTS:
            np.multiply(powers[ex * block % m, None], yz[ey, ez], out=w)
            w %= p
            for d in range(1, max_degree + 1):
                np.multiply(w, h[d - 1], out=product)
                product += h[d]
                np.remainder(product, p, out=h[d])
        h *= weyl
        h %= p
        # a sum of M values below p < 2^31 stays below 2^62
        sums = h.reshape(max_degree + 1, len(block), m, m).sum(axis=3) % p
        out[start : start + len(block)] = (sums.sum(axis=2) % p).T
        del h, w, product  # before the next block allocates its own
    return out


def quadrature_coefficients(
    max_degree: int,
    grid_size: Optional[int] = None,
    *,
    memory_budget: Optional[int] = None,
) -> List[int]:
    """The series coefficients mod p, p from quadrature_grid, independent of
    the engine.  weyl_factor * h_d has exponents in [-max_degree - 2,
    max_degree], so for M >= max_degree + 3 its sum over the M^3 points of
    M-th roots of unity in F_p is M^3 times its constant term.  The weights
    are invariant under x -> 1/x, so slice x = omega^(M - a) equals slice
    omega^a: only a = 1..M // 2 are summed, weighted by (1 - omega^-a) +
    (1 - omega^a), or by 1 - omega^-a = 2 when 2a = M (slice 0 weighs 0).
    Raises MemoryBudgetError, before allocating, over the budget."""
    m, p, omega = quadrature_grid(max_degree, grid_size)
    _check_budget(
        f"quadrature at max degree {max_degree} on a grid of size {m}",
        _quadrature_bytes(max_degree, m),
        memory_budget,
        lambda d: _quadrature_bytes(d, d + 3),
    )
    half = np.arange(1, m // 2 + 1)
    sums = _slice_sums(max_degree, m, p, omega, half)
    weights = [2 - pow(omega, a, p) - pow(omega, -a, p) if 2 * a != m else 2 for a in half.tolist()]
    residues = (np.array(weights)[:, None] % p * sums % p).sum(axis=0) % p
    return (residues * pow(m**3, -1, p) % p).tolist()


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of checking computed coefficients against the closed form.

    checks maps each named check to its result, in report order:
    theorem_match, palindrome_numerator, palindrome_nonneg_numerator,
    nonneg_coefficients, transform_identity, degree_gap_35, series_head.
    """

    checks: Dict[str, bool]
    first_mismatch: Optional[int]
    degree_gap: int
    hsop_degrees: Tuple[int, ...]


def _taylor_head(
    num: Sequence[int], den: Sequence[int], max_degree: int
) -> List[int]:
    """Taylor coefficients of num/den through t^max_degree.

    Runs c_d = num_d - sum_{k>=1} den_k c_{d-k}, which stays in integers
    because den(0) must be 1.
    """
    if den[0] != 1:
        raise ValueError("the expansion needs a denominator with constant term 1")
    out: List[int] = []
    for d in range(max_degree + 1):
        acc = num[d] if d < len(num) else 0
        for k in range(1, min(d, len(den) - 1) + 1):
            acc -= den[k] * out[d - k]
        out.append(acc)
    return out


def _palindromic(coeffs: Sequence[int], degree: int) -> bool:
    """True iff coefficient k equals coefficient degree - k for every k.

    Missing entries count as zero; a nonzero entry past degree fails.
    """
    padded = tuple(coeffs) + (0,) * (degree + 1 - len(coeffs))
    return not any(padded[degree + 1:]) and padded[: degree + 1] == padded[degree::-1]


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
    denominator's factors.  The two palindrome checks hold by
    construction while luinv.reference completes N and N* by mirroring
    their tabulated halves; they gain force once the numerators are
    derived from computed data.
    """
    if not computed:
        raise ValueError("need at least the degree-0 coefficient")
    num = reference.numerator_poly()
    den = reference.denominator_poly()
    num_star = reference.nonneg_numerator_poly()
    den_star = reference.nonneg_denominator_poly()

    expected = _taylor_head(num, den, len(computed) - 1)
    first_mismatch = next(
        (d for d, (a, b) in enumerate(zip(computed, expected)) if a != b), None
    )

    # (1 - t + t^2)(1 + t^3), the factor relating the two forms
    transform = np.convolve([1, -1, 1], [1, 0, 0, 1])

    gap = len(den) - len(num)
    gap = gap if gap == len(den_star) - len(num_star) else -1
    checks = {
        "theorem_match": first_mismatch is None,
        "palindrome_numerator": _palindromic(num, reference.NUMERATOR_DEGREE),
        "palindrome_nonneg_numerator": _palindromic(num_star, reference.NONNEG_NUMERATOR_DEGREE),
        "nonneg_coefficients": all(c >= 0 for c in num_star),
        "transform_identity": np.array_equal(np.convolve(den, transform), den_star)
        and np.array_equal(np.convolve(num, transform), num_star),
        "degree_gap_35": gap == 35,
        "series_head": computed[0] == 1 and all(c == 0 for c in computed[1:2]),
    }
    return SeriesReport(checks, first_mismatch, gap, reference.hsop_degrees())
