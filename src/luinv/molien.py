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
against the rest of the Weyl factor, is each dimension mod p.  The Weyl
group of SU(2), x -> 1/x, fixes every character: in each grade the
weights with x-exponent -1 have the (y, z) parts, with multiplicity, of
those with +1, so the engine builds the factor P(x) of the +1 weights
once and pairs it with its mirror P(1/x).  Apart from the Weyl factor
the integrand is invariant under the 12 automorphisms of the SU(3)
roots, A2_MAPS, which fix each grade's weights with each x-exponent and
permute the grid, so the engine evaluates it at one point per orbit,
about a twelfth of the grid, and weights each orbit by its sum of the
Weyl factor.  The engine assumes both symmetries of its grades,
unchecked, and every exponent in {-1, 0, 1}: in GRADES these weights are
copies of the zero weight and the six roots.  There dividing by
(1 - t w) is the update G[d] += w * G[d-1] on int64 rows, and the K
weights of one grade cross the rows as a wavefront (Lamport's hyperplane
method): a row at depth L along that grade takes weight k at step k + L,
so each of the K + L - 1 steps is one array operation, on a slice of
rows where they form a chain and on index arrays otherwise.  A few
primes joined by the Chinese remainder theorem give the integers, one
prime per pass, a column per orbit.  Giving each subspace its own t
yields the multigraded table from the same update.  A grade with no
weight of x-exponent +1, such as the qutrit part, has none of -1 either,
so its factor F is free of x: the engine holds E, the paired P times the
x-exponent 0 weights of the other grades, on those grades' multidegrees
only, F on the free grades' multidegrees, and sums E F against the Weyl
factor at the end.  With one grade F is the row 1.

An exact quadrature, with no x constant-term identity, root maps or
Chinese remainder theorem, cross-checks the engine mod one prime, with
M-th roots of unity of the engine's order, M = max_degree + 3.  The
engine skips the first prime of that M, the quadrature's, so the check
covers every residue of the engine and its lift.  h_d is a character, so
the Weyl group S3 of SU(3), which permutes the eigenvalues of a torus
element, fixes it: the quadrature builds h_d by the same additive update
at one (y, z) point per S3 orbit, a block of orbits at a time at every x
value, weights each orbit by its sum of the rest of the Weyl factor, and
sums over the 3-D torus grid in F_p.  It derives its orbits from the
eigenvalues, not from A2_MAPS.  verify_theorem compares the whole series
against the tabulated closed form in luinv.reference.
"""

from __future__ import annotations

import functools
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
#: Bytes of h_0..h_max_degree, at every x value, that one quadrature block of S3
#: orbits may hold (4 MiB).
BLOCK_BYTES = 1 << 22

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


def _orbit_count(m: int) -> int:
    """The number of orbits of A2_MAPS on the M x M grid, by Burnside's lemma:
    the identity fixes M^2 points, each of the six reflections M, each of
    the two rotations of order 3 gcd(3, M), the negation gcd(2, M)^2 and
    each of the two rotations of order 6 only the origin."""
    return (m * m + 6 * m + 2 * math.gcd(3, m) + math.gcd(2, m) ** 2 + 2) // 12


def _orbits(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, perm, starts) for the orbits of A2_MAPS on the M x M grid.

    Point i*m + j has y = omega^i, z = omega^j.  Its orbit's representative
    is the least linear index over its images; reps lists them ascending,
    perm sorts the points by orbit, and the orbit of reps[r] is the run of
    perm that begins at starts[r].  A map a sends a weight w to a w, so it
    moves the grid exponents (i, j) of a point by its transpose.
    """
    i, j = np.divmod(np.arange(m * m), m)
    label = np.arange(m * m)
    for (a, b), (c, d) in A2_MAPS:
        np.minimum(label, (a * i + c * j) % m * m + (b * i + d * j) % m, out=label)
    perm = np.argsort(label, kind="stable")
    reps, starts = np.unique(label[perm], return_index=True)
    return reps, perm, starts


def _weyl_sums(powers: np.ndarray, perm: np.ndarray, starts: np.ndarray, p: int) -> np.ndarray:
    """(1 - 1/y)(1 - 1/z)(1 - 1/(yz)), the x-free part of the Weyl factor,
    summed over each orbit of _orbits mod p, in int64; powers[a] is omega^a
    for the grid's m-th root of unity omega mod p."""
    m = len(powers)
    grid = np.arange(m)
    inverse = 1 - powers[-grid % m]
    weyl = inverse[:, None] * inverse % p
    weyl *= 1 - powers[-(grid[:, None] + grid) % m]
    weyl %= p
    # an orbit sums at most 12 values below 2^31
    return np.add.reduceat(weyl.ravel()[perm], starts) % p


def _crt_primes(weights: int, max_degree: int) -> List[Tuple[int, int]]:
    """Grid primes of _grid_primes(max_degree + 3), with their elements of
    order M, whose product exceeds twice the bound on |CT|: with that many
    weights, |CT| is at most the sum of the cells of G[delta], which is at
    most comb(weights + max_degree, max_degree).  The first grid prime is
    skipped: it is the quadrature's, which then checks the engine mod a
    prime the engine never used."""
    bound = 2 * math.comb(weights + max_degree, max_degree)
    primes, modulus, candidates = [], 1, _grid_primes(max_degree + 3)
    next(candidates)  # quadrature_grid's prime
    while modulus <= bound:
        primes.append(next(candidates))
        modulus *= primes[-1][0]
    return primes


def _free_of_p(grades: Sequence[Sequence[Weight]]) -> List[int]:
    """The grades without a weight of x-exponent +1: P, the factor of those, is free of their t."""
    return [g for g, ws in enumerate(grades) if all(w[0] != 1 for w in ws)]


def _p_rows(grades: Sequence[Sequence[Weight]], d: int) -> int:
    """P's rows to degree d: comb((d + 1) // 2 + u, u), u the grades outside _free_of_p."""
    u = len(grades) - len(_free_of_p(grades))
    return math.comb((d + 1) // 2 + u, u)


def _estimated_bytes(grades: Sequence[Sequence[Weight]], d: int) -> int:
    """Bytes the engine holds at its peak for grades to degree d, with one prime per pass and
    _orbit_count(d + 3) points.

    With u grades outside _free_of_p and f in it, a pass holds an int64 per point for each row
    of E (comb(d + u, u)), of P (_p_rows) and of F (comb(d + f, f)), for the temporaries of one
    pairing, three times the most P rows a P row pairs with, and for five more: the
    contraction's limbs and the Weyl sums.  A P row pairs with those of its total and one
    less, at most twice the P rows of total (d + 1) // 2, or, if it is P's only row, with
    itself, and the pairing stores a row of E per pair.  A wavefront step on index arrays,
    when E's or F's multidegrees span two grades or more, holds three temporaries of at most
    one run of weights' depths, each with at most as many rows as the multidegrees of total
    d - 1 in the other grades, and its index arrays take three int64 per row and weight of
    the run.  A step on a chain holds a run's stacked weights and a slice of at most as many
    rows, at most 70 rows for 35 weights, which with the nine (y, z) parts' exponents and
    values fit in the space that enumerating the orbits, and summing the Weyl factor over
    them, frees: twelve int64 per grid point.  The multidegrees are looked up in an int64 per
    point of the cube [0, d]^k; their tables and the residues take a few hundred bytes per
    multidegree.
    """
    k, m, p_rows = len(grades), d + 3, _p_rows(grades, d)
    free = _free_of_p(grades)
    u, f, cells = k - len(free), len(free), math.comb(d + k, k)
    partners = 2 * math.comb((d + 1) // 2 + u - 1, u - 1) if u else 1
    rows = math.comb(d + u, u) + p_rows + math.comb(d + f, f) + 3 * partners + 5
    steps = 0  # bytes of the steps' index arrays
    for j, side in ((u, [g for g in range(k) if g not in free]), (f, free)):
        if j > 1:
            weights = [w for g in side for w in grades[g] if w[0] != -1]
            run = max(sum(w[0] == s for w in grades[g]) for g in side for s in (1, 0))
            rows += 3 * run * math.comb(d + j - 2, j - 1)
            steps += 24 * len(weights) * math.comb(d + j, j)
    return (
        8 * (_orbit_count(m) * rows + p_rows * partners + (d + 1) ** k)
        + steps + 96 * m * m + 500 * cells + 16384
    )


def _check_budget(
    what: str, max_degree: int, memory_budget: Optional[int], estimate: Callable[[int], int]
) -> None:
    """Raise MemoryBudgetError if estimate(max_degree) bytes exceed the budget, naming the largest
    max degree whose estimate fits (they fit up to some degree), by bisection below max_degree."""
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    need = estimate(max_degree)
    if need <= budget:
        return
    lo, hi = -1, max_degree
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
    if m > 2**31 - 2:  # no such p, and factoring m would take sqrt(m) steps
        return
    root = math.isqrt(m)  # a divisor of m above its root is the cofactor of one below
    factors = {q for d in range(1, root + 1) if m % d == 0 for q in (d, m // d) if _is_prime(q)}
    for p in range((2**31 - 2) // m * m + 1, m, -m):
        if _is_prime(p):
            roots = (pow(c, (p - 1) // m, p) for c in range(2, p))
            yield p, next(w for w in roots if all(pow(w, m // q, p) != 1 for q in factors))


def _steps(depth: np.ndarray, source: np.ndarray, k: int) -> List[tuple]:
    """The wavefront of a run of k weights along one grade: (rows, sources, weights) for each
    step, slices on a chain, where row r has depth r and source r - 1, and index arrays
    otherwise.  Row r lies at depth depth[r] and reads row source[r], one depth lower; source
    is unread at depth 0.

    The update series[i] += w * series[source], for increasing i, only adds, and a row at depth
    L reads only a row at depth L - 1, so a row at depth L takes weight j at step j + L, from
    values of the step before (Lamport's hyperplane method): each of the k + L - 1 steps, L the
    deepest depth, updates the rows of at most k consecutive depths.  weights index the run's
    values stacked last first.
    """
    n = len(depth)
    chain = np.array_equal(depth, np.arange(n)) and np.array_equal(source[1:], np.arange(n - 1))
    depths = n - 1 if chain else int(depth.max())
    if not chain:
        # the rows by depth; those of depths lo..hi run from bounds[lo - 1] to bounds[hi]
        rows = np.argsort(depth, kind="stable")
        sources, depth = source[rows], depth[rows]
        bounds = np.searchsorted(depth, np.arange(depths + 1), side="right").tolist()
    steps = []
    for step in range(1, k + depths if depths > 0 else 1):
        lo, hi = max(1, step - k + 1), min(depths, step)
        if chain:
            # rows lo..hi take weights step - lo down to step - hi
            steps.append(
                (slice(lo, hi + 1), slice(lo - 1, hi), slice(k - 1 - step + lo, k - step + hi))
            )
        else:
            run = slice(bounds[lo - 1], bounds[hi])
            steps.append((rows[run], sources[run], depth[run] + (k - 1 - step)))
    return steps


def _divide(series: np.ndarray, runs: Iterable[Tuple[np.ndarray, List[tuple]]], p: int) -> None:
    """Divide series by prod (1 - t_g w) in place, mod p.

    Row i of series holds a multidegree's values at the grid points.  runs yields, for each run
    of weights of one grade, their values at the points stacked last first and the run's _steps
    along that grade; each step is one update of its rows, slices and index arrays alike.
    """
    for values, steps in runs:
        for rows, src, take in steps:
            block = values[take] * series[src]
            block += series[rows]
            block %= p
            series[rows] = block


def _contract(e: np.ndarray, f: np.ndarray, counts: Sequence[int], p: int) -> np.ndarray:
    """e[:counts[j]] @ f[j] mod p for each row j of f, one after another in one array, exactly,
    for int64 entries in [0, p), p < 2^31.  f goes in limbs of b = 32 - bit_length(n) bits, n
    its columns, most significant first, so that a sum of n products, below n 2^31 2^b <= 2^63,
    fits int64; no temporary has e's size."""
    bits = 32 - f.shape[1].bit_length()
    ends = np.cumsum(counts).tolist()
    out = np.zeros(ends[-1], dtype=np.int64)
    limb = np.empty_like(out)
    for shift in range(30 // bits * bits, -1, -bits):
        part = f >> shift & (1 << bits) - 1
        for j, (end, count) in enumerate(zip(ends, counts)):
            np.matmul(e[:count], part[j], out=limb[end - count : end])
        out <<= bits  # below 2^(31 + b) <= 2^62
        out += limb % p
        out %= p
    return out


def _multidegrees(k: int, max_degree: int) -> List[Tuple[int, ...]]:
    """The multidegrees of k grades of total at most max_degree, by total degree and
    lexicographically within one."""
    by_total = [[(s,)] for s in range(max_degree + 1)] if k else [[()]]
    for _ in range(k - 1):
        by_total = [
            [(a, *rest) for a in range(s + 1) for rest in by_total[s - a]]
            for s in range(max_degree + 1)
        ]
    return list(itertools.chain.from_iterable(by_total))


def _dimensions(
    grades: Sequence[Sequence[Weight]],
    max_degree: int,
    memory_budget: Optional[int],
) -> Dict[Tuple[int, ...], int]:
    """CT(weyl * G[delta]) for each multidegree delta of total degree at most
    max_degree, where G = prod_g prod_{w in grades[g]} (1 - t_g w)^(-1).

    With P(x) the factor of the weights with x-exponent +1, and P(1/x) that
    of those with -1, CT_x[(1 - 1/x) P(x) P(1/x)] =
    sum_a P_a P_a - sum_a P_(a+1) P_a, where P_a, the x^a coefficient, has
    total degree a.  A grade without x-exponent +1 weights, one of
    _free_of_p, has no x-exponent -1 weight either, so its factor F is free
    of x and G = E F at every point: E, the pairing times the other grades'
    x-exponent 0 weights, is held on the multidegrees of total at most
    max_degree in those other grades, by total degree, P on E's prefix of
    total at most (max_degree + 1) // 2, and F on the free grades'
    multidegrees.  The rest has (y, z)-exponents in [-max_degree - 2,
    max_degree], so its average over the grid of M-th roots of unity in
    F_p, M = max_degree + 3, is its constant term mod p, and enough primes
    fix it by the Chinese remainder theorem, one prime per pass.  Apart
    from the Weyl factor, that rest is invariant under A2_MAPS, so it is
    evaluated at one point per orbit of _orbits, a column per orbit, and
    each residue is sum_orbits weyl E[delta_E] F[delta_F] over E's prefix
    of total at most max_degree - |delta_F|.  Unchecked: every weight
    exponent is in {-1, 0, 1}, A2_MAPS fixes each grade's weights with
    each x-exponent, and in each grade the weights with x-exponent -1 have
    the (y, z) parts, with multiplicity, of those with +1.  Raises
    MemoryBudgetError, before allocating, if the estimated bytes held
    exceed the budget.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    k, m = len(grades), max_degree + 3
    estimate = functools.partial(_estimated_bytes, grades)
    _check_budget(f"max degree {max_degree}", max_degree, memory_budget, estimate)
    reps, perm, starts = _orbits(m)
    rep_y, rep_z = np.divmod(reps, m)
    # the exponent of omega in each distinct (y, z) part of a weight at the orbit representatives
    parts = list(dict.fromkeys(w[1:] for ws in grades for w in ws))
    exponents = np.array([(y * rep_y + z * rep_z) % m for y, z in parts], dtype=np.int64)
    del rep_y, rep_z
    free = _free_of_p(grades)
    keys = _multidegrees(k, max_degree)
    degrees = np.array(keys, dtype=np.int64).reshape(len(keys), k)
    # E's multidegrees are 0 in the free grades and F's in the others, each by total degree; they
    # meet only at 0, row 0 of both, so one lookup over the cube [0, max_degree]^k finds either
    strides = (max_degree + 1) ** np.arange(k - 1, -1, -1)
    cube = degrees @ strides
    row = np.zeros((max_degree + 1) ** k, dtype=np.int64)  # by index in the cube
    up = [g for g in range(k) if g not in free]
    e_deg, f_deg = (degrees[~degrees[:, other].any(axis=1)] for other in (free, up))
    for part in (e_deg, f_deg):
        row[part @ strides] = np.arange(len(part))
    e_tot, f_tot = e_deg.sum(axis=1), f_deg.sum(axis=1)
    p_rows = int(np.searchsorted(e_tot, (max_degree + 1) // 2, side="right"))

    def runs(part: np.ndarray, rows: int, side: List[int], s: int) -> List[tuple]:
        """(parts last first, steps) of the weights with x-exponent s of each grade of side, on
        the first rows rows of part."""
        found = []
        for g in side:
            ws = [parts.index(w[1:]) for w in grades[g] if w[0] == s]
            if ws:
                # where the degree is 0 the source wraps around, unread
                source = row[part[:rows] @ strides - strides[g]]
                found.append((ws[::-1], _steps(part[:rows, g], source, len(ws))))
        return found

    p_runs, e_runs = runs(e_deg, p_rows, up, 1), runs(e_deg, len(e_deg), up, 0)
    f_runs = runs(f_deg, len(f_deg), free, 0)
    # E's rows of total s - 1, sign -1, and s, sign +1, in range of P's row of total s
    half = e_tot[:p_rows]
    first = np.searchsorted(e_tot, half - 1)
    middle = np.searchsorted(e_tot, half)
    last = np.searchsorted(e_tot, np.minimum(half, max_degree - half), side="right")
    pairs = []  # (P row, the P rows it pairs with, how many with sign -1, their rows of E)
    for a, (lo, mid, hi) in enumerate(zip(first.tolist(), middle.tolist(), last.tolist())):
        targets = row[(e_deg[lo:hi] + e_deg[a]) @ strides]
        pairs.append((a, slice(lo, hi), mid - lo, targets))
    # F's row j meets E's prefix of total at most max_degree - |F_j|: the residues go by F's
    # row, then E's, and position finds each multidegree's
    counts = np.searchsorted(e_tot, max_degree - f_tot, side="right")
    f_cube = degrees[:, free] @ strides[free]
    position = (np.cumsum(counts) - counts)[row[f_cube]] + row[cube - f_cube]
    counts = counts.tolist()
    del row, degrees, cube, f_cube, e_deg, f_deg  # before the passes allocate their rows
    values, modulus = [0] * len(keys), 1
    px = np.empty((p_rows, len(reps)), dtype=np.int64)
    e = np.empty((len(e_tot), len(reps)), dtype=np.int64)
    f = np.empty((len(f_tot), len(reps)), dtype=np.int64)
    for q, omega in _crt_primes(sum(map(len, grades)), max_degree):
        powers = np.array([pow(omega, a, q) for a in range(m)], dtype=np.int64)
        at = powers[exponents]  # each part's values at the orbits
        px.fill(0)
        px[0] = 1
        _divide(px, ((at[ws], steps) for ws, steps in p_runs), q)
        e.fill(0)
        # within one P row the targets are distinct, so each pairing is one update; a
        # term is below 2^31 in size and a row takes fewer than 2^32 of them
        for a, betas, negative, targets in pairs:
            block = px[betas] * px[a]
            block %= q
            block[:negative] *= -1
            e[targets] += block
        e %= q
        _divide(e, ((at[ws], steps) for ws, steps in e_runs), q)
        f.fill(0)
        f[0] = 1
        _divide(f, ((at[ws], steps) for ws, steps in f_runs), q)
        # the orbits' Weyl sums over the M^2 points of the grid
        f *= _weyl_sums(powers, perm, starts, q) * pow(m * m, -1, q) % q
        f %= q
        inverse = pow(modulus, -1, q)
        ordered = _contract(e, f, counts, q)[position].tolist()
        values = [v + (r - v) * inverse % q * modulus for v, r in zip(values, ordered)]
        modulus *= q
    return {d: v - modulus if 2 * v > modulus else v for d, v in zip(keys, values)}


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


def _s3_orbit_count(m: int) -> int:
    """The number of orbits of S3 on the M x M grid of _s3_orbits, by Burnside's
    lemma: the identity fixes M^2 points, each transposition the M points of
    a line, and each 3-cycle, (i, j) -> (j, -i - j), the gcd(3, M) points
    with i = j and 3i = 0."""
    return (m * m + 3 * m + 2 * math.gcd(3, m)) // 6


def _s3_orbits(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """(reps, inverse) for the orbits of the Weyl group S3 of SU(3) on the M x M grid.

    An SU(3) torus element with eigenvalues omega^a, omega^b, omega^c has
    y = omega^(a - b) and z = omega^(b - c), so it is grid point i*M + j
    with (i, j) = (a - b, b - c) mod M.  S3 permutes the eigenvalues; the
    transpositions of a, b and of b, c send (i, j) to (-i, i + j) and to
    (i + j, -j), and they generate it.  Each pass replaces a point's label
    by the least label of it and its two images, so after as many passes
    as a word of S3 is long, three, each point carries the least index of
    its orbit.  reps lists those indices ascending, the points that carry
    their own index, and inverse[point] is the position of its orbit in reps.
    """
    i, j = np.divmod(np.arange(m * m), m)
    images = [(-i % m) * m + (i + j) % m, (i + j) % m * m + (-j % m)]
    del i, j
    label = np.arange(m * m)
    for _ in range(3):
        label = np.minimum(label, np.minimum(label[images[0]], label[images[1]]))
    reps = np.flatnonzero(label == np.arange(m * m))
    position = np.zeros(m * m, dtype=np.int64)
    position[reps] = np.arange(len(reps))
    return reps, position[label]


def _quadrature_bytes(max_degree: int) -> int:
    """Bytes the quadrature holds at its peak, estimated before allocating; never less at a
    higher degree.

    With n the number of S3 orbits on the M^2 grid, M = max_degree + 3, and s = M // 2 x
    values, a block of c orbits holds h_0..h_max_degree, (max_degree + 1) s c int64; while it
    divides, a weight and a product, s c int64 each, or before its repeat the base, whose
    (max_degree + 1) c is less as 2 s > max_degree + 1; and the running sums over the orbits,
    with at the end of the block its own, (max_degree + 1) s int64 each.  That is at most
    (8 (max_degree + 3) c + 16 (max_degree + 1)) s bytes, so never more than B s, B the bytes
    per x value at c = n.  From max degree 1 on, a block whose h fits in BLOCK_BYTES, as it
    does unless the block is one orbit, holds the rest in 2 BLOCK_BYTES: the weight and the
    product in 2 / (max_degree + 1) of h, beside the running sums, and each sum in h / c.
    One orbit whose h does not fit holds under B, as n > 3 s from M = 6 on.  So the estimate
    takes B s, or, if less, the larger of 3 BLOCK_BYTES and B.  Labelling the orbits, the
    Weyl factor on the grid and their temporaries hold at most sixteen int64 per point of
    the M^2 grid, more than the orbit tables and the seven (y, z) parts of the weights that
    stay; numpy's buffers and the small tables take under 128 KiB.
    """
    d, m = max_degree, max_degree + 3
    block = 8 * (d + 3) * _s3_orbit_count(m) + 16 * (d + 1)  # bytes per x value
    return min(block * (m // 2), max(3 * BLOCK_BYTES, block)) + 128 * m * m + (1 << 17)


def quadrature_grid(max_degree: int) -> Tuple[int, int, int]:
    """(M, p, omega) of quadrature_coefficients: the grid size M = max_degree
    + 3, the exactness bound; the prime p = 1 mod M its residues are taken
    mod, the first of _grid_primes(M), which _crt_primes skips; and an
    element of order M mod p.  Raises ValueError for a negative degree or a
    grid with no such p < 2^31.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    m = max_degree + 3
    found = next(_grid_primes(m), None)
    if found is None:
        raise ValueError(f"no prime below 2^31 is 1 mod the grid size {m}")
    return (m, *found)


def _slice_sums(max_degree: int, p: int, omega: int, exponents: np.ndarray) -> np.ndarray:
    """For each a in exponents, a row of the sums over the M x M grid of (y, z), M = max_degree +
    3, of (1 - 1/y)(1 - 1/z)(1 - 1/(yz)) h_d(omega^a, y, z) mod p, d = 0..max_degree.  h_d is a
    character, so S3 fixes it: it is evaluated at one point per orbit of _s3_orbits, and
    each orbit weighs its sum of the Weyl part.  A block of orbits at a time, at every x slice,
    dividing 1 by (1 - t w) for each of the 35 weights, h_d += w h_(d-1) for increasing d,
    builds h_0..h_max_degree at the block's points.  The 17 weights with x-exponent 0 give the
    same values on every x slice, so they divide one slice, which is then repeated to all."""
    m = max_degree + 3
    # the grid first, so that a grid too large to hold fails before the rest
    reps, inverse = _s3_orbits(m)
    powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)
    i, j = np.divmod(np.arange(m * m), m)
    weyl = (1 - powers[-i % m]) * (1 - powers[-j % m]) % p * (1 - powers[-(i + j) % m]) % p
    orbit_weyl = np.zeros(len(reps), dtype=np.int64)
    np.add.at(orbit_weyl, inverse, weyl)  # six values below 2^31 at most
    orbit_weyl %= p
    del i, j, weyl, inverse
    i, j = np.divmod(reps, m)
    parts = dict.fromkeys(u[1:] for u in WEIGHTS)  # the seven distinct (y, z) parts
    yz = {(ey, ez): powers[(ey * i + ez * j) % m] for ey, ez in parts}
    size = max(1, BLOCK_BYTES // (8 * (max_degree + 1) * len(exponents)))

    def divide(h: np.ndarray, w: np.ndarray) -> None:
        """h_d += w h_(d-1) mod p in place, for increasing d."""
        product = np.empty_like(h[0])
        for d in range(1, max_degree + 1):
            np.multiply(w, h[d - 1], out=product)
            product += h[d]
            np.remainder(product, p, out=h[d])

    out = np.zeros((len(exponents), max_degree + 1), dtype=np.int64)
    for start in range(0, len(reps), size):
        block = slice(start, start + size)
        h = np.zeros((max_degree + 1, 1, len(reps[block])), dtype=np.int64)
        h[0] = 1
        for u in WEIGHTS:
            if u[0] == 0:
                divide(h, yz[u[1:]][block])
        h = np.repeat(h, len(exponents), axis=1)
        for ex, ey, ez in WEIGHTS:
            if ex != 0:
                divide(h, powers[ex * exponents % m, None] * yz[ey, ez][block] % p)
        h *= orbit_weyl[block]
        h %= p
        # below p, plus fewer than 2^32 orbits, each below p < 2^31
        out += h.sum(axis=2).T
        out %= p
        del h  # before the next block allocates its own
    return out


def quadrature_coefficients(max_degree: int, memory_budget: Optional[int] = None) -> List[int]:
    """The series coefficients mod p, p from quadrature_grid, independent of
    the engine.  weyl_factor * h_d has exponents in [-max_degree - 2,
    max_degree], so on the grid of M = max_degree + 3 its sum over the M^3
    points of M-th roots of unity in F_p is M^3 times its constant term.
    The weights are invariant under x -> 1/x, so slice x = omega^(M - a)
    equals slice omega^a: only a = 1..M // 2 are summed, weighted by (1 -
    omega^-a) + (1 - omega^a), or by 1 - omega^-a = 2 when 2a = M (slice 0
    weighs 0).  Raises MemoryBudgetError, before allocating, over the
    budget."""
    m, p, omega = quadrature_grid(max_degree)
    what = f"quadrature at max degree {max_degree} on a grid of size {m}"
    _check_budget(what, max_degree, memory_budget, _quadrature_bytes)
    half = np.arange(1, m // 2 + 1)
    sums = _slice_sums(max_degree, p, omega, half)
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
    denominator's factors.  It reads N, D, N*, D* and the hsop degrees
    as the constants luinv.reference built at import, looked up at each
    call, and calls nothing there.  The two palindrome checks hold by
    construction while luinv.reference completes N and N* by mirroring
    their tabulated halves; they gain force once the numerators are
    derived from computed data.
    """
    if not computed:
        raise ValueError("need at least the degree-0 coefficient")
    num = reference.NUMERATOR
    den = reference.DENOMINATOR
    num_star = reference.NONNEG_NUMERATOR
    den_star = reference.NONNEG_DENOMINATOR

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
    return SeriesReport(checks, first_mismatch, gap, reference.HSOP_DEGREES)
