"""Closed-form spectrum of the partially transposed teleported GHZ state.

The GHZ-type basis vectors (see hilbert.ghz_basis) diagonalize the partial
transpose of the teleported GHZ state across any bipartition.  Everything
here is indexed by the basis integer j, its Hamming weight, and the integer
r encoding the bipartition; exponentials are evaluated in log space so that
large qubit counts neither overflow nor underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

_LOG2 = math.log(2.0)
_numpy = None  # numpy once _mixed_term has needed it; no other command loads it


def _import_numpy():
    global _numpy
    import numpy

    _numpy = numpy
    return numpy


def normalize_bipartition(n: int, parties: Iterable[int]) -> frozenset:
    """Canonical form of a bipartition subset: the last qubit stays outside.

    The teleported GHZ state is permutation invariant, so when the caller's
    subset contains qubit n-1 it is relabelled by swapping n-1 with the
    smallest qubit outside the subset; the spectrum is unchanged.
    """
    subset = frozenset(int(q) for q in parties)
    if any(not 0 <= q < n for q in subset):
        raise ValueError(f"bipartition {sorted(subset)} outside qubit range [0, {n})")
    if not subset or len(subset) == n:
        raise ValueError("bipartition must be a nonempty proper subset")
    if n - 1 in subset:
        swap = min(set(range(n)) - subset)
        subset = (subset - {n - 1}) | {swap}
    return subset


def bipartition_r_index(n: int, parties: frozenset) -> int:
    """Basis integer whose bits flag the qubits inside the bipartition."""
    return sum(1 << (n - 2 - q) for q in parties)


@dataclass(frozen=True)
class SpectrumIndex:
    """One eigenvector label: basis integer j, sign, and the bipartition."""

    n: int
    j: int
    sign: int
    parties: frozenset

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 qubits")
        if not 0 <= self.j < 2 ** (self.n - 1):
            raise ValueError(f"index {self.j} outside [0, {2 ** (self.n - 1)})")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "parties", normalize_bipartition(self.n, self.parties))

    @property
    def hamming_weight(self) -> int:
        return self.j.bit_count()

    @property
    def r(self) -> int:
        return bipartition_r_index(self.n, self.parties)


def noise_overlap_closed(n: int, p: float, j: int) -> float:
    """Closed form of the noise-component overlap on basis vector j.

    This is the expectation, on the j-th GHZ-type basis vector, of the sum of
    all partially depolarized components of the teleported GHZ state; it
    depends on j only through its Hamming weight w: the mixed term at w, less
    the fully depolarized component and, for j = 0, the noiseless GHZ weight.
    """
    _check_overlap_args(n, p, j)
    noiseless = p**n / 2 if j == 0 else 0.0
    return _mixed_term(n, p, j.bit_count()) - ((1 - p) / 2) ** n - noiseless


def noise_overlap_direct(n: int, p: float, j: int) -> float:
    """Counting-form oracle for noise_overlap_closed.

    Sums p^(n-k) ((1-p)/2)^k over the noisy-subset sizes k, weighted by the
    number of subsets whose complement sees constant bits of j: subsets
    containing all one-bits plus subsets containing all zero-bits.
    """
    _check_overlap_args(n, p, j)
    w = j.bit_count()  # the implicit last bit of j is 0
    total = 0.0
    for k in range(1, n):
        ones = math.comb(n - w, k - w) if k >= w else 0
        zeros = math.comb(w, k - (n - w)) if k >= n - w else 0
        total += (ones + zeros) * p ** (n - k) * ((1 - p) / 2) ** k
    return 0.5 * total


def _check_overlap_args(n: int, p: float, j: int):
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if not 0 <= j < 2 ** (n - 1):
        raise ValueError(f"index {j} outside [0, {2 ** (n - 1)})")


def _mixed_term(n: int, p: float, w: int) -> float:
    """[(1+p)^(n-w)(1-p)^w + (1-p)^(n-w)(1+p)^w] / 2^(n+1), in log space."""
    if p == 1.0:
        return 0.5 if w == 0 else 0.0
    # np.exp, not math.exp: numpy's SIMD exp can differ from libm's in the
    # last ulp, and the printed min_eigenvalue digits come from this value
    return float((_numpy or _import_numpy()).exp(_log_mixed_term(n, p, w)))


def _log_mixed_term(n: int, p: float, w: int) -> float:
    """Natural logarithm of the mixed term; needs 0 <= p < 1."""
    log_plus = math.log1p(p)
    log_minus = math.log1p(-p)
    first = (n - w) * log_plus + w * log_minus - (n + 1) * _LOG2
    second = (n - w) * log_minus + w * log_plus - (n + 1) * _LOG2
    return _logaddexp(first, second)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) by numpy's own formula, so it equals np.logaddexp."""
    if x == y:
        return x + _LOG2
    high, low = (x, y) if x > y else (y, x)
    return high + math.log1p(math.exp(low - high))


def partial_transpose_eigenvalue(idx: SpectrumIndex, p: float) -> float:
    """Eigenvalue of the partially transposed teleported GHZ state.

    Value on the (j, sign) basis vector:
    sign * d_{jr} * p^n/2 + [(1+p)^(n-w)(1-p)^w + (1-p)^(n-w)(1+p)^w]/2^(n+1)
    with w the Hamming weight of j.  Only (j=r, sign=-1) can be negative.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"visibility {p} outside (0, 1]; use the dense path for p=0")
    value = _mixed_term(idx.n, p, idx.hamming_weight)
    if idx.j == idx.r:
        value += idx.sign * p**idx.n / 2.0
    return value


def min_eigenvalue_teleported_ghz(n: int, p: float, parties: Iterable[int]) -> float:
    """Smallest eigenvalue across the whole spectrum, in constant time.

    In w the mixed term is a sum of two exponentials, a^(n-w) b^w and
    b^(n-w) a^w with a = 1+p and b = 1-p, so it is convex; it is also
    symmetric under w -> n-w, so over the weights 0..n-1 its minimum sits at
    n // 2.  Every eigenvalue other than (r, -) is a mixed term, plus p^n/2
    for (r, +), hence at or above that minimum; only (r, -) =
    mixed(w_r) - p^n/2 can fall below it.  Whether any j other than r has
    weight n // 2 never matters: if none does, then w_r = n // 2 and
    mixed(w_r) - p^n/2 <= mixed(n // 2) already.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"visibility {p} outside (0, 1]")
    w_r = len(normalize_bipartition(n, parties))
    return min(_mixed_term(n, p, w_r) - p**n / 2, _mixed_term(n, p, n // 2))


def min_eigenvalue_log(n: int, p: float, parties: Iterable[int]) -> tuple[int, float]:
    """Sign and natural logarithm of the smallest eigenvalue's magnitude.

    The two candidates of min_eigenvalue_teleported_ghz kept in log space,
    for qubit counts at which the float minimum underflows to 0: (r, -) =
    mixed(w_r) - p^n/2 as a difference of two exponentials, and
    mixed(n // 2).  An exact zero gives (0, -inf).  Needs 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"visibility {p} outside (0, 1)")
    mixed = _log_mixed_term(n, p, len(normalize_bipartition(n, parties)))
    shift = n * math.log(p) - _LOG2
    if mixed == shift:
        return 0, -math.inf
    high, low = (mixed, shift) if mixed > shift else (shift, mixed)
    log_critical = high + math.log1p(-math.exp(low - high))
    if mixed < shift:
        return -1, log_critical
    return 1, min(log_critical, _log_mixed_term(n, p, n // 2))


def is_ppt_teleported_ghz(n: int, p: float, parties: Iterable[int]) -> bool:
    """PPT test for the teleported GHZ state across the given bipartition.

    Only the (r, -) eigenvalue can be negative, and its sign is decided by a
    two-term log-space comparison.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"visibility {p} outside (0, 1]")
    subset = normalize_bipartition(n, parties)
    if p == 1.0:
        return False  # eigenvalue -1/2: the perfect GHZ state is NPT
    return _ppt_sign_test(p, len(subset))(n)


def _ppt_sign_test(p: float, w: int) -> Callable[[int], bool]:
    """Sign test of the (r, -) eigenvalue for a cut of size w, as a function of n.

    The eigenvalue is nonnegative exactly when
    ((1+p)/2p)^n ((1-p)/(1+p))^w + ((1-p)/2p)^n ((1+p)/(1-p))^w >= 1;
    both exponents are affine in n, so their logarithms are taken once per
    (p, w) and each n costs two multiply-adds and one log-add-exp.  Needs
    0 < p < 1.
    """
    a_slope = math.log((1 + p) / (2 * p))
    a_shift = w * math.log((1 - p) / (1 + p))
    b_slope = math.log((1 - p) / (2 * p))
    b_shift = w * math.log((1 + p) / (1 - p))

    def nonnegative(n: int) -> bool:
        return _logaddexp(n * a_slope + a_shift, n * b_slope + b_shift) >= 0.0

    return nonnegative


def ppt_crossover(p: float, w: int) -> int:
    """Smallest qubit count at which the teleported GHZ state turns PPT.

    For a bipartition of fixed size w and visibility p < 1, returns the
    first n >= w+1 whose critical eigenvalue is nonnegative, by an
    unbounded search on the one sign test (Bentley & Yao 1976).

    The (r, -) eigenvalue is nonnegative exactly when
    f(n) = e^(a n + alpha) + e^(b n + beta) >= 1 (see _ppt_sign_test).  As a
    sum of two exponentials of affine functions, f is convex in n, so
    {n : f(n) < 1} is an interval; a = log((1+p)/2p) > 0 for p < 1, so f
    grows without bound and that interval ends.  Hence, if the test fails at
    w+1, it fails on every n from w+1 to n0-1 and passes from n0 on.  The
    search tries w+1, then gallops over w+1+1, w+1+2, w+1+4, ... until the
    test passes, and bisects between the last failing and the first passing
    n.  With K = ceil(log2(n0-w-1)), it takes 1 + (K+1) + (K-1) = 2K+1
    evaluations when n0 > w+2 (one or two otherwise): about
    2 log2(n0-w) + 1, e.g. 73 for n0(0.999999999, 1) = 42,832,822,558.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"visibility {p} outside (0, 1); the crossover needs p < 1")
    if w < 1:
        raise ValueError("bipartition size must be at least 1")
    nonnegative = _ppt_sign_test(p, w)
    start = w + 1
    if nonnegative(start):
        return start
    failing, step = start, 1
    while not nonnegative(start + step):
        failing = start + step
        step *= 2
    passing = start + step
    # invariant: the test fails at `failing` and passes at `passing`
    while passing - failing > 1:
        middle = (failing + passing) // 2
        if nonnegative(middle):
            passing = middle
        else:
            failing = middle
    return passing


@dataclass(frozen=True)
class TeleportedGhzSpectrum:
    """Full eigenvalue table of the partially transposed teleported GHZ state."""

    n: int
    p: float
    parties: frozenset
    eigenvalues: dict

    def min_eigenvalue(self) -> float:
        return min(self.eigenvalues.values())


def teleported_ghz_spectrum(n: int, p: float, parties: Iterable[int]) -> TeleportedGhzSpectrum:
    """Tabulate every (j, sign) eigenvalue; the table must sum to one."""
    from .hilbert import ATOL_INVARIANT

    subset = normalize_bipartition(n, parties)
    values = {}
    for j in range(2 ** (n - 1)):
        for sign in (1, -1):
            idx = SpectrumIndex(n, j, sign, subset)
            values[(j, sign)] = partial_transpose_eigenvalue(idx, p)
    trace = math.fsum(values.values())
    if abs(trace - 1.0) > ATOL_INVARIANT:
        raise AssertionError(f"spectrum sums to {trace!r}, expected 1")
    return TeleportedGhzSpectrum(n, p, subset, values)


def spectrum_trace_by_weight(n: int, p: float) -> float:
    """Sum of all eigenvalues computed per Hamming-weight class.

    Grouping by weight keeps the check cheap for large n; the sign shifts at
    j = r cancel, so the bipartition does not enter.
    """
    return math.fsum(
        2 * math.comb(n - 1, w) * _mixed_term(n, p, w) for w in range(n)
    )
