"""Closed-form spectrum of the partially transposed teleported GHZ state.

The GHZ-type basis vectors (see hilbert.ghz_basis) diagonalize the partial
transpose of the teleported GHZ state across any bipartition.  The state is
permutation invariant, so every quantity here depends on the bipartition
only through its cut size w, the number of qubits on one side; exponentials
are evaluated in log space so that large qubit counts neither overflow nor
underflow.  The full eigenvalue table, indexed by basis integer and sign,
is the oracle in isonet.verification.
"""

from __future__ import annotations

import math
from typing import Callable

_LOG2 = math.log(2.0)
_numpy = None  # numpy once _mixed_term has needed it; no other command loads it


def _import_numpy():
    global _numpy
    import numpy

    _numpy = numpy
    return numpy


def _check_cut(n: int, w: int):
    if not 1 <= w < n:
        raise ValueError(f"cut size {w} outside [1, {n}): a cut needs qubits on both sides")


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


def min_eigenvalue_teleported_ghz(n: int, p: float, w: int) -> float:
    """Smallest eigenvalue across a cut of w qubits, in constant time.

    The eigenvalues are mixed(k) on the basis vectors (j, +-), k the Hamming
    weight of j, except at the one j = r whose bits flag the cut: there they
    are mixed(w) +- p^n/2.

    In k the mixed term is a sum of two exponentials, a^(n-k) b^k and
    b^(n-k) a^k with a = 1+p and b = 1-p, so it is convex; it is also
    symmetric under k -> n-k, so over the weights 0..n-1 its minimum sits at
    n // 2.  Every eigenvalue other than (r, -) is a mixed term, plus p^n/2
    for (r, +), hence at or above that minimum; only (r, -) =
    mixed(w) - p^n/2 can fall below it.  Whether any j other than r has
    weight n // 2 never matters: if none does, then w = n // 2 and
    mixed(w) - p^n/2 <= mixed(n // 2) already.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"visibility {p} outside (0, 1]")
    _check_cut(n, w)
    return min(_mixed_term(n, p, w) - p**n / 2, _mixed_term(n, p, n // 2))


def min_eigenvalue_log(n: int, p: float, w: int) -> tuple[int, float]:
    """Sign and natural logarithm of the smallest eigenvalue's magnitude.

    The two candidates of min_eigenvalue_teleported_ghz kept in log space,
    for qubit counts at which the float minimum underflows to 0: (r, -) =
    mixed(w) - p^n/2 as a difference of two exponentials, and
    mixed(n // 2).  An exact zero gives (0, -inf).  Needs 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"visibility {p} outside (0, 1)")
    _check_cut(n, w)
    mixed = _log_mixed_term(n, p, w)
    shift = n * math.log(p) - _LOG2
    if mixed == shift:
        return 0, -math.inf
    high, low = (mixed, shift) if mixed > shift else (shift, mixed)
    log_critical = high + math.log1p(-math.exp(low - high))
    if mixed < shift:
        return -1, log_critical
    return 1, min(log_critical, _log_mixed_term(n, p, n // 2))


def is_ppt_teleported_ghz(n: int, p: float, w: int) -> bool:
    """PPT test for the teleported GHZ state across a cut of w qubits.

    Only the (r, -) eigenvalue can be negative, and its sign is decided by a
    two-term log-space comparison.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"visibility {p} outside (0, 1]")
    _check_cut(n, w)
    if p == 1.0:
        return False  # eigenvalue -1/2: the perfect GHZ state is NPT
    return _ppt_sign_test(p, w)(n)


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
