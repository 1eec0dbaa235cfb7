"""Shared random-object constructors and exact references for the test suite."""

from decimal import Decimal, localcontext

import numpy as np

from isonet.hilbert import DensityOperator, PureStateVector


def random_density_operator(dims, rng) -> DensityOperator:
    total = int(np.prod(dims))
    ginibre = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    mat = ginibre @ ginibre.conj().T
    return DensityOperator(tuple(dims), mat / mat.trace())


def random_pure_state(dims, rng) -> PureStateVector:
    total = int(np.prod(dims))
    vec = rng.normal(size=total) + 1j * rng.normal(size=total)
    return PureStateVector(tuple(dims), vec / np.linalg.norm(vec))


def exact_min_eigenvalue(n: int, p: float, w: int) -> Decimal:
    """Smallest eigenvalue of the partially transposed teleported GHZ state
    across a cut of size w, in 60-digit decimal arithmetic at the exact value
    of the float p: min(mixed(w) - p^n/2, mixed(n // 2))."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact_p, one = Decimal(p), Decimal(1)

        def mixed(k):
            plus, minus = one + exact_p, one - exact_p
            return (plus ** (n - k) * minus**k + minus ** (n - k) * plus**k) / 2 ** (n + 1)

        return min(mixed(w) - exact_p**n / 2, mixed(n // 2))
