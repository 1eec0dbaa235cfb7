"""Noisy teleportation channels, in matrix form and closed form.

Teleporting a state through an isotropic resource of visibility p applies
the depolarizing-style map  rho -> p*rho + (1-p)*tr(rho)*I/d  to the
teleported share.  The module provides that channel on arbitrary factors,
the visibility law for teleportation chains, and the closed form of the
n-qubit GHZ state after every share went through one such channel.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

    from .hilbert import DensityOperator


def apply_noisy_teleport(rho: DensityOperator, p: float, factor: int) -> DensityOperator:
    """Send one tensor factor through the noisy teleportation channel.

    Basis action on the chosen factor: |i><j| -> p|i><j| + (1-p) d_ij I/d.
    """
    import numpy as np

    from .hilbert import DensityOperator, partial_trace

    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if not 0 <= factor < len(rho.dims):
        raise ValueError(f"factor {factor} outside range [0, {len(rho.dims)})")
    if p == 1.0:
        return rho
    d = rho.dims[factor]
    if len(rho.dims) == 1:
        mixed = rho.matrix.trace() * np.eye(d) / d
        return DensityOperator(rho.dims, p * rho.matrix + (1.0 - p) * mixed)
    rest = partial_trace(rho, [factor])
    # rebuild tr_f(rho) (x) I/d with the identity back at position `factor`
    dims_shuffled = rest.dims + (d,)
    k = len(dims_shuffled)
    product = np.kron(rest.matrix, np.eye(d) / d).reshape(dims_shuffled + dims_shuffled)
    order = list(range(k - 1))
    order.insert(factor, k - 1)
    axes = order + [a + k for a in order]
    mixed = product.transpose(axes).reshape(rho.total_dim, rho.total_dim)
    return DensityOperator(rho.dims, p * rho.matrix + (1.0 - p) * mixed)


def _saturating_pow2(exponent: float) -> float:
    """2.0 ** exponent, or inf where that leaves the float range (exponent
    above ~1024); visibilities p ** inf then read 0 below p = 1 and 1 at it."""
    try:
        return 2.0 ** exponent
    except OverflowError:
        return math.inf


def path_teleport_visibility(p: float, length: float) -> float:
    """End-to-end visibility p^(2^(length-1)) of teleportation along a path.

    Each additional hop teleports the accumulated pair through a resource
    downgraded to its current visibility, squaring it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if length < 1:
        raise ValueError("path length must be at least 1")
    return float(p) ** _saturating_pow2(length - 1)


def star_teleport(rho: DensityOperator, p: float) -> DensityOperator:
    """Send every factor through the noisy teleportation channel independently."""
    d = rho.dims[0]
    if any(dim != d for dim in rho.dims):
        raise ValueError(f"all factors must share one local dimension, got {rho.dims}")
    for factor in range(len(rho.dims)):
        rho = apply_noisy_teleport(rho, p, factor)
    return rho


def _component_diagonal(n: int, noisy_set: frozenset) -> np.ndarray:
    import numpy as np

    clean_mask = 0
    for position in range(n):
        if position not in noisy_set:
            clean_mask |= 1 << (n - 1 - position)
    k = len(noisy_set)
    indices = np.arange(2**n)
    diag = np.zeros(2**n)
    diag[(indices & clean_mask) == 0] += 0.5 / 2**k
    diag[(indices & clean_mask) == clean_mask] += 0.5 / 2**k
    return diag


def depolarized_ghz_component(n: int, noisy: Iterable[int]) -> DensityOperator:
    """GHZ correlations on the clean qubits, white noise on the rest.

    The noisy subset C (0-based qubit positions, nonempty and proper) is
    fully depolarized while the remaining qubits keep the classical GHZ
    mixture: (1/2)(|0..0><0..0| + |1..1><1..1|) (x) I_C / 2^|C|, with every
    factor at its original position.  The result is diagonal.
    """
    import numpy as np

    from .hilbert import DensityOperator

    noisy_set = frozenset(int(c) for c in noisy)
    if any(not 0 <= c < n for c in noisy_set):
        raise ValueError(f"noisy subset {sorted(noisy_set)} outside range [0, {n})")
    if not noisy_set or len(noisy_set) == n:
        raise ValueError("noisy subset must be nonempty and proper")
    return DensityOperator((2,) * n, np.diag(_component_diagonal(n, noisy_set).astype(complex)))


def teleported_ghz_closed_form(n: int, p: float) -> DensityOperator:
    """The n-qubit GHZ state after every share went through the channel.

    Assembles p^n * GHZ  +  sum over k and noisy subsets C of
    p^(n-k) (1-p)^k * (depolarized component for C)  +  (1-p)^n * I/2^n.
    Subsets are accumulated in lexicographic order for reproducible sums.
    """
    import numpy as np

    from .hilbert import DensityOperator, _require_capacity, ghz

    if n < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    total = 2**n
    _require_capacity(total)
    diag = np.zeros(total)
    for k in range(1, n):
        weight = p ** (n - k) * (1.0 - p) ** k
        if weight == 0.0:
            continue
        for subset in combinations(range(n), k):
            diag += weight * _component_diagonal(n, frozenset(subset))
    diag += (1.0 - p) ** n / total
    matrix = np.diag(diag.astype(complex))
    matrix += p**n * ghz(n).density().matrix
    return DensityOperator((2,) * n, matrix)
