"""Dense finite-dimensional quantum states on labelled tensor factors.

Factor ordering is fixed left-to-right: factor 0 owns the most significant
block of the row index (numpy Kronecker convention).  Numerical tolerances
used throughout the package live in the constants table below.  The oracles
in isonet.verification build these states; the pipeline reads only a
caller-supplied PureStateVector target, so only `verify` loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Tolerance constants (single source of truth).
ATOL_INVARIANT = 1e-12  # Hermiticity, unit trace, unit norm
ATOL_PSD = 1e-10  # positive-semidefiniteness and PPT checks
MAX_DENSE_DIM = 4096  # dense-operator capacity cap (12 qubits)


class CapacityError(ValueError):
    """Requested dense object exceeds the desk-scale capacity cap."""


def _require_capacity(total: int):
    """Refuse a dense operator of dimension total before anything is allocated."""
    if total > MAX_DENSE_DIM:
        raise CapacityError(f"dense operator of dimension {total} exceeds {MAX_DENSE_DIM}")


def _require_psd(matrix: np.ndarray):
    smallest = np.linalg.eigvalsh(matrix)[0]
    if smallest < -ATOL_PSD:
        raise ValueError(f"matrix is not PSD: min eigenvalue {smallest:.3e}")


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError("every tensor factor needs dimension >= 2")
    return dims


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD trace-one matrix on an ordered list of tensor factors."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        total = int(np.prod(dims))
        _require_capacity(total)
        mat = np.array(self.matrix, dtype=complex)  # private copy, frozen below
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if np.abs(mat - mat.conj().T).max() > ATOL_INVARIANT:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(mat.trace() - 1.0) > ATOL_INVARIANT:
            raise ValueError(f"trace is {mat.trace():.15f}, expected 1")
        _require_psd(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def total_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureStateVector:
    """Unit-norm complex vector on an ordered list of tensor factors."""

    dims: tuple[int, ...]
    vector: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        vec = np.array(self.vector, dtype=complex).reshape(-1)
        if vec.shape[0] != int(np.prod(dims)):
            raise ValueError(f"vector length {vec.shape[0]} does not match dims {dims}")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_INVARIANT:
            raise ValueError(f"vector norm is {norm:.15f}, expected 1")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def density(self) -> DensityOperator:
        _require_capacity(self.vector.shape[0])
        return DensityOperator(self.dims, np.outer(self.vector, self.vector.conj()))


def max_entangled(d: int) -> PureStateVector:
    """The maximally entangled pair state on two d-dimensional factors."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return PureStateVector((d, d), vec)


def isotropic(d: int, p: float) -> DensityOperator:
    """Mixture of the maximally entangled pair with white noise at visibility p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    phi = max_entangled(d).density().matrix
    mat = p * phi + (1.0 - p) / (d * d) * np.eye(d * d)
    return DensityOperator((d, d), mat)


def ghz(n: int) -> PureStateVector:
    """The n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = np.sqrt(0.5)
    return PureStateVector((2,) * n, vec)


def ghz_basis(n: int, j: int, sign: int) -> PureStateVector:
    """Member of the GHZ-type orthonormal basis of n qubits.

    For 0 <= j < 2^(n-1) with most-significant-first bits j_1 ... j_{n-1}
    (the last qubit carries an implicit 0 bit), the vector is
    (|j_1 ... j_{n-1} 0> +/- |negated bits, 1>)/sqrt(2).  ghz_basis(n, 0, +1)
    is the GHZ state itself.
    """
    if n < 2:
        raise ValueError("basis needs at least 2 qubits")
    if not 0 <= j < 2 ** (n - 1):
        raise ValueError(f"index {j} outside [0, {2 ** (n - 1)})")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    total = 2**n
    vec = np.zeros(total, dtype=complex)
    a = 2 * j  # bits j_1 ... j_{n-1} followed by 0
    b = total - 1 - a  # all bits negated; always distinct from a
    vec[a] = np.sqrt(0.5)
    vec[b] = sign * np.sqrt(0.5)
    return PureStateVector((2,) * n, vec)


def _check_factors(dims: tuple[int, ...], factors: Iterable[int]) -> tuple[int, ...]:
    factors = tuple(sorted(set(int(f) for f in factors)))
    for f in factors:
        if not 0 <= f < len(dims):
            raise ValueError(f"factor index {f} outside range [0, {len(dims)})")
    return factors


def partial_trace(rho: DensityOperator, factors: Iterable[int]) -> DensityOperator:
    """Trace out the named factors, keeping the order of the rest."""
    traced = _check_factors(rho.dims, factors)
    if len(traced) == len(rho.dims):
        raise ValueError("cannot trace out every factor")
    dims = rho.dims
    tensor_form = rho.matrix.reshape(dims + dims)
    remaining = len(dims)
    for f in sorted(traced, reverse=True):
        tensor_form = np.trace(tensor_form, axis1=f, axis2=f + remaining)
        remaining -= 1
    kept = tuple(d for i, d in enumerate(dims) if i not in traced)
    total = int(np.prod(kept))
    return DensityOperator(kept, tensor_form.reshape(total, total))


def partial_transpose(rho: DensityOperator, factors: Iterable[int]) -> np.ndarray:
    """Transpose the named factors; Hermitian and trace-one but maybe not PSD."""
    transposed = _check_factors(rho.dims, factors)
    dims = rho.dims
    k = len(dims)
    tensor_form = rho.matrix.reshape(dims + dims)
    axes = list(range(2 * k))
    for f in transposed:
        axes[f], axes[f + k] = axes[f + k], axes[f]
    total = rho.total_dim
    return tensor_form.transpose(axes).reshape(total, total)


def is_ppt(rho: DensityOperator, factors: Iterable[int]) -> bool:
    """True when the partial transpose over the factor subset stays PSD
    within ATOL_PSD."""
    smallest = np.linalg.eigvalsh(partial_transpose(rho, factors))[0]
    return bool(smallest >= -ATOL_PSD)


def fidelity(target: PureStateVector, state: DensityOperator) -> float:
    """Fidelity <psi|rho|psi> of a state with a pure target psi."""
    if int(np.prod(target.dims)) != state.total_dim:
        raise ValueError("dimension mismatch")
    value = np.vdot(target.vector, state.matrix @ target.vector).real
    return float(min(1.0, max(0.0, value)))
