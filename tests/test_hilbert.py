import numpy as np
import pytest

from helpers import random_density_operator
from isonet.hilbert import (
    ATOL_PSD,
    MAX_DENSE_DIM,
    CapacityError,
    DensityOperator,
    PureStateVector,
    fidelity,
    ghz,
    ghz_basis,
    is_ppt,
    isotropic,
    max_entangled,
    partial_trace,
    partial_transpose,
)

RNG = np.random.default_rng(20260810)


def test_density_operator_invariants_enforced():
    with pytest.raises(ValueError):
        DensityOperator((2,), np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator((2,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator((2,), np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator((2, 3), np.eye(4) / 4)  # shape mismatch


def test_pure_state_invariants_enforced():
    with pytest.raises(ValueError):
        PureStateVector((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureStateVector((1,), np.array([1.0]))


def test_max_entangled_and_isotropic_limits():
    for d in (2, 3):
        phi = max_entangled(d)
        assert np.abs(isotropic(d, 1.0).matrix - phi.density().matrix).max() < 1e-15
        assert np.abs(isotropic(d, 0.0).matrix - np.eye(d * d) / d**2).max() < 1e-15
    with pytest.raises(ValueError):
        isotropic(2, 1.2)


def test_isotropic_qutrit_ppt_threshold():
    # entangled (hence NPT) exactly above visibility 1/(d+1) = 1/4
    assert is_ppt(isotropic(3, 0.20), [1])
    assert not is_ppt(isotropic(3, 0.30), [1])
    assert is_ppt(isotropic(2, 0.2), [0])


def test_ghz_basis_orthonormal_and_contains_ghz():
    for n in (2, 3, 4, 5, 6):
        assert np.allclose(ghz_basis(n, 0, 1).vector, ghz(n).vector)
        vectors = [
            ghz_basis(n, j, sign).vector
            for j in range(2 ** (n - 1))
            for sign in (1, -1)
        ]
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        assert np.abs(gram - np.eye(2**n)).max() < 1e-12
    with pytest.raises(ValueError):
        ghz_basis(3, 4, 1)
    with pytest.raises(ValueError):
        ghz_basis(3, 1, 0)


def test_tensor_and_partial_trace():
    a = random_density_operator((2,), RNG)
    b = random_density_operator((3,), RNG)
    prod = DensityOperator((2, 3), np.kron(a.matrix, b.matrix))
    assert abs(prod.matrix.trace() - 1.0) < 1e-12
    back = partial_trace(prod, [1])
    assert np.abs(back.matrix - a.matrix).max() < 1e-12
    other = partial_trace(prod, [0])
    assert np.abs(other.matrix - b.matrix).max() < 1e-12


def test_partial_trace_of_max_entangled_is_maximally_mixed():
    for d in (2, 3):
        reduced = partial_trace(max_entangled(d).density(), [1])
        assert np.abs(reduced.matrix - np.eye(d) / d).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(max_entangled(2).density(), [2])


def test_partial_transpose_involution_and_hermiticity():
    rho = random_density_operator((2, 2, 2, 2), RNG)
    for cut in ([0], [1, 3], [2]):
        pt = partial_transpose(rho, cut)
        assert np.abs(pt - pt.conj().T).max() < 1e-12
        assert abs(pt.trace() - 1.0) < 1e-12
        double = partial_transpose(DensityOperator(rho.dims, rho.matrix), cut)
        again = double.reshape(rho.dims + rho.dims)
        # applying the same transposition twice is the identity map
        k = len(rho.dims)
        axes = list(range(2 * k))
        for f in cut:
            axes[f], axes[f + k] = axes[f + k], axes[f]
        assert np.abs(again.transpose(axes).reshape(pt.shape) - rho.matrix).max() < 1e-12


def test_partial_transpose_of_product_state_stays_psd():
    a = random_density_operator((2,), RNG)
    b = random_density_operator((2,), RNG)
    pt = partial_transpose(DensityOperator((2, 2), np.kron(a.matrix, b.matrix)), [1])
    assert np.linalg.eigvalsh(pt)[0] > -ATOL_PSD


def test_partial_transpose_of_max_entangled_pair():
    pt = partial_transpose(max_entangled(2).density(), [1])
    assert abs(np.linalg.eigvalsh(pt)[0] - (-0.5)) < 1e-12
    for d in (2, 3):
        low = np.linalg.eigvalsh(partial_transpose(max_entangled(d).density(), [1]))[0]
        assert abs(low - (-1.0 / d)) < 1e-12
        assert not is_ppt(max_entangled(d).density(), [1])


def test_fidelity_examples():
    phi = max_entangled(3)
    noise = DensityOperator((3, 3), np.eye(9) / 9)
    assert abs(fidelity(phi, noise) - 1.0 / 9.0) < 1e-12
    assert abs(fidelity(phi, phi.density()) - 1.0) < 1e-12
    for p in (0.0, 0.37, 1.0):
        f = fidelity(max_entangled(2), isotropic(2, p))
        assert abs(f - (p + (1 - p) / 4)) < 1e-12
    with pytest.raises(ValueError):
        fidelity(max_entangled(2), noise)


def test_dense_cap_enforced_before_allocation(monkeypatch):
    big = ghz(13)  # the 8192-entry vector is fine, its density matrix is not
    assert big.vector.shape[0] > MAX_DENSE_DIM
    dummy = np.eye(2)

    def refuse(*args, **kwargs):
        raise AssertionError("dense allocation attempted above the cap")

    monkeypatch.setattr(np, "outer", refuse)
    monkeypatch.setattr(np, "array", refuse)
    with pytest.raises(CapacityError):
        big.density()
    with pytest.raises(CapacityError):
        DensityOperator((2,) * 13, dummy)
