import numpy as np
import pytest

from helpers import random_density_operator
from isonet import path_teleport_visibility
from isonet.hilbert import (
    CapacityError,
    ghz,
    ghz_basis,
    isotropic,
    max_entangled,
    partial_trace,
)
from isonet.verification import (
    apply_noisy_teleport,
    depolarized_ghz_component,
    star_teleport,
    teleported_ghz_closed_form,
)

RNG = np.random.default_rng(42)


def test_identity_at_perfect_visibility():
    rho = random_density_operator((2, 3), RNG)
    assert apply_noisy_teleport(rho, 1.0, 0) is rho


def test_channel_on_isotropic_share_squares_visibility():
    for d in (2, 3):
        for p in (0.0, 0.4, 0.9):
            out = apply_noisy_teleport(isotropic(d, p), p, 1)
            assert np.abs(out.matrix - isotropic(d, p * p).matrix).max() < 1e-13


def test_channel_is_unital():
    for d in (2, 3):
        flat = np.eye(d * d) / (d * d)
        out = apply_noisy_teleport(
            random_density_operator((d, d), RNG).__class__((d, d), flat), 0.35, 1
        )
        assert np.abs(out.matrix - flat).max() < 1e-13


def test_channel_factor_placement():
    rho = random_density_operator((2, 3, 2), RNG)
    out = apply_noisy_teleport(rho, 0.0, 1)
    # the middle factor is replaced by its maximally mixed marginal
    rest = partial_trace(rho, [1])
    expected = np.kron(rest.matrix, np.eye(3) / 3)  # factor order (0, 2, 1)
    expected = (
        expected.reshape(2, 2, 3, 2, 2, 3).transpose(0, 2, 1, 3, 5, 4).reshape(12, 12)
    )
    assert np.abs(out.matrix - expected).max() < 1e-13
    with pytest.raises(ValueError):
        apply_noisy_teleport(rho, 0.5, 3)


def test_choi_state_is_physical_on_grid():
    for d in (2, 3):
        for p in np.linspace(0.0, 1.0, 11):
            # the normalized Choi state: construction enforces PSD and unit trace
            choi = apply_noisy_teleport(max_entangled(d).density(), float(p), 1)
            # trace preservation: the input marginal of the Choi state is I/d
            marginal = partial_trace(choi, [1])
            assert np.abs(marginal.matrix - np.eye(d) / d).max() < 1e-12


def test_path_visibility_law_values():
    assert path_teleport_visibility(0.8, 1) == 0.8
    assert abs(path_teleport_visibility(0.9, 3) - 0.9**4) < 1e-15
    assert path_teleport_visibility(1.0, 7) == 1.0
    with pytest.raises(ValueError):
        path_teleport_visibility(0.9, 0)


def test_path_visibility_matches_dense_iteration():
    # oracle: teleport the pair hop by hop, reading the current visibility
    # off the dense state and teleporting through a matching resource
    for d in (2, 3):
        for p in (0.3, 0.7, 0.95):
            for length in (2, 3, 4):
                rho = isotropic(d, p)
                phi = max_entangled(d).vector
                for _ in range(length - 1):
                    overlap = np.vdot(phi, rho.matrix @ phi).real
                    q = (d * d * overlap - 1) / (d * d - 1)
                    rho = apply_noisy_teleport(rho, min(1.0, max(0.0, q)), 1)
                law = path_teleport_visibility(p, length)
                assert np.abs(rho.matrix - isotropic(d, law).matrix).max() < 1e-12


def test_star_teleport_limits():
    state = ghz(3).density()
    assert star_teleport(state, 1.0) is state
    flat = star_teleport(state, 0.0)
    assert np.abs(flat.matrix - np.eye(8) / 8).max() < 1e-13
    with pytest.raises(ValueError):
        star_teleport(random_density_operator((2, 3), RNG), 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 1.0])
def test_closed_form_matches_brute_force(n, p):
    closed = teleported_ghz_closed_form(n, p)
    brute = star_teleport(ghz(n).density(), p)
    assert np.abs(closed.matrix - brute.matrix).max() < 1e-10


def test_closed_form_limits_and_capacity():
    assert np.abs(teleported_ghz_closed_form(3, 1.0).matrix - ghz(3).density().matrix).max() < 1e-15
    assert np.abs(teleported_ghz_closed_form(3, 0.0).matrix - np.eye(8) / 8).max() < 1e-15
    with pytest.raises(CapacityError):
        teleported_ghz_closed_form(13, 0.5)


def test_depolarized_component_basics():
    # n=2 with the second qubit depolarized is the flat state
    flat = depolarized_ghz_component(2, [1])
    assert np.abs(flat.matrix - np.eye(4) / 4).max() < 1e-15
    assert abs(depolarized_ghz_component(5, [0, 2]).matrix.trace() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        depolarized_ghz_component(3, [])
    with pytest.raises(ValueError):
        depolarized_ghz_component(3, [0, 1, 2])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_depolarized_component_eigenstructure(n):
    # basis vectors are eigenvectors with value 1/2^(k+1) exactly when the
    # bits outside the depolarized subset agree (the last bit counts as 0)
    from itertools import combinations

    for k in range(1, n):
        for noisy in combinations(range(n), k):
            sigma = depolarized_ghz_component(n, noisy).matrix
            for j in range(2 ** (n - 1)):
                for sign in (1, -1):
                    vec = ghz_basis(n, j, sign).vector
                    outside_bits = {
                        (j >> (n - 2 - q)) & 1 if q < n - 1 else 0
                        for q in range(n)
                        if q not in noisy
                    }
                    expected = 1 / 2 ** (k + 1) if len(outside_bits) == 1 else 0.0
                    image = sigma @ vec
                    assert np.abs(image - expected * vec).max() < 1e-14
