import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exact_min_eigenvalue
from isonet import is_ppt_teleported_ghz, min_eigenvalue_teleported_ghz, ppt_crossover
import isonet.spectra
from isonet.hilbert import ghz_basis, is_ppt, partial_transpose
from isonet.spectra import _logaddexp, _mixed_term, _ppt_sign_test, min_eigenvalue_log
from isonet.verification import (
    _class_scan_min_eigenvalues,
    _linear_crossover,
    _per_call_sign_nonnegative,
    _spectrum_table,
    depolarized_ghz_component,
    noise_overlap_closed,
    noise_overlap_direct,
    teleported_ghz_closed_form,
)

# visibilities in (0, 1], with the perfect and the near-perfect links pinned
_visibilities = st.one_of(
    st.sampled_from([1.0, 0.9999, 1e-9]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


def _shifted(table) -> list[int]:
    """The basis integers whose (j, +) and (j, -) eigenvalues differ: r alone."""
    return [j for (j, sign) in table if sign == 1 and table[(j, 1)] != table[(j, -1)]]


def test_spectrum_table_relabels_the_last_qubit():
    p = 0.6
    # qubit q flags the bit of weight 2^(n-2-q): r = 0b101 for the cut {0, 2}
    assert _shifted(_spectrum_table(4, p, [0, 2])) == [0b101]
    # qubit n-1 inside the cut gets swapped with the smallest one outside
    assert _spectrum_table(4, p, [1, 3]) == _spectrum_table(4, p, [0, 1])
    assert _shifted(_spectrum_table(4, p, [1, 3])) == [0b110]
    assert _spectrum_table(5, p, [0, 4]) == _spectrum_table(5, p, [0, 1])
    assert _shifted(_spectrum_table(5, p, [0, 4])) == [0b1100]


@pytest.mark.parametrize(
    "spectrum",
    [min_eigenvalue_teleported_ghz, min_eigenvalue_log, is_ppt_teleported_ghz],
)
@pytest.mark.parametrize("w", [0, 5, 6])
def test_spectra_reject_cut_sizes_outside_one_to_n(spectrum, w):
    with pytest.raises(ValueError, match="cut size"):
        spectrum(5, 0.9, w)


def test_noise_overlap_zero_index_vanishes_at_unit_visibility():
    for n in (2, 5, 9):
        assert abs(noise_overlap_closed(n, 1.0, 0)) < 1e-15
        assert noise_overlap_direct(n, 1.0, 0) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 12])
def test_noise_overlap_closed_equals_direct(n):
    for p in [round(0.1 * i, 1) for i in range(11)]:
        for j in range(2 ** (n - 1)):
            closed = noise_overlap_closed(n, p, j)
            direct = noise_overlap_direct(n, p, j)
            assert abs(closed - direct) <= 1e-12, (n, p, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_noise_overlap_matches_dense_expectation(n):
    # slow second oracle: sandwich every depolarized component densely
    for p in (0.25, 0.8):
        sigmas = [
            (k, depolarized_ghz_component(n, noisy).matrix)
            for k in range(1, n)
            for noisy in combinations(range(n), k)
        ]
        for j in range(2 ** (n - 1)):
            vec = ghz_basis(n, j, 1).vector
            dense = sum(
                p ** (n - k) * (1 - p) ** k * np.vdot(vec, sig @ vec).real
                for k, sig in sigmas
            )
            assert abs(dense - noise_overlap_closed(n, p, j)) < 1e-12


def test_eigenvalue_at_unit_visibility():
    # the perfect GHZ state: the critical eigenvalue is -1/2, its partner +1/2
    table = _spectrum_table(5, 1.0, [1])
    r = 1 << (5 - 2 - 1)
    assert table[(r, -1)] == -0.5
    assert table[(r, 1)] == 0.5
    assert table[(0, 1)] == 0.5


def test_only_critical_pair_can_be_negative():
    for n in (3, 5, 7):
        r = (1 << (n - 2)) | (1 << (n - 3))  # the cut {0, 1}
        for p in (0.2, 0.5, 0.9):
            for (j, sign), value in _spectrum_table(n, p, [0, 1]).items():
                if (j, sign) != (r, -1):
                    assert value > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_eigenvalues_match_dense_decomposition(n):
    for p in (0.3, 0.9):
        state = teleported_ghz_closed_form(n, p)
        for cut in [(0,)] + ([(0, 1)] if n >= 3 else []):
            dense = np.sort(np.linalg.eigvalsh(partial_transpose(state, cut)))
            closed = np.sort(list(_spectrum_table(n, p, cut).values()))
            assert np.abs(dense - closed).max() < 1e-9


def _trace_by_weight(n: int, p: float) -> float:
    """Sum of all eigenvalues computed per Hamming-weight class: the sign
    shifts at j = r cancel, so the cut does not enter."""
    return math.fsum(2 * math.comb(n - 1, w) * _mixed_term(n, p, w) for w in range(n))


def test_spectrum_table_sums_to_one():
    for n, p, cut in ((4, 0.37, [1]), (8, 0.9, [0, 2]), (12, 0.55, [3])):
        table = _spectrum_table(n, p, cut)
        assert len(table) == 2**n
        assert abs(math.fsum(table.values()) - 1.0) <= 1e-12
    for n in (16, 20):
        for p in (0.3, 0.8):
            assert abs(_trace_by_weight(n, p) - 1.0) <= 1e-12


def test_min_eigenvalue_agrees_with_dense():
    for n in (3, 5, 7):
        for p in (0.4, 0.8):
            state = teleported_ghz_closed_form(n, p)
            dense = np.linalg.eigvalsh(partial_transpose(state, [0]))[0]
            fast = min_eigenvalue_teleported_ghz(n, p, 1)
            assert abs(dense - fast) < 1e-10


def test_is_ppt_fast_path_matches_dense():
    for n in range(2, 9):
        for p in (0.3, 0.6, 0.9):
            state = teleported_ghz_closed_form(n, p)
            for w in (1, 2):
                if n - 1 < w:
                    continue
                dense = is_ppt(state, tuple(range(w)))
                fast = is_ppt_teleported_ghz(n, p, w)
                closed = min_eigenvalue_teleported_ghz(n, p, w) >= 0.0
                assert dense == fast == closed, (n, p, w)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), p=_visibilities, data=st.data())
def test_min_eigenvalue_equals_full_table_minimum(n, p, data):
    cut = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    table = min(_spectrum_table(n, p, cut).values())
    closed = min_eigenvalue_teleported_ghz(n, p, len(cut))
    assert math.isclose(closed, table, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 900), p=_visibilities, data=st.data())
def test_min_eigenvalue_equals_class_scan(n, p, data):
    w = data.draw(st.integers(1, n - 1))
    scan = _class_scan_min_eigenvalues(n, p, [w])[w]
    closed = min_eigenvalue_teleported_ghz(n, p, w)
    assert math.isclose(closed, scan, rel_tol=1e-12, abs_tol=0.0)


def test_perfect_ghz_is_npt_everywhere():
    for n in (2, 4, 6):
        for w in range(1, n):
            assert not is_ppt_teleported_ghz(n, 1.0, w)


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([1 / 3, 0.9999, 1e-9]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    w=st.integers(1, 8),
    data=st.data(),
)
def test_sign_test_equals_per_call_twin(p, w, data):
    n = data.draw(st.integers(w + 1, 10**7))
    assert _ppt_sign_test(p, w)(n) == _per_call_sign_nonnegative(n, p, w)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1e4, 1e4),
    y=st.floats(-1e4, 1e4),
    gap=st.floats(800.0, 1e4),  # exp(-gap) underflows to 0
)
def test_logaddexp_equals_numpy(x, y, gap):
    for a, b in ((x, y), (y, x), (x, x), (x, x + gap), (x + gap, x)):
        assert _logaddexp(a, b) == float(np.logaddexp(a, b)), (a, b)


def test_crossover_anchor_and_boundaries():
    assert ppt_crossover(0.9, 1) == 55
    for p, w in ((0.5, 1), (0.5, 2), (0.7, 1), (0.7, 2), (0.9, 1), (0.9, 2)):
        n0 = ppt_crossover(p, w)
        assert is_ppt_teleported_ghz(n0, p, w)
        if n0 - 1 >= w + 1:
            assert not is_ppt_teleported_ghz(n0 - 1, p, w)
    with pytest.raises(ValueError):
        ppt_crossover(1.0, 1)
    with pytest.raises(ValueError):
        ppt_crossover(0.9, 0)


def test_crossover_is_the_first_passing_size_not_the_last_npt_one():
    # at (0.5, 3) the dense partial transpose is PSD at n = 4, 5, loses it at
    # 6, 7 and regains it from 8 on; the crossover is the first pass, n = 4
    p, w = 0.5, 3
    assert ppt_crossover(p, w) == w + 1
    pattern = {}
    for n in range(4, 10):
        state = teleported_ghz_closed_form(n, p)
        smallest = np.linalg.eigvalsh(partial_transpose(state, range(w)))[0]
        assert abs(smallest) > 1e-5, (n, smallest)
        assert is_ppt_teleported_ghz(n, p, w) == (smallest > 0), n
        pattern[n] = bool(smallest > 0)
    assert pattern == {4: True, 5: True, 6: False, 7: False, 8: True, 9: True}


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([1 / 3, 1e-9, 0.999]),
        st.floats(min_value=0.0, max_value=0.999, exclude_min=True),
    ),
    w=st.integers(1, 8),
)
def test_crossover_equals_linear_scan(p, w):
    assert ppt_crossover(p, w) == _linear_crossover(p, w)


@pytest.mark.parametrize(
    "p, w, n0",
    [(0.2, 3, 4), (0.9, 1, 55), (0.9999, 1, 198054), (0.999999999, 1, 42832822558)],
)
def test_crossover_takes_logarithmically_many_sign_tests(monkeypatch, p, w, n0):
    tested = []
    build = isonet.spectra._ppt_sign_test

    def recording(p, w):
        nonnegative = build(p, w)

        def test(n):
            tested.append(n)
            return nonnegative(n)

        return test

    monkeypatch.setattr(isonet.spectra, "_ppt_sign_test", recording)
    assert ppt_crossover(p, w) == n0
    if n0 == w + 1:
        assert tested == [w + 1]
    else:  # w+1, the gallop up to w+1+2^K >= n0, then K-1 bisections
        k = math.ceil(math.log2(n0 - w - 1))
        assert len(tested) == 2 * k + 1
        assert tested[: k + 2] == [w + 1] + [w + 1 + 2**i for i in range(k + 1)]


@pytest.mark.parametrize(
    "n, p, w",
    [(700, 0.9, 1), (800, 0.9, 1), (777, 0.9, 4), (1100, 0.5, 550), (1500, 0.5, 700)],
)
def test_min_eigenvalue_log_matches_exact_decimal_where_the_float_underflows(n, p, w):
    assert min_eigenvalue_teleported_ghz(n, p, w) == 0.0
    sign, log_abs = min_eigenvalue_log(n, p, w)
    exact = exact_min_eigenvalue(n, p, w)
    assert sign == (1 if exact > 0 else -1)
    assert math.isclose(log_abs, float(abs(exact).ln()), rel_tol=1e-14, abs_tol=0.0)


def test_crossover_monotone_in_cut_size_and_visibility():
    sizes = [ppt_crossover(0.7, w) for w in (1, 2, 3, 4)]
    assert sizes == sorted(sizes)
    thresholds = [ppt_crossover(p, 1) for p in (0.5, 0.7, 0.9, 0.95, 0.99)]
    assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] > thresholds[0]


def test_spectrum_handles_last_qubit_in_cut():
    # permutation invariance: a cut containing the last qubit relabels cleanly
    n, p = 5, 0.6
    state = teleported_ghz_closed_form(n, p)
    dense = np.sort(np.linalg.eigvalsh(partial_transpose(state, [1, 4])))
    closed = np.sort(list(_spectrum_table(n, p, [1, 4]).values()))
    assert np.abs(dense - closed).max() < 1e-10
