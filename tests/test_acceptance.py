"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test runs the corresponding closed-form-vs-oracle check from
isonet.verification and prints one pass/fail line; criteria with stated
runtime budgets assert them too.
"""

import time

import pytest

from isonet import verification

_TIMED = {
    "teleported-ghz-closed-form": 30.0,
    "noise-overlap-forms": 60.0,
    "menger-duality": 60.0,
    "protocol-fidelity-closed-form": 30.0,
    "ppt-sign-test": 30.0,
    "ppt-crossover-gallop": 30.0,
}


def _run(name: str, label: str):
    # the check itself, not the filter: "ppt-crossover" also matches c18
    start = time.perf_counter()
    result = verification.run_check(name)
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {label}: {result.name} ({elapsed:.1f}s) {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    budget = _TIMED.get(name)
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_c01_teleported_ghz_closed_form_matches_brute_force():
    _run("teleported-ghz-closed-form", "1")


def test_c02_ghz_basis_eigenstructure_exhaustive():
    _run("ghz-basis-eigenstructure", "2")


def test_c03_noise_overlap_closed_equals_direct():
    _run("noise-overlap-forms", "3")


def test_c04_ptranspose_spectrum_matches_dense():
    _run("ptranspose-spectrum", "4")


def test_c05_ppt_crossover_anchor_and_boundaries():
    _run("ppt-crossover", "5")


def test_c06_menger_duality_on_random_graphs():
    _run("menger-duality", "6")


def test_c07_spider_extraction_guarantee():
    _run("spider-guarantee", "7")


def test_c08_grid_spider_construction():
    _run("grid-spider-construction", "8")


def test_c09_path_teleportation_law():
    _run("path-teleportation-law", "9")


def test_c10_threshold_arithmetic_and_recurrence():
    _run("threshold-and-recurrence", "10")


def test_c11_end_to_end_fidelity_trend():
    _run("protocol-trend", "11")


def test_c12_diameter_bound_on_generated_graphs():
    _run("diameter-bound", "12")


def test_c13_protocol_fidelity_closed_form_matches_dense():
    _run("protocol-fidelity-closed-form", "13")


def test_c14_min_eigenvalue_closed_form_matches_spectrum():
    _run("min-eigenvalue-closed-form", "14")


def test_c15_edge_connectivity_reduction_matches_all_targets():
    _run("edge-connectivity-reduction", "15")


def test_c16_diameter_all_sources_matches_per_source_bfs():
    _run("diameter-all-sources", "16")


def test_c17_ppt_sign_test_matches_per_call_twin():
    _run("ppt-sign-test", "17")


def test_c18_ppt_crossover_gallop_matches_linear_scan():
    _run("ppt-crossover-gallop", "18")


def test_c19_spider_residual_matches_rebuild_twin():
    _run("spider-residual", "19")


def test_c20_family_generators_match_their_edge_formulas():
    _run("family-generators", "20")


@pytest.mark.parametrize("name", list(verification.CHECKS))
def test_check_fails_under_an_injected_fault(name):
    assert not verification.run_check(name, fault=1e-6).passed
