import pytest

from isonet import (
    BelowThresholdError,
    CapacityError,
    DensityOperator,
    complete_graph,
    connectivity_growth_scan,
    cycle_graph,
    default_center,
    distilled_visibility,
    downgrade_visibility,
    fidelity_from_visibility,
    ghz,
    ghz_teleport_fidelity,
    grid_graph,
    path_teleport_visibility,
    random_tree,
    recurrence_step,
    simulate_partial_distillation,
    star_graph,
    visibility_from_fidelity,
    visibility_threshold,
)


def test_visibility_threshold_values():
    p0 = visibility_threshold(1.0, 2)
    assert abs(p0 - 3 ** (-1 / 16)) < 1e-15
    assert abs(p0**16 * 3 - 1.0) <= 1e-12
    assert abs(visibility_threshold(0.5, 2) - 3 ** (-1 / 512)) < 1e-15
    # shrinking c pushes the threshold toward 1
    values = [visibility_threshold(c, 2) for c in (1.0, 0.8, 0.5, 0.3)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        visibility_threshold(0.0, 2)
    with pytest.raises(ValueError):
        visibility_threshold(0.5, 1)


def test_doubling_exponents_saturate_instead_of_overflowing():
    # 2^(5/c - 1) leaves the float range on sparse graphs such as long cycles
    assert visibility_threshold(2 / 420, 2) == 1.0
    assert path_teleport_visibility(0.99, 2000) == 0.0
    assert path_teleport_visibility(1.0, 2000) == 1.0
    assert downgrade_visibility(0.99, 3, 1100.0) == 0.0
    assert downgrade_visibility(1.0, 3, 1100.0) == 1.0
    # in range the expression is the plain power
    assert path_teleport_visibility(0.9, 3) == 0.9**4.0
    assert downgrade_visibility(0.9, 2, 3.5) == 0.9 ** (2.0**2.5)


def test_downgrade_visibility():
    assert downgrade_visibility(0.9, 3, 3) == path_teleport_visibility(0.9, 3)
    assert downgrade_visibility(1.0, 1, 7.5) == 1.0
    for length in (1, 2, 3):
        assert downgrade_visibility(0.8, length, 4) <= path_teleport_visibility(0.8, length)
    with pytest.raises(ValueError):
        downgrade_visibility(0.8, 5, 4)


def test_recurrence_fixed_points_and_values():
    assert recurrence_step(1.0) == 1.0
    assert recurrence_step(0.5) == 0.5
    assert abs(recurrence_step(0.75) - 41 / 52) < 1e-12  # 0.7884615...
    with pytest.raises(ValueError):
        recurrence_step(0.25)


def test_recurrence_gain_region():
    for i in range(1, 50):
        f = 0.5 + 0.01 * i
        out = recurrence_step(f)
        assert 0.5 < out <= 1.0
        assert out > f
    # below the 1/2 fixed point the map loses fidelity
    assert recurrence_step(0.4) < 0.4


def test_visibility_fidelity_conversion_round_trip():
    for p in (0.0, 0.3, 0.9, 1.0):
        assert abs(visibility_from_fidelity(fidelity_from_visibility(p)) - p) < 1e-12
    assert fidelity_from_visibility(1 / 3) == pytest.approx(0.5)


def test_distilled_visibility_examples():
    assert distilled_visibility(0.8, 1) == (0.8, 1)
    assert distilled_visibility(1.0, 9) == (1.0, 8)
    few, _ = distilled_visibility(0.8, 4)
    many, consumed = distilled_visibility(0.8, 16)
    assert many > few > 0.8
    assert consumed == 16
    with pytest.raises(BelowThresholdError):
        distilled_visibility(0.3, 2)
    assert distilled_visibility(0.3, 1) == (0.3, 1)
    with pytest.raises(ValueError):
        distilled_visibility(0.8, 0)


def test_distilled_visibility_monotone_in_copies():
    values = [distilled_visibility(0.75, c)[0] for c in (1, 2, 4, 8, 16, 32)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_default_center_prefers_high_degree():
    g = star_graph(6)
    assert default_center(g, frozenset({0, 2, 4})) == 0
    assert default_center(complete_graph(5), frozenset({1, 3})) == 1


def test_simulation_perfect_visibility_is_exact():
    for g in (complete_graph(8), grid_graph(3, 2), cycle_graph(7)):
        report = simulate_partial_distillation(g, (0, 1), 1.0)
        assert report.final_fidelity == 1.0


def test_simulation_fidelity_increases_with_size():
    fids = [
        simulate_partial_distillation(complete_graph(n), (0, 1, 2), 0.99, center=0).final_fidelity
        for n in (15, 30, 60)
    ]
    assert fids[0] < fids[1] < fids[2]


def test_simulation_fidelity_monotone_in_visibility():
    g = complete_graph(16)
    fids = [
        simulate_partial_distillation(g, (0, 1, 2), p).final_fidelity
        for p in (0.90, 0.93, 0.96, 0.99, 1.0)
    ]
    assert all(b >= a for a, b in zip(fids, fids[1:]))


def test_simulation_star_graph_obstruction():
    report = simulate_partial_distillation(star_graph(8), (1, 2, 3), 0.95)
    assert report.spiders_found == 0
    assert report.necessary_condition_violated
    assert all(t.copies == 0 for t in report.targets)
    # fallback teleports over single shortest paths of length 2
    assert all(t.leg_lengths == (2,) for t in report.targets)
    assert all(t.distilled == path_teleport_visibility(0.95, 2) for t in report.targets)
    assert report.final_fidelity < 1.0


def test_simulation_tree_flagged():
    report = simulate_partial_distillation(random_tree(10, seed=4), (0, 1, 2), 0.9)
    assert report.necessary_condition_violated
    assert report.edge_connectivity == 1


def test_simulation_below_threshold_reported_not_raised():
    report = simulate_partial_distillation(complete_graph(12), (0, 1), 0.3, center=0)
    assert any(t.below_threshold for t in report.targets)
    assert report.final_fidelity is not None


def test_simulation_gain_flags():
    # strict improvement happens exactly in the recurrence gain region
    for p in (0.3, 0.5, 0.95, 1.0):
        report = simulate_partial_distillation(complete_graph(20), (0, 1, 2), p, center=0)
        for outcome in report.targets:
            in_gain_region = (
                outcome.copies_consumed >= 2 and 1 / 3 < outcome.chunk_visibility < 1.0
            )
            assert outcome.strictly_improved == in_gain_region


def test_simulation_qutrit_links_stop_after_teleport_stage():
    report = simulate_partial_distillation(
        complete_graph(12), (0, 1, 2), 0.8, center=0, local_dim=3
    )
    assert report.final_fidelity is None
    assert all(t.distilled == t.chunk_visibility for t in report.targets)
    assert all(t.copies_consumed == 0 for t in report.targets)


def test_simulation_uniform_legs_never_beats_actual():
    g = complete_graph(24)
    plain = simulate_partial_distillation(g, (0, 1, 2), 0.99, center=0)
    uniform = simulate_partial_distillation(g, (0, 1, 2), 0.99, center=0, uniform_legs=True)
    assert uniform.final_fidelity <= plain.final_fidelity
    assert uniform.p_above_threshold == plain.p_above_threshold


def test_simulation_plan_quantities():
    report = simulate_partial_distillation(complete_graph(51), (0, 1), 0.99, center=0)
    assert report.plan.spider_budget == 4
    assert float(report.plan.leg_length_bound) == pytest.approx(5.1)
    assert report.p_above_threshold == (0.99 > report.plan.p0)


def test_simulation_input_validation():
    with pytest.raises(ValueError):
        simulate_partial_distillation(complete_graph(5), (0,), 0.9)
    with pytest.raises(ValueError):
        simulate_partial_distillation(complete_graph(5), (0, 1), 1.5)
    with pytest.raises(ValueError):
        simulate_partial_distillation(complete_graph(5), (0, 1), 0.9, center=3)
    with pytest.raises(ValueError):
        simulate_partial_distillation(
            complete_graph(5), (0, 1), 0.9, target_state=ghz(3)
        )


def test_ghz_teleport_fidelity_values():
    assert ghz_teleport_fidelity([1.0, 1.0, 1.0]) == 1.0
    assert ghz_teleport_fidelity([0.0]) == 0.25
    assert ghz_teleport_fidelity([0.0, 0.0]) == 0.125
    assert ghz_teleport_fidelity([0.6, 0.8]) == pytest.approx(0.5 * 0.48 + 0.5 * 0.8 * 0.9)
    with pytest.raises(ValueError):
        ghz_teleport_fidelity([0.5, 1.2])


def test_simulation_default_target_builds_no_dense_state(monkeypatch):
    def refuse(self):
        raise AssertionError("dense state built on the default GHZ target")

    monkeypatch.setattr(DensityOperator, "__post_init__", refuse)
    report = simulate_partial_distillation(complete_graph(40), range(14), 0.99)
    assert len(report.targets) == 13
    expected = ghz_teleport_fidelity(t.distilled for t in report.targets)
    assert report.final_fidelity == expected


def test_simulation_custom_ghz_target_matches_closed_form():
    g = complete_graph(24)
    for p in (0.6, 0.95, 1.0):
        for center in (0, 2):
            closed = simulate_partial_distillation(g, (0, 1, 2, 3), p, center=center)
            dense = simulate_partial_distillation(
                g, (0, 1, 2, 3), p, center=center, target_state=ghz(4)
            )
            assert abs(closed.final_fidelity - dense.final_fidelity) <= 1e-12


def test_simulation_custom_target_above_cap_raises():
    with pytest.raises(CapacityError):
        simulate_partial_distillation(
            complete_graph(20), range(13), 0.99, target_state=ghz(13)
        )


def test_growth_scan_verdicts():
    trees = connectivity_growth_scan("tree", [5, 8, 12], seed=1)
    assert [row.edge_connectivity for row in trees.rows] == [1, 1, 1]
    assert trees.verdict == "obstructed"

    complete = connectivity_growth_scan("complete", [4, 6, 9])
    assert complete.verdict == "consistent"

    grids = connectivity_growth_scan("grid", [2, 3, 4, 5], k=2)
    assert [row.edge_connectivity for row in grids.rows] == [2, 4, 6, 8]
    assert grids.verdict == "consistent"

    single = connectivity_growth_scan("cycle", [6])
    assert single.verdict == "inconclusive"
