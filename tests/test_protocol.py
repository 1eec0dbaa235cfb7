import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pure_state
from isonet import (
    BelowThresholdError,
    Graph,
    GridGraphSpec,
    PureStateVector,
    complete_graph,
    cycle_graph,
    default_center,
    distilled_visibility,
    downgrade_visibility,
    edge_connectivity,
    extract_spiders,
    fidelity_from_visibility,
    ghz,
    ghz_teleport_fidelity,
    grid_graph,
    grid_spiders,
    path_teleport_visibility,
    plan_partial_distillation,
    pure_target_fidelity,
    random_tree,
    recurrence_step,
    run_partial_distillation,
    simulate_partial_distillation,
    star_graph,
    validate_spiders,
    visibility_from_fidelity,
    visibility_threshold,
)
from isonet.graphs import _bfs_distances
from isonet.hilbert import DensityOperator
from isonet.verification import _dense_teleport_fidelity


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
    assert report.plan.spiders.count == 0
    assert report.plan.necessary_condition_violated
    # fallback teleports over single shortest paths of length 2
    assert all(lengths == (2,) for lengths in report.plan.leg_lengths.values())
    assert all(t.distilled == path_teleport_visibility(0.95, 2) for t in report.targets)
    assert report.final_fidelity < 1.0


def test_simulation_tree_flagged():
    report = simulate_partial_distillation(random_tree(10, seed=4), (0, 1, 2), 0.9)
    assert report.plan.necessary_condition_violated
    assert report.plan.edge_connectivity == 1


def test_simulation_below_threshold_reported_not_raised():
    report = simulate_partial_distillation(complete_graph(12), (0, 1), 0.3, center=0)
    assert any(t.below_threshold for t in report.targets)
    assert report.final_fidelity is not None


def test_simulation_gain_flags():
    # distillation strictly improves a chunk exactly in the recurrence gain region
    for p in (0.3, 0.5, 0.95, 1.0):
        report = simulate_partial_distillation(complete_graph(20), (0, 1, 2), p, center=0)
        for outcome in report.targets:
            in_gain_region = (
                outcome.copies_consumed >= 2 and 1 / 3 < outcome.chunk_visibility < 1.0
            )
            assert (outcome.distilled > outcome.chunk_visibility) == in_gain_region


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


def test_plan_holds_the_graph_side():
    g = complete_graph(12)
    plan = plan_partial_distillation(g, (7, 3, 0))
    dmin = g.min_degree
    assert (plan.vertex_count, plan.min_degree) == (12, dmin)
    assert plan.edge_connectivity == edge_connectivity(g)
    assert plan.ratio_c == Fraction(dmin, 12)
    assert plan.leg_length_bound == Fraction(5 * 12, dmin)
    dec = extract_spiders(g, (0, 3, 7), plan.spiders.center)
    assert plan.spiders == dec and dec.count > 0
    assert plan.leg_lengths == {
        t: tuple(len(legs[t]) - 1 for legs in dec.spiders) for t in (3, 7)
    }
    assert list(plan.leg_lengths) == [3, 7]
    assert not plan.necessary_condition_violated
    report = run_partial_distillation(plan, 0.95)
    assert report.plan is plan


def test_plan_falls_back_to_one_shortest_path_per_target():
    g = random_tree(10, seed=3)
    plan = plan_partial_distillation(g, (0, 1, 2))
    assert plan.spiders.count == 0
    assert plan.edge_connectivity == edge_connectivity(g) == 1
    assert plan.min_degree == min(map(g.degree, range(g.vertex_count))) == 1
    center = plan.spiders.center
    dist = _bfs_distances(g, center)
    assert plan.leg_lengths == {t: (dist[t],) for t in sorted({0, 1, 2} - {center})}
    assert plan.necessary_condition_violated
    report = run_partial_distillation(plan, 0.9)
    assert all(t.copies_consumed == 0 for t in report.targets)


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


def test_subset_vertices_are_read_as_integers_everywhere():
    g = complete_graph(5)
    functions = (
        lambda subset, center: plan_partial_distillation(g, subset, center),
        lambda subset, center: extract_spiders(g, subset, center),
    )
    for function in functions:
        with pytest.raises(ValueError, match=r"^vertex 1\.5 is not an integer$"):
            function((0, 1.5), 0)
        with pytest.raises(ValueError, match=r"^vertex 1\.0 is not an integer$"):
            function((0, 1.0), 0)
    with pytest.raises(ValueError, match=r"^vertex 1\.0 is not an integer$"):
        plan_partial_distillation(g, (0, 1), 1.0)
    wide = (np.int64(0), np.int64(3))
    plan = plan_partial_distillation(g, wide, np.int64(3))
    assert plan.spiders.subset == {0, 3} and plan.spiders.center == 3
    assert extract_spiders(g, wide, np.int64(0)) == extract_spiders(g, (0, 3), 0)


def test_every_returned_vertex_is_an_int():
    def vertices(dec):
        yield dec.center
        yield from dec.subset
        for legs in dec.spiders:
            yield from legs
            for leg in legs.values():
                yield from leg

    wide = (np.int64(0), np.int64(3))
    dec = extract_spiders(complete_graph(5), wide, np.int64(0))
    grid = grid_spiders(GridGraphSpec(5, 2), (np.int64(0), np.int64(12)), np.int64(12))
    plan = plan_partial_distillation(complete_graph(5), wide, np.int64(3))
    assert dec.spiders and grid.spiders
    found = [*vertices(dec), *vertices(grid), *vertices(plan.spiders), *plan.leg_lengths]
    assert all(type(v) is int for v in found), [type(v) for v in found]


def test_plan_spiders_are_the_greedy_extraction():
    # random connected graphs: a random tree plus chords
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 14)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        chords = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, [*tree, *chords])
        subset = rng.sample(range(n), rng.randint(2, min(5, n)))
        center = rng.choice(subset)
        for max_spiders in (None, 0, 1, 3):
            plan = plan_partial_distillation(g, subset, center, max_spiders)
            assert plan.spiders == extract_spiders(g, subset, center, max_spiders)
            assert validate_spiders(plan.spiders, g) is None


def test_plan_refuses_a_disconnected_graph():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError, match="^premise violated: graph must be connected$"):
        plan_partial_distillation(two_triangles, (0, 3))


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
            summed = simulate_partial_distillation(
                g, (0, 1, 2, 3), p, center=center, target_state=ghz(4)
            )
            assert abs(closed.final_fidelity - summed.final_fidelity) <= 1e-12


def test_simulation_custom_target_above_cap_builds_no_dense_state(monkeypatch):
    default = simulate_partial_distillation(complete_graph(20), range(13), 0.99)

    def refuse(self):
        raise AssertionError("dense state built on a custom target")

    monkeypatch.setattr(DensityOperator, "__post_init__", refuse)
    custom = simulate_partial_distillation(
        complete_graph(20), range(13), 0.99, target_state=ghz(13)
    )
    assert abs(custom.final_fidelity - default.final_fidelity) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_pure_target_fidelity_matches_dense_route(m, seed, data):
    target = random_pure_state((2,) * m, np.random.default_rng(seed))
    noisy = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
    visibility = st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
    )
    visibilities = {q: data.draw(visibility) for q in sorted(noisy)}
    summed = pure_target_fidelity(target, visibilities)
    assert abs(summed - _dense_teleport_fidelity(target, visibilities)) <= 1e-12


def test_pure_target_fidelity_product_state_beyond_cap():
    # every reduction of a product state is pure, so F = prod (1 + p_i)/2
    rng = np.random.default_rng(13)
    vector = np.ones(1)
    for _ in range(13):
        vector = np.kron(vector, random_pure_state((2,), rng).vector)
    target = PureStateVector((2,) * 13, vector)
    visibilities = {q: float(p) for q, p in zip(range(1, 13), rng.random(12))}
    expected = math.prod((1.0 + p) / 2.0 for p in visibilities.values())
    assert abs(pure_target_fidelity(target, visibilities) - expected) <= 1e-12


def test_pure_target_fidelity_limits_and_validation():
    target = random_pure_state((2, 2, 2), np.random.default_rng(5))
    assert pure_target_fidelity(target, {0: 1.0, 1: 1.0, 2: 1.0}) == 1.0
    assert pure_target_fidelity(target, {}) == 1.0
    assert pure_target_fidelity(ghz(3), {1: 0.0, 2: 0.0}) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(ValueError):
        pure_target_fidelity(target, {3: 0.5})
    with pytest.raises(ValueError):
        pure_target_fidelity(target, {0: 1.5})
    with pytest.raises(ValueError):
        pure_target_fidelity(random_pure_state((2, 3), np.random.default_rng(5)), {0: 0.5})
