from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isonet import (
    Graph,
    GridGraphSpec,
    PathInGraph,
    Spider,
    SpiderDecomposition,
    complete_graph,
    decomposition_lines,
    degree_stats,
    edge_connectivity,
    extract_spiders,
    grid_graph,
    grid_spiders,
    path_graph,
    spider_guarantee,
    star_graph,
    validate_spiders,
)
from isonet.verification import (
    _rebuild_extract_spiders,
    _remove_path_edges,
    max_edge_disjoint_paths,
)


def test_guarantee_arithmetic_on_k51():
    guarantee = spider_guarantee(complete_graph(51), {0, 1})
    # c = 50/51, lambda = 50: floor(min(50, 2500/51) / 10) = 4, bound 5/c
    assert guarantee.count == 4
    assert guarantee.leg_length_bound == Fraction(51, 10)


def test_guarantee_zero_when_budget_too_small():
    # min(dmin, c*lambda) < 5*|subset| makes the floor vanish
    guarantee = spider_guarantee(complete_graph(6), {0, 1, 2, 3})
    assert guarantee.count == 0


def test_guarantee_on_grid_uses_measured_connectivity():
    g = grid_graph(4, 2)
    dmin = degree_stats(g).minimum
    lam = edge_connectivity(g)
    guarantee = spider_guarantee(g, {0, 5})
    expected = int(
        min(Fraction(dmin), Fraction(dmin, g.vertex_count) * lam) / (5 * 2)
    )
    assert guarantee.count == expected


def test_guarantee_premises():
    with pytest.raises(ValueError):
        spider_guarantee(path_graph(6), {0, 5})  # min degree 1
    with pytest.raises(ValueError):
        spider_guarantee(Graph(4, [(0, 1), (2, 3)]), {0, 2})  # disconnected
    with pytest.raises(ValueError):
        spider_guarantee(complete_graph(5), {2})  # subset too small


def test_extraction_meets_guarantee_on_complete_graphs():
    for n in (12, 25, 51):
        g = complete_graph(n)
        for m in (2, 3, 4):
            subset = tuple(range(m))
            guarantee = spider_guarantee(g, subset)
            for center in subset:
                dec = extract_spiders(g, subset, center)
                assert dec.count >= guarantee.count
                assert validate_spiders(dec).ok
                assert all(
                    s.max_leg_length() <= guarantee.leg_length_bound
                    for s in dec.spiders
                )


def test_extraction_pair_count_bounded_by_disjoint_paths():
    g = grid_graph(4, 2)
    dec = extract_spiders(g, (0, 15), 0)
    assert 1 <= dec.count <= max_edge_disjoint_paths(g, 0, 15)


def test_extraction_on_path_graph_yields_single_spider():
    dec = extract_spiders(path_graph(6), (0, 5), 0)
    assert dec.count == 1
    assert dec.spiders[0].legs[5].vertices == (0, 1, 2, 3, 4, 5)


def test_extraction_respects_max_spiders():
    dec = extract_spiders(complete_graph(20), (0, 1, 2), 0, max_spiders=2)
    assert dec.count == 2


def test_extraction_requires_center_in_subset():
    with pytest.raises(ValueError):
        extract_spiders(complete_graph(6), (1, 2), 0)


def test_inductive_step_replay():
    # removing the edges of all but the last guaranteed spider still leaves
    # room to extract one more
    g = complete_graph(60)
    subset = (0, 1)
    guarantee = spider_guarantee(g, subset)
    assert guarantee.count == 5
    dec = extract_spiders(g, subset, 0, max_spiders=guarantee.count - 1)
    residual = g
    for spider in dec.spiders:
        for leg in spider.legs.values():
            residual = _remove_path_edges(residual, leg)
    again = extract_spiders(residual, subset, 0, max_spiders=1)
    assert again.count == 1
    assert validate_spiders(again).ok


@st.composite
def _extraction_cases(draw):
    """A connected graph (a random tree plus chords), a target subset, one of
    its vertices as the center, and a spider limit."""
    n = draw(st.integers(2, 14))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=40))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5, unique=True))
    center = draw(st.sampled_from(subset))
    max_spiders = draw(st.sampled_from([None, 0, 1, 3]))
    return Graph(n, [*tree, *chords]), subset, center, max_spiders


@settings(max_examples=150, deadline=None)
@given(_extraction_cases())
def test_residual_extraction_matches_rebuild_twin(case):
    g, subset, center, max_spiders = case
    edges = g.edges
    dec = extract_spiders(g, subset, center, max_spiders)
    twin = _rebuild_extract_spiders(g, subset, center, max_spiders)
    assert decomposition_lines(dec) == decomposition_lines(twin)
    assert validate_spiders(dec).ok
    assert g.edges == edges  # the residual is a copy


def test_star_graph_extraction_away_from_hub():
    dec = extract_spiders(star_graph(7), (1, 2, 3), 1)
    assert dec.count == 0
    two = extract_spiders(star_graph(7), (1, 4), 1)
    assert two.count == 1


@pytest.mark.parametrize("n,k,m", [(3, 2, 2), (5, 2, 3), (7, 2, 4), (4, 3, 2), (8, 3, 4)])
def test_grid_spiders_counts_and_validation(n, k, m):
    spec = GridGraphSpec(n, k)
    subset = tuple(round(i * (spec.order - 1) / (m - 1)) for i in range(m))
    assert len(set(subset)) == m
    dec = grid_spiders(spec, subset, subset[0])
    floor_count = ((n - 1) // (m - 1) - 1) * k
    assert dec.count >= floor_count
    assert all(s.max_leg_length() <= k + 1 for s in dec.spiders)
    assert validate_spiders(dec).ok


def test_grid_spiders_rejects_small_side():
    with pytest.raises(ValueError, match="n >= 2"):
        grid_spiders(GridGraphSpec(4, 2), (0, 1, 5), 0)


def test_validate_empty_decomposition_passes():
    dec = SpiderDecomposition(complete_graph(4), frozenset({0, 1}), 0, (), 3)
    assert validate_spiders(dec).ok


def test_validate_flags_duplicate_edge():
    g = complete_graph(4)
    leg = PathInGraph((0, 1))
    other = PathInGraph((0, 2))
    dup = SpiderDecomposition(
        g,
        frozenset({0, 1, 2}),
        0,
        (Spider(0, {1: leg, 2: other}), Spider(0, {1: leg, 2: PathInGraph((0, 3, 2))})),
        5,
    )
    report = validate_spiders(dup)
    assert not report.ok
    assert "(0, 1)" in report.failure


def test_validate_flags_leg_bound_violation():
    g = path_graph(4)
    dec = SpiderDecomposition(
        g, frozenset({0, 3}), 0, (Spider(0, {3: PathInGraph((0, 1, 2, 3))}),), 2
    )
    report = validate_spiders(dec)
    assert not report.ok
    assert "length 3" in report.failure


def test_serialization_lines():
    dec = extract_spiders(complete_graph(6), (0, 1, 2), 0, max_spiders=1)
    lines = decomposition_lines(dec)
    assert lines == ["0 1 0 1", "0 2 0 2"]
