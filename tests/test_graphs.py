import io
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isonet import graphs
from isonet import (
    INFINITE,
    Graph,
    GridGraphSpec,
    PathInGraph,
    complete_graph,
    cycle_graph,
    degree_stats,
    diameter,
    distance,
    edge_connectivity,
    edge_connectivity_exhaustive,
    generate,
    grid_graph,
    is_connected,
    max_edge_disjoint_paths,
    path_graph,
    random_tree,
    read_edge_list,
    remove_path_edges,
    shortest_path,
    star_graph,
    write_edge_list,
)
from isonet.verification import (
    _all_targets_edge_connectivity,
    _per_source_diameter,
    planted_cut_graph,
    random_connected_graph,
)


def test_graph_canonicalizes_and_validates():
    g = Graph(3, [(2, 0), (0, 1)])
    assert g.edges == frozenset({(0, 2), (0, 1)})
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_degree_stats_examples():
    assert degree_stats(complete_graph(5))[:2] == (4, 4)
    assert degree_stats(star_graph(6))[:2] == (1, 5)
    stats = degree_stats(grid_graph(3, 2))
    assert stats.minimum == stats.maximum == 2 * (3 - 1)
    assert degree_stats(Graph(0))[:2] == (0, 0)


def test_distance_and_diameter():
    p5 = path_graph(5)
    assert distance(p5, 2, 2) == 0
    assert distance(p5, 0, 4) == 4
    assert diameter(p5) == 4
    disconnected = Graph(4, [(0, 1), (2, 3)])
    assert distance(disconnected, 0, 2) == INFINITE
    assert diameter(disconnected) == INFINITE
    with pytest.raises(ValueError):
        distance(p5, 0, 9)


def test_edge_connectivity_examples():
    assert edge_connectivity(complete_graph(5)) == 4
    assert edge_connectivity(cycle_graph(6)) == 2
    assert edge_connectivity(star_graph(6)) == 1
    with pytest.raises(ValueError):
        edge_connectivity(Graph(1))


def test_flows_on_long_paths_stay_under_the_recursion_limit():
    assert sys.getrecursionlimit() < 5000
    assert max_edge_disjoint_paths(path_graph(5000), 0, 4999) == 1
    assert edge_connectivity(cycle_graph(2100)) == 2


@st.composite
def _small_graphs(draw):
    """Any simple graph on 2..12 vertices: disconnected ones and isolated
    vertices included."""
    n = draw(st.integers(2, 12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def _low_degree_small_graphs(draw):
    """A graph from _small_graphs with the edges at one vertex cut down to at
    most two, so that the minimum degree is at most 2."""
    g = draw(_small_graphs())
    v = draw(st.integers(0, g.vertex_count - 1))
    kept = {v, *g.neighbors(v)[: draw(st.integers(0, 2))]}
    return Graph(g.vertex_count, [e for e in g.edges if v not in e or set(e) <= kept])


@st.composite
def _graphs_up_to_40(draw):
    """Any graph on 0..40 vertices: a random tree or none, plus random edges,
    so that disconnected graphs and isolated vertices come up too."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return Graph(n)
    edges = []
    if draw(st.booleans()):
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=3 * n))
    return Graph(n, edges)


@st.composite
def _planted_cut_graphs(draw):
    a, b = draw(st.integers(4, 30)), draw(st.integers(4, 30))
    k = draw(st.integers(1, min(a, b) - 2))
    return planted_cut_graph(random.Random(draw(st.integers(0, 2**32))), a, b, k), k


@settings(max_examples=150, deadline=None)
@given(g=_small_graphs())
def test_edge_connectivity_equals_exhaustive_cut(g):
    assert edge_connectivity(g) == edge_connectivity_exhaustive(g)


@settings(max_examples=150, deadline=None)
@given(g=_low_degree_small_graphs())
def test_edge_connectivity_by_bridges_equals_exhaustive_cut(g):
    assert degree_stats(g).minimum <= 2
    assert edge_connectivity(g) == edge_connectivity_exhaustive(g)


@settings(max_examples=150, deadline=None)
@given(g=_graphs_up_to_40())
def test_diameter_equals_per_source_bfs(g):
    assert diameter(g) == _per_source_diameter(g)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_diameter_over_several_source_blocks(n, monkeypatch):
    # one word per vertex, so blocks of 64 sources: n = 65 and 129 need 2 and 3
    monkeypatch.setattr(graphs, "BLOCK_WORDS", 1)
    rng = random.Random(n)
    tree = random_tree(n, seed=n)
    chorded = Graph(n, [*tree.edges, *(rng.sample(range(n), 2) for _ in range(n // 8))])
    for g in (path_graph(n), cycle_graph(n), tree, chorded, complete_graph(n)):
        assert diameter(g) == _per_source_diameter(g)


@settings(max_examples=40, deadline=None)
@given(case=_planted_cut_graphs())
def test_edge_connectivity_finds_planted_cut_below_min_degree(case):
    g, k = case
    assert degree_stats(g).minimum > k
    assert edge_connectivity(g) == _all_targets_edge_connectivity(g) == k


@settings(max_examples=60, deadline=None)
@given(g=_small_graphs())
def test_edge_connectivity_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    assert edge_connectivity(g) == nx.edge_connectivity(h)


def test_max_edge_disjoint_paths_examples():
    k4 = complete_graph(4)
    assert max_edge_disjoint_paths(k4, 0, 3) == 3
    tree = random_tree(9, seed=5)
    assert max_edge_disjoint_paths(tree, 0, 8) == 1
    with pytest.raises(ValueError):
        max_edge_disjoint_paths(k4, 1, 1)


def test_menger_duality_small_random():
    rng = random.Random(99)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=8)
        lam = edge_connectivity(g)
        assert lam == edge_connectivity_exhaustive(g)
        pairwise = min(
            max_edge_disjoint_paths(g, u, v)
            for u in range(g.vertex_count)
            for v in range(u + 1, g.vertex_count)
        )
        assert lam == pairwise


def test_shortest_path_is_lexicographically_smallest():
    # two shortest 0->3 routes in a 4-cycle; the smaller passes through 1
    square = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert shortest_path(square, 0, 3).vertices == (0, 1, 3)
    assert shortest_path(square, 0, 3).length == 2
    assert shortest_path(Graph(3, [(0, 1)]), 0, 2) is None


def test_remove_path_edges():
    k3 = complete_graph(3)
    trimmed = remove_path_edges(k3, PathInGraph((0, 1)))
    assert trimmed.edge_count == 2
    assert trimmed.vertex_count == 3
    p5 = path_graph(5)
    chopped = remove_path_edges(p5, PathInGraph((1, 2, 3)))
    assert chopped.degree(2) == p5.degree(2) - 2
    with pytest.raises(ValueError):
        remove_path_edges(chopped, PathInGraph((1, 2)))


def test_removing_fewer_than_connectivity_edges_keeps_graph_connected():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=9)
        lam = edge_connectivity(g)
        u = rng.randrange(g.vertex_count)
        v = rng.choice([x for x in range(g.vertex_count) if x != u])
        path = shortest_path(g, u, v)
        if path is None or path.length >= lam:
            continue
        assert is_connected(remove_path_edges(g, path))


def test_path_in_graph_invariants():
    with pytest.raises(ValueError):
        PathInGraph((3,))
    with pytest.raises(ValueError):
        PathInGraph((0, 1, 0))
    path = PathInGraph((4, 2, 7))
    assert path.length == 2
    assert path.edges() == ((2, 4), (2, 7))


def test_grid_generation():
    cube = generate("grid", 2, k=3)
    assert cube.vertex_count == 8
    assert set(degree_stats(cube).degrees) == {3}
    g32 = generate("grid", 3, k=2)
    assert g32.vertex_count == 9
    # oracle count: edges iff tuples differ in exactly one coordinate
    spec = GridGraphSpec(3, 2)
    expected = {
        (a, b)
        for a in range(9)
        for b in range(a + 1, 9)
        if sum(x != y for x, y in zip(spec.vertex_coords(a), spec.vertex_coords(b))) == 1
    }
    assert g32.edges == frozenset(expected)
    assert len(expected) == 9 * 2 * (3 - 1) // 2 == 18


def test_grid_regular_degrees_sweep():
    for n in range(2, 7):
        for k in range(1, 4):
            stats = degree_stats(grid_graph(n, k))
            assert stats.minimum == stats.maximum == k * (n - 1)


def test_generate_families_and_errors():
    assert edge_connectivity(generate("star", 6)) == 1
    assert generate("tree", 10, seed=3).edge_count == 9
    assert is_connected(generate("tree", 10, seed=3))
    assert generate("tree", 10, seed=3) == generate("tree", 10, seed=3)
    with pytest.raises(ValueError):
        generate("grid", 1, k=2)
    with pytest.raises(ValueError):
        generate("mystery", 4)
    with pytest.raises(ValueError):
        generate("grid", 4)


def test_connectivity_bounds_on_families():
    for g in (complete_graph(7), cycle_graph(9), grid_graph(3, 2), random_tree(8, 2)):
        stats = degree_stats(g)
        assert edge_connectivity(g) <= stats.minimum <= g.vertex_count - 1


def test_diameter_bound_for_dense_graphs():
    for g in (complete_graph(8), cycle_graph(11), grid_graph(4, 2), grid_graph(3, 3)):
        dmin = degree_stats(g).minimum
        assert dmin > 1
        assert diameter(g) <= 3 * g.vertex_count / (dmin + 1) - 1


def test_edge_list_round_trip():
    g = grid_graph(3, 2)
    buffer = io.StringIO()
    write_edge_list(g, buffer)
    assert read_edge_list(io.StringIO(buffer.getvalue())) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 1\n1 1\n",
        "2 1\n1 0\n",
        "2 2\n0 1\n0 1\n",
        "2 1\n0 5\n",
        "2 5\n0 1\n",
        "x y\n",
    ],
)
def test_edge_list_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO(text))
