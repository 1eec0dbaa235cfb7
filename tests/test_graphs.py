import io
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isonet import graphs, verification
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
    extract_spiders,
    generate,
    grid_graph,
    is_connected,
    path_graph,
    plan_partial_distillation,
    random_tree,
    read_edge_list,
    shortest_path,
    star_graph,
    write_edge_list,
)
from isonet.graphs import _UnitFlow
from isonet.verification import (
    _all_targets_edge_connectivity,
    _hub_and_paths,
    _per_source_diameter,
    _remove_path_edges,
    edge_connectivity_exhaustive,
    max_edge_disjoint_paths,
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


def _canonical_then_sorted(n: int, edge_list: list) -> tuple[frozenset, tuple]:
    """The edge set and adjacency by the route the graph once took: every
    edge canonicalized to (min, max) into one set, then the sorted adjacency
    built out of that set."""
    canon = frozenset((u, v) if u < v else (v, u) for u, v in edge_list)
    adjacency = [[] for _ in range(n)]
    for u, v in canon:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return canon, tuple(tuple(sorted(a)) for a in adjacency)


@st.composite
def _edge_lists(draw):
    """A vertex count and an edge list with repeated edges in both
    orientations."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=40))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    flips = draw(st.lists(st.booleans(), min_size=len(repeats), max_size=len(repeats)))
    return n, edges + [(v, u) if flip else (u, v) for (u, v), flip in zip(repeats, flips)]


@settings(max_examples=200, deadline=None)
@given(case=_edge_lists(), probe=st.tuples(st.integers(-3, 15), st.integers(-3, 15)))
def test_sorted_adjacency_matches_canonical_edge_set_route(case, probe):
    n, edge_list = case
    g = Graph(n, edge_list)
    canon, adjacency = _canonical_then_sorted(n, edge_list)
    assert g._adjacency == adjacency
    assert g.edges == canon
    assert g.edge_count == len(canon)
    u, v = probe
    assert g.has_edge(u, v) == (((u, v) if u < v else (v, u)) in canon)
    buffer = io.StringIO()
    write_edge_list(g, buffer)
    lines = [f"{n} {len(canon)}\n", *(f"{a} {b}\n" for a, b in sorted(canon))]
    assert buffer.getvalue() == "".join(lines)
    head, to = [[] for _ in range(n)], []
    for a, b in sorted(canon):
        head[a].append(len(to))
        to.append(b)
        head[b].append(len(to))
        to.append(a)
    flow = _UnitFlow(g)
    assert (flow.to, flow.head) == (to, head)
    twin = Graph(n, [(b, a) for a, b in reversed(edge_list)])
    assert twin == g and hash(twin) == hash(g)
    assert Graph(n + 1, edge_list) != g


@pytest.mark.parametrize("g", [complete_graph(40), grid_graph(4, 4)], ids=["K40", "grid-4^4"])
def test_analytics_never_build_the_edge_set(g):
    degree_stats(g)
    edge_connectivity(g)
    diameter(g)
    extract_spiders(g, (0, 5, 17), 0)
    plan_partial_distillation(g, (0, 5, 17))
    assert "edges" not in vars(g)


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


@st.composite
def _hub_and_path_graphs(draw):
    leaves = draw(st.integers(0, 80))
    tails = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    g = _hub_and_paths(leaves, tails)
    vertex = st.integers(0, g.vertex_count - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    return Graph(g.vertex_count, [*g.edges, *((u, v) for u, v in chords if u != v)])


@settings(max_examples=40, deadline=None)
@given(g=_hub_and_path_graphs())
def test_diameter_on_hubs_and_paths_over_several_source_blocks(g):
    # one word per vertex, so blocks of 64 sources; the hub's leaves and the
    # chords' endpoints give several degree classes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "BLOCK_WORDS", 1)
        assert diameter(g) == _per_source_diameter(g)


@settings(max_examples=40, deadline=None)
@given(case=_planted_cut_graphs())
def test_edge_connectivity_finds_planted_cut_below_min_degree(case):
    g, k = case
    assert degree_stats(g).minimum > k
    assert edge_connectivity(g) == _all_targets_edge_connectivity(g) == k


@st.composite
def _flow_cases(draw):
    """A graph on 2..14 vertices, a source s and a nonempty sink set without s."""
    n = draw(st.integers(2, 14))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    order = draw(st.permutations(range(n)))
    sink_size = draw(st.integers(1, n - 1))
    return g, order[0], set(order[1 : 1 + sink_size])


def _min_cut_around(g: Graph, s: int, sink: set) -> int:
    """Fewest edges across any bipartition with s on one side and the whole
    sink on the other, by enumerating the sides of the other vertices."""
    free = [v for v in range(g.vertex_count) if v != s and v not in sink]
    best = g.edge_count
    for mask in range(1 << len(free)):
        side = {s, *(v for i, v in enumerate(free) if mask >> i & 1)}
        best = min(best, sum((u in side) != (v in side) for u, v in g.edges))
    return best


@settings(max_examples=80, deadline=None)
@given(case=_flow_cases(), cutoff=st.integers(0, 14))
def test_max_flow_into_a_sink_set_equals_min_cut(case, cutoff):
    g, s, sink = case
    flags = [v in sink for v in range(g.vertex_count)]
    cut = _min_cut_around(g, s, sink)
    flow = _UnitFlow(g)
    assert flow.max_flow(s, flags) == cut
    # the same network again, with its capacities reset, under a cutoff
    assert flow.max_flow(s, flags, cutoff=cutoff) == min(cut, cutoff)


@st.composite
def _min_degree_three_graphs(draw):
    """Two random parts joined by 0-4 cross edges, every vertex topped up to
    degree 3 inside its own part, then the ids permuted: minimum degree >= 3,
    with cuts below it now and then and vertex 0 on either side."""
    a, b = draw(st.integers(4, 16)), draw(st.integers(4, 16))
    n = a + b
    rng = random.Random(draw(st.integers(0, 2**32)))
    parts = (range(a), range(a, n))
    edges = set()
    for part in parts:
        density = draw(st.floats(0.0, 0.8))
        edges |= {e for e in combinations(part, 2) if rng.random() < density}
    edges |= {(rng.randrange(a), rng.randrange(a, n)) for _ in range(draw(st.integers(0, 4)))}
    for part in parts:
        for v in part:
            while sum(v in e for e in edges) < 3:
                w = rng.choice([w for w in part if w != v])
                edges.add((min(v, w), max(v, w)))
    relabel = draw(st.permutations(range(n)))
    return Graph(n, [(relabel[u], relabel[v]) for u, v in edges])


@settings(max_examples=80, deadline=None)
@given(g=_min_degree_three_graphs())
def test_edge_connectivity_equals_all_targets_at_min_degree_three(g):
    assert degree_stats(g).minimum >= 3
    assert edge_connectivity(g) == _all_targets_edge_connectivity(g)


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
    # the rebuild step of the spider extraction's oracle twin
    k3 = complete_graph(3)
    trimmed = _remove_path_edges(k3, PathInGraph((0, 1)))
    assert trimmed.edge_count == 2
    assert trimmed.vertex_count == 3
    p5 = path_graph(5)
    chopped = _remove_path_edges(p5, PathInGraph((1, 2, 3)))
    assert chopped.degree(2) == p5.degree(2) - 2
    with pytest.raises(ValueError):
        _remove_path_edges(chopped, PathInGraph((1, 2)))


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
        assert is_connected(_remove_path_edges(g, path))


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


def _grid_by_coordinates(n: int, k: int) -> Graph:
    """The grid built from vertex coordinates, one validated id per neighbour."""
    spec = GridGraphSpec(n, k)
    edges = []
    for vid in range(spec.order):
        coords = spec.vertex_coords(vid)
        for m in range(k):
            for c in range(coords[m] + 1, n):
                edges.append((vid, spec.vertex_id((*coords[:m], c, *coords[m + 1 :]))))
    return Graph(spec.order, edges)


@pytest.mark.parametrize("n, k", [(2, 1), (7, 1), (2, 2), (5, 2), (3, 3), (4, 3), (3, 4), (4, 4), (2, 6)])
def test_grid_by_strides_equals_coordinate_construction(n, k):
    g, expected = grid_graph(n, k), _grid_by_coordinates(n, k)
    assert g.edges == expected.edges
    assert g._adjacency == expected._adjacency


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
    # just above graphs.MAX_SIZE vertices plus edges, refused before building
    for family, n, k in (("complete", 1414, None), ("path", 500001, None), ("grid", 2, 17)):
        with pytest.raises(ValueError, match="size cap"):
            generate(family, n, k=k)
    with pytest.raises(ValueError, match="size cap"):
        generate("grid", 2, k=10**400)


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
        "1000000000000 0\n",
    ],
)
def test_edge_list_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO(text))


@pytest.mark.parametrize("name", ["menger-duality", "edge-connectivity-reduction"])
def test_flow_oracles_fail_under_a_fault(name):
    # the fault-free runs are the acceptance tests c06 and c15
    _, check = verification.CHECKS[name]
    assert not check(verification.DEFAULT_SEED, 1.0, 1e-6).passed
