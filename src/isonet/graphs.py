"""Simple undirected graphs: connectivity analytics and family generators.

Vertices are dense 0-based integers.  Edges are stored canonically as
(min, max) pairs so that edge-set equality and disjointness tests are exact.
All operations are pure functions over immutable graphs.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

INFINITE = math.inf  # sentinel for distances/diameter of disconnected graphs

# uint64 words in each working array of the all-sources BFS in diameter():
# 2^21 words is 16 MiB per array, whatever the graph
BLOCK_WORDS = 1 << 21

GRAPH_FAMILIES = ("complete", "cycle", "path", "star", "tree", "grid")


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Return the (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex range")
            canon.add(canonical_edge(u, v))
        object.__setattr__(self, "edges", frozenset(canon))
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        # sorted adjacency keeps every traversal in this module deterministic
        object.__setattr__(self, "_adjacency", tuple(tuple(sorted(a)) for a in adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edges

    def _check_vertex(self, v: int):
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} outside range [0, {self.vertex_count})")


class DegreeStats(NamedTuple):
    minimum: int
    maximum: int
    degrees: tuple[int, ...]


def degree_stats(g: Graph) -> DegreeStats:
    """Minimum degree, maximum degree and the per-vertex degree sequence."""
    degrees = tuple(len(g.neighbors(v)) for v in range(g.vertex_count))
    if not degrees:
        return DegreeStats(0, 0, ())
    return DegreeStats(min(degrees), max(degrees), degrees)


def _bfs_distances(g: Graph, source: int) -> list:
    dist = [INFINITE] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] == INFINITE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def distance(g: Graph, u: int, v: int):
    """Shortest-path length between u and v; INFINITE when disconnected."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        return 0
    return _bfs_distances(g, u)[v]


def diameter(g: Graph):
    """Largest pairwise distance; INFINITE when the graph is not connected.

    A word-parallel BFS from all sources at once (Then et al., "The More the
    Merrier", VLDB 2014).  Sources go in blocks of 64 * W; each vertex holds
    W uint64 words of unseen source bits and W words of frontier bits, the
    sources whose BFS reached it at the current level.  One level ORs the
    frontier words over each vertex's neighbours (a gather and a reduceat on
    CSR arrays) and keeps the bits still unseen: level L sets exactly the
    sources at distance L.  So the last level that sets a bit is the largest
    eccentricity among the block's sources, and the diameter is the largest
    over the blocks.  W is chosen so that every working array, the gathered
    arcs x W block included, holds at most BLOCK_WORDS words.
    """
    n = g.vertex_count
    if n <= 1:
        return 0
    if not is_connected(g):
        return INFINITE
    # connected with n >= 2: no row of the CSR arrays is empty, which
    # reduceat would misread
    adjacency = g._adjacency
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adjacency], out=indptr[1:])
    arcs = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=arcs)
    starts = indptr[:-1]
    words = max(1, min(-(-n // 64), BLOCK_WORDS // max(arcs, n)))
    gathered = np.empty((arcs, words), dtype=np.uint64)
    frontier = np.empty((n, words), dtype=np.uint64)
    reached = np.empty((n, words), dtype=np.uint64)
    unseen = np.empty((n, words), dtype=np.uint64)
    worst = 0
    for first in range(0, n, 64 * words):
        offsets = np.arange(min(n - first, 64 * words))
        frontier.fill(0)
        frontier[first + offsets, offsets // 64] = np.left_shift(
            np.uint64(1), (offsets % 64).astype(np.uint64)
        )
        np.invert(frontier, out=unseen)
        level = 0
        while True:
            # every index is in range; mode="clip" only spares take() the
            # buffered copy it makes for out= under the default mode="raise"
            np.take(frontier, indices, axis=0, out=gathered, mode="clip")
            np.bitwise_or.reduceat(gathered, starts, axis=0, out=reached)
            reached &= unseen
            if not reached.any():
                break
            unseen ^= reached
            frontier, reached = reached, frontier
            level += 1
        worst = max(worst, level)
    return worst


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    return INFINITE not in _bfs_distances(g, 0)


@dataclass(frozen=True)
class PathInGraph:
    """A simple path given by its vertex sequence v0, v1, ..., v_len."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("a path needs at least one edge")
        if len(set(verts)) != len(verts):
            raise ValueError("path repeats a vertex")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            canonical_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        )

    def is_path_in(self, g: Graph) -> bool:
        return all(g.has_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


def shortest_path(g: Graph, u: int, v: int) -> PathInGraph | None:
    """Lexicographically smallest shortest path from u to v, or None.

    A reverse BFS provides the distance-to-target field; walking greedily
    to the smallest neighbour that decreases it yields the unique
    lexicographically smallest vertex sequence among all shortest paths.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("endpoints of a path must differ")
    dist = _bfs_distances(g, v)
    if dist[u] == INFINITE:
        return None
    vertices = [u]
    current = u
    while current != v:
        current = next(w for w in g.neighbors(current) if dist[w] == dist[current] - 1)
        vertices.append(current)
    return PathInGraph(tuple(vertices))


def remove_path_edges(g: Graph, p: PathInGraph) -> Graph:
    """Delete exactly the edges of p; the vertex set is unchanged."""
    path_edges = p.edges()
    for e in path_edges:
        if e not in g.edges:
            raise ValueError(f"path edge {e} absent from graph")
    return Graph(g.vertex_count, g.edges - set(path_edges))


# ---------------------------------------------------------------------------
# Max flow with unit edge capacities (Dinic) and edge connectivity
# ---------------------------------------------------------------------------


class _UnitFlow:
    """Dinic max-flow on an undirected graph with unit edge capacities.

    The arc arrays are built once per graph; every max_flow call resets the
    capacities in place, so one network serves any number of (s, t) pairs.
    """

    def __init__(self, g: Graph):
        self.n = g.vertex_count
        self.head = [[] for _ in range(self.n)]  # arc indices per vertex
        self.to = []
        # an undirected unit edge becomes two antiparallel unit arcs 2i and
        # 2i+1, each acting as the residual arc of the other
        for u, v in sorted(g.edges):
            self.head[u].append(len(self.to))
            self.to.append(v)
            self.head[v].append(len(self.to))
            self.to.append(u)
        self.cap = [1] * len(self.to)

    def max_flow(self, s: int, t: int, cutoff: float = INFINITE) -> int:
        """Flow value from s to t, stopping once it reaches cutoff."""
        cap = self.cap
        cap[:] = (1,) * len(cap)
        flow = 0
        while flow < cutoff:
            level = self._levels(s, t)
            if level[t] < 0:
                break
            it = [0] * self.n
            while flow < cutoff:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                flow += pushed
        return flow

    def _levels(self, s: int, t: int) -> list:
        """BFS distances from s in the residual graph, up to t's.

        The search stops when t is reached.  Every vertex still at -1 then
        lies at t's distance or beyond, so no shortest s-t path uses it, and
        the paths _augment finds are those of the full level graph.
        """
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            nxt = level[u] + 1
            for a in head[u]:
                w = to[a]
                if cap[a] > 0 and level[w] < 0:
                    level[w] = nxt
                    if w == t:
                        return level
                    queue.append(w)
        return level

    def _augment(self, s: int, t: int, level: list, it: list) -> int:
        """Push one unit along the first s-t path of the level graph.

        A depth-first search with an explicit stack of arcs, so its depth is
        bounded by the heap rather than the recursion limit.  Arcs are tried
        in head order from it[u]; a dead end gets level -1 and its parent
        moves on to its next arc, as in the textbook recursive form.
        """
        head, to, cap = self.head, self.to, self.cap
        path = []  # arcs from s to u
        u = s
        while u != t:
            arcs = head[u]
            end = len(arcs)
            i = it[u]
            nxt = level[u] + 1
            while i < end:
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(a)
                u = to[a]
                continue
            level[u] = -1  # no route to t from u in this phase
            if not path:
                return 0
            u = to[path.pop() ^ 1]
            it[u] += 1
        for a in path:
            cap[a] -= 1
            cap[a ^ 1] += 1
        return 1


def max_edge_disjoint_paths(g: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise edge-disjoint u-v paths (unit-capacity max flow)."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("endpoints must differ")
    return _UnitFlow(g).max_flow(u, v)


def _greedy_dominating_set(g: Graph) -> list[int]:
    """Dominating set picked greedily in vertex-id order, starting with 0."""
    dominated = [False] * g.vertex_count
    chosen = []
    for v in range(g.vertex_count):
        if not dominated[v]:
            chosen.append(v)
            dominated[v] = True
            for w in g.neighbors(v):
                dominated[w] = True
    return chosen


def _connectivity_up_to_two(g: Graph) -> int:
    """min(lambda, 2): 0 if disconnected, 1 if some edge is a bridge, else 2.

    One lowpoint DFS from vertex 0 (Tarjan, "A note on finding the bridges of
    a graph", 1974) with an explicit stack, so no path or cycle reaches the
    recursion limit.  order[v] is v's discovery index and low[v] the smallest
    index reachable from v's DFS subtree by tree edges down and one non-tree
    edge.  A non-tree edge closes a cycle with tree edges, so it is never a
    bridge.  A tree edge (u, v), v the child, is a bridge exactly when no edge
    leaves v's subtree except itself, that is when low[v] > order[u].  The
    graph is simple, so the one edge back to the parent is the tree edge.
    """
    adjacency = g._adjacency
    order = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    order[0] = 0
    visited = 1
    bridge = False
    stack = [(0, -1, iter(adjacency[0]))]
    while stack:
        v, parent, rest = stack[-1]
        for w in rest:
            if order[w] < 0:
                order[w] = low[w] = visited
                visited += 1
                stack.append((w, v, iter(adjacency[w])))
                break
            if w != parent and order[w] < low[v]:
                low[v] = order[w]
        else:
            stack.pop()
            if parent >= 0:
                if low[v] > order[parent]:
                    bridge = True
                if low[v] < low[parent]:
                    low[parent] = low[v]
    if visited < g.vertex_count:
        return 0
    return 1 if bridge else 2


def edge_connectivity(g: Graph) -> int:
    """Global minimum edge cut: a bridge search when delta_min <= 2, otherwise
    max flows from vertex 0 to a dominating set.

    Small minimum degree.  The edges at a vertex of minimum degree form a
    cut, so lambda <= delta_min; lambda >= 1 exactly when g is connected, and
    lambda >= 2 exactly when it is connected and no single edge (a bridge)
    disconnects it.  So for delta_min <= 2, lambda = min(delta_min,
    _connectivity_up_to_two(g)), in O(n + m).

    Otherwise Esfahanian & Hakimi (1984): start from L = delta_min, an upper
    bound, and take max flows from vertex 0 to every other vertex of a
    dominating set D containing 0, each with cutoff L, lowering L as they
    come in.

    Exactness.  Every flow is at least lambda, and lambda <= delta_min.
    Suppose lambda < delta_min and let (S, T) be a minimum cut.  A side S
    with |S| <= delta_min would send at least |S| (delta_min - |S| + 1) >=
    delta_min edges across, since each of its vertices has at most |S| - 1
    neighbours inside.  So |S| > lambda, while at most lambda vertices of S
    touch the cut: some vertex of S has no neighbour across it.  D dominates
    that vertex, so D meets S, and likewise T.  Hence some w in D lies on the
    other side from 0, and the 0-w flow is lambda.  When D = {0}, vertex 0
    is adjacent to every other vertex, so lambda = delta_min.

    One flow network is built per graph and its capacities are reset per
    target; augmentation is iterative, so no input reaches the recursion
    limit.
    """
    if g.vertex_count < 2:
        raise ValueError("edge connectivity needs at least two vertices")
    best = degree_stats(g).minimum
    if best <= 2:
        return min(best, _connectivity_up_to_two(g))
    targets = _greedy_dominating_set(g)[1:]
    if not targets:
        return best
    flow = _UnitFlow(g)
    for w in targets:
        best = min(best, flow.max_flow(0, w, cutoff=best))
        if best == 0:
            break
    return best


def edge_connectivity_exhaustive(g: Graph) -> int:
    """Minimum edge-boundary size over all nontrivial vertex bipartitions.

    Brute-force cross-check for edge_connectivity; enumerates all 2^(n-1)-1
    bipartitions, so it is limited to small graphs.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("edge connectivity needs at least two vertices")
    if n > 20:
        raise ValueError("exhaustive cut enumeration is limited to 20 vertices")
    best = n * n
    for mask in range((1 << (n - 1)) - 1):  # all proper sides containing n-1
        side = mask | (1 << (n - 1))
        boundary = sum(1 for u, v in g.edges if ((side >> u) & 1) != ((side >> v) & 1))
        best = min(best, boundary)
    return best


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniformly random labelled tree (Pruefer decoding) on n vertices."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for x in prufer:
        leaf = leaves.pop(0)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            # keep the leaf pool sorted so the decoding stays deterministic
            bisect.insort(leaves, x)
    edges.append((leaves[0], leaves[1]))
    return Graph(n, edges)


@dataclass(frozen=True)
class GridGraphSpec:
    """Grid family: vertices are the k-tuples over {0,..,n-1}, adjacent when
    the tuples differ in exactly one coordinate.  Tuples map to vertex ids by
    big-endian mixed-radix encoding."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid graph needs side length n >= 2")
        if self.k < 1:
            raise ValueError("grid graph needs tuple length k >= 1")

    @property
    def order(self) -> int:
        return self.n**self.k

    def vertex_id(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.k or any(not 0 <= c < self.n for c in coords):
            raise ValueError(f"invalid grid coordinates {coords}")
        vid = 0
        for c in coords:
            vid = vid * self.n + c
        return vid

    def vertex_coords(self, vid: int) -> tuple[int, ...]:
        if not 0 <= vid < self.order:
            raise ValueError(f"vertex {vid} outside range [0, {self.order})")
        coords = []
        for _ in range(self.k):
            coords.append(vid % self.n)
            vid //= self.n
        return tuple(reversed(coords))

    def to_graph(self) -> Graph:
        edges = []
        for vid in range(self.order):
            coords = self.vertex_coords(vid)
            for m in range(self.k):
                for c in range(coords[m] + 1, self.n):
                    other = list(coords)
                    other[m] = c
                    edges.append((vid, self.vertex_id(tuple(other))))
        return Graph(self.order, edges)


def grid_graph(n: int, k: int) -> Graph:
    return GridGraphSpec(n, k).to_graph()


def generate(family: str, n: int, k: int | None = None, seed: int = 0) -> Graph:
    """Build a named graph family; see GRAPH_FAMILIES for the choices."""
    if family == "complete":
        return complete_graph(n)
    if family == "cycle":
        return cycle_graph(n)
    if family == "path":
        return path_graph(n)
    if family == "star":
        return star_graph(n)
    if family == "tree":
        return random_tree(n, seed=seed)
    if family == "grid":
        if k is None:
            raise ValueError("grid family needs the tuple length k")
        return grid_graph(n, k)
    raise ValueError(f"unknown graph family {family!r}")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "N M", then M lines "u v" with u < v
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, stream) -> None:
    stream.write(f"{g.vertex_count} {g.edge_count}\n")
    for u, v in sorted(g.edges):
        stream.write(f"{u} {v}\n")


def read_edge_list(stream) -> Graph:
    lines = [line.strip() for line in stream if line.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"malformed header line {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = set()
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"malformed edge line {line!r}") from None
        if u >= v:
            raise ValueError(f"edge line {line!r} must satisfy u < v")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u}, {v})")
        edges.add((u, v))
    return Graph(n, edges)
