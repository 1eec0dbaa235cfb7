"""Simple undirected graphs: connectivity analytics and family generators.

Vertices are dense 0-based integers.  A graph stores its vertex count and
one representation, the adjacency: each vertex's neighbours as a sorted
tuple, which keeps every traversal deterministic.  The edge set, (u, v)
pairs with u < v, is derived from it on first read.  Graphs are immutable
and compare by value.  Generators and the edge-list reader refuse sizes
above MAX_SIZE before they allocate anything.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

INFINITE = math.inf  # sentinel for distances/diameter of disconnected graphs

# uint64 words in each working array of the all-sources BFS in diameter():
# 2^21 words is 16 MiB per array, whatever the graph
BLOCK_WORDS = 1 << 21

# the most vertices plus edges a generated or read graph may have, and the
# longest integer range the CLI expands: about 90 times K150's 11,325; a
# graph at the cap (K1413, or the path on 500,000 vertices) peaks near 230 MB
MAX_SIZE = 10**6

GRAPH_FAMILIES = ("complete", "cycle", "path", "star", "tree", "grid")


def check_size(size: int, what: str) -> None:
    """Refuse, before anything is built, a size above MAX_SIZE."""
    if size > MAX_SIZE:
        raise ValueError(f"{what} exceeds the size cap of {MAX_SIZE}")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    _adjacency: tuple
    # set only by the generators of vertex-transitive families; a class
    # attribute, not a field, so equality, hashing and repr ignore it
    _vertex_transitive = False

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        adj = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex range")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "_adjacency", tuple(tuple(sorted(a)) for a in adj))

    @classmethod
    def _of(cls, adjacency: tuple, vertex_transitive: bool = False) -> Graph:
        """The graph of an adjacency stored as given, with no check: the
        caller guarantees one sorted tuple of neighbours per vertex, no
        self-loop or repeat, and every arc matched by its reverse.

        vertex_transitive=True is the caller's proof that the graph is
        connected and that its automorphisms map any vertex to any other;
        edge_connectivity and diameter read it.  Only complete_graph,
        cycle_graph and GridGraphSpec.to_graph give it: their graphs are
        Cayley graphs, connected at every size they accept."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", len(adjacency))
        object.__setattr__(g, "_adjacency", adjacency)
        object.__setattr__(g, "_vertex_transitive", vertex_transitive)
        return g

    @cached_property
    def edges(self) -> frozenset:
        """The edges as (u, v) pairs with u < v."""
        return frozenset(_sorted_edges(self))

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adjacency)) // 2

    @cached_property
    def min_degree(self) -> int:
        """delta: the smallest degree, 0 when there is no vertex."""
        return min(map(len, self._adjacency), default=0)

    @cached_property
    def max_degree(self) -> int:
        """Delta: the largest degree, 0 when there is no vertex."""
        return max(map(len, self._adjacency), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.vertex_count and v in self._adjacency[u]

    def _check_vertex(self, v: int):
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} outside range [0, {self.vertex_count})")


def _sorted_edges(g: Graph):
    """The edges (u, v), u < v, in lexicographic order, read off the sorted
    adjacency."""
    return ((u, v) for u, adjacent in enumerate(g._adjacency) for v in adjacent if u < v)


def _bfs_distances(g: Graph, source: int) -> list:
    g._check_vertex(source)
    adjacency = g._adjacency
    dist = [INFINITE] * g.vertex_count
    dist[source] = 0
    # once every vertex is labelled no distance can change, so the arcs of
    # the vertices still queued need no scan: from the center of K_n, n - 1
    unlabelled = g.vertex_count - 1
    queue = deque([source])
    while queue and unlabelled:
        u = queue.popleft()
        for w in adjacency[u]:
            if dist[w] == INFINITE:
                dist[w] = dist[u] + 1
                queue.append(w)
                unlabelled -= 1
    return dist


def diameter(g: Graph):
    """Largest pairwise distance; INFINITE when the graph is not connected.

    Three classes take a closed form, for n >= 2:

    - Complete: 2m = n(n - 1).  A simple graph with that many edges joins
      every pair, so the diameter is 1.  Otherwise one BFS from vertex 0
      decides connectivity, and its distances serve the rest.
    - Tree: m = n - 1.  A connected graph with n - 1 edges is a tree, and
      in a tree the farthest vertex from any vertex ends a longest path
      (Bulterman et al., "On computing a longest path in a tree", IPL 81,
      2002), so a second BFS from it reaches the diameter.
    - Cycle: maximum degree 2 and not a tree.  A connected graph of maximum
      degree 2 is a path or a cycle, and a path is a tree, so this is C_n,
      whose diameter is n // 2.

    Any other graph that its generator marks vertex-transitive (see
    Graph._of), a Hamming grid, reads its diameter off the same BFS from
    vertex 0: an automorphism maps 0 to any vertex v and preserves
    distances, so ecc(v) = ecc(0), and the diameter, the largest
    eccentricity, is ecc(0).

    Every other graph takes a word-parallel BFS from all sources at once
    (Then et al., "The More the Merrier", VLDB 2014).  Sources go in blocks
    of 64 * W; each vertex holds W uint64 words of unseen source bits and W
    words of frontier bits, the sources whose BFS reached it at the current
    level.  One level ORs the frontier words over each vertex's neighbours
    and keeps the bits still unseen: level L sets exactly the sources at
    distance L.  So the last level that sets a bit is the largest
    eccentricity among the block's sources, and the diameter is the largest
    over the blocks.

    Rows are renumbered by degree (a stable argsort), so the rows of one
    degree d form a contiguous slice of count rows.  Each such class stores
    its neighbour ranks slot-major, count ranks per slot, so its gathered
    frontier words reshape to (d, count * W) and one OR-reduce over axis 0
    writes the class's reached rows.  A level is then two numpy calls per
    distinct degree plus three, at most 2 * sqrt(2m) + 3, with no pass over
    rows of one or two arcs.  W is chosen so that every working array, the
    gathered arcs x W block included, holds at most BLOCK_WORDS words.
    """
    n = g.vertex_count
    if n <= 1:
        return 0
    adjacency = g._adjacency
    arcs = sum(map(len, adjacency))
    if arcs == n * (n - 1):
        return 1
    dist = _bfs_distances(g, 0)
    if INFINITE in dist:
        return INFINITE
    if arcs == 2 * (n - 1):
        return max(_bfs_distances(g, dist.index(max(dist))))
    if g.max_degree == 2:
        return n // 2
    if g._vertex_transitive:
        return max(dist)
    import numpy as np

    # connected with n >= 2: every degree is at least 1
    degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    neighbours = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=arcs)
    order = np.argsort(degrees, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    values, counts = np.unique(degrees[order], return_counts=True)
    words = max(1, min(-(-n // 64), BLOCK_WORDS // max(arcs, n)))
    gathered = np.empty((arcs, words), dtype=np.uint64)
    frontier = np.empty((n, words), dtype=np.uint64)
    reached = np.empty((n, words), dtype=np.uint64)
    unseen = np.empty((n, words), dtype=np.uint64)
    # per class: its neighbour ranks, its slice of gathered, that slice as
    # (d, count * W), and its rows
    classes = []
    row = arc = 0
    for d, count in zip(values.tolist(), counts.tolist()):
        # slot-major: slot j of every row of the class, then slot j + 1
        slots = indptr[order[row : row + count]] + np.arange(d)[:, None]
        block = gathered[arc : arc + d * count]
        ranks = rank[neighbours[slots.reshape(-1)]]
        classes.append((ranks, block, block.reshape(d, count * words), row, row + count))
        row += count
        arc += d * count
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
            for ranks, block, by_slot, a, b in classes:
                # every index is in range; mode="clip" only spares take() the
                # buffered copy it makes for out= under the default mode="raise"
                np.take(frontier, ranks, axis=0, out=block, mode="clip")
                np.bitwise_or.reduce(by_slot, axis=0, out=reached[a:b].reshape(-1))
            reached &= unseen
            if not reached.any():
                break
            unseen ^= reached
            frontier, reached = reached, frontier
            level += 1
        worst = max(worst, level)
    return worst


# ---------------------------------------------------------------------------
# Max flow with unit edge capacities (Dinic) and edge connectivity
# ---------------------------------------------------------------------------


class _UnitFlow:
    """Dinic max-flow on an undirected graph with unit edge capacities.

    The arc arrays are built once per graph, and one network serves any
    number of flows: each max_flow call first restores the capacity of every
    arc that the previous call pushed flow along, and of its reverse.  The
    sink is a set of vertices contracted into one: a flow ends at the first
    sink vertex it enters, so edges among sink vertices carry nothing.
    """

    def __init__(self, g: Graph):
        self.n = g.vertex_count
        self.head = head = [[] for _ in range(self.n)]  # arc indices per vertex
        self.to = to = []
        # the i-th edge (u, v), u < v, in lexicographic order becomes two
        # antiparallel unit arcs 2i = (u, v) and 2i+1 = (v, u), each acting
        # as the residual arc of the other
        for u, adjacent in enumerate(g._adjacency):
            for v in adjacent:
                if u < v:
                    head[u].append(len(to))
                    head[v].append(len(to) + 1)
                    to += (v, u)
        self.cap = [1] * len(to)
        self.pushed = []  # the arcs flow went along since the last reset

    def max_flow(self, s: int, sink: list, cutoff: float = INFINITE) -> int:
        """Flow value from s into the vertices v with sink[v] true, stopping
        once it reaches cutoff; s itself must not be a sink vertex.

        The flow starts from the paths of one or two edges into the sink:
        each arc of s that enters a sink vertex, and each arc of s to another
        vertex w followed by the first arc of w that enters one.  These paths
        are edge-disjoint.  Each leaves s by its own arc.  A second arc joins
        a non-sink w to a sink vertex, so it is no edge at s, which is no
        sink vertex, and no other path's second arc, whose non-sink end is
        another w.  So the paths form a feasible flow, and max_flow returns
        at once if they reach the cutoff.  Otherwise Dinic continues from
        them; a flow that admits no augmenting path is maximum, whatever
        flow it grew from, so the value is that of Dinic from zero.
        """
        head, to, cap, pushed = self.head, self.to, self.cap, self.pushed
        for a in pushed:
            cap[a] = cap[a ^ 1] = 1
        pushed.clear()
        flow = 0
        for a in head[s]:
            if flow >= cutoff:
                return flow
            w = to[a]
            path = (a,) if sink[w] else next(((a, b) for b in head[w] if sink[to[b]]), ())
            if path:
                for b in path:
                    cap[b] -= 1
                    cap[b ^ 1] += 1
                pushed += path
                flow += 1
        while flow < cutoff:
            level, depth = self._levels(s, sink)
            if depth < 0:
                break
            it = [0] * self.n
            while flow < cutoff and self._augment(s, sink, depth, level, it):
                flow += 1
        return flow

    def _levels(self, s: int, sink: list) -> tuple[list, int]:
        """BFS distances from s in the residual graph, and the sink's depth.

        The search stops at the first sink vertex it labels and returns its
        distance, or -1 when no sink vertex is reachable.  Every vertex still
        at -1 then lies at that depth or beyond, so no shortest path into the
        sink passes through it, and the paths _augment finds are those of the
        full level graph.  No sink vertex is ever expanded.
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
                    if sink[w]:
                        return level, nxt
                    level[w] = nxt
                    queue.append(w)
        return level, -1

    def _augment(self, s: int, sink: list, depth: int, level: list, it: list) -> int:
        """Push one unit along the first path of the level graph from s into
        the sink.

        A depth-first search with an explicit stack of arcs, so its depth is
        bounded by the heap rather than the recursion limit.  Arcs are tried
        in head order from it[u]; below the sink's depth an arc must climb one
        level, and at depth - 1 it must enter any sink vertex.  A dead end
        gets level -1 and its parent moves on to its next arc, as in the
        textbook recursive form.
        """
        head, to, cap = self.head, self.to, self.cap
        path = []  # arcs from s to u
        u = s
        while True:
            arcs = head[u]
            end = len(arcs)
            i = it[u]
            nxt = level[u] + 1
            # the next vertex must satisfy key[w] == want
            key, want = (sink, True) if nxt == depth else (level, nxt)
            while i < end:
                a = arcs[i]
                if cap[a] > 0 and key[to[a]] == want:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(a)
                if nxt == depth:
                    break
                u = to[a]
                continue
            level[u] = -1  # no route into the sink from u in this phase
            if not path:
                return 0
            u = to[path.pop() ^ 1]
            it[u] += 1
        for a in path:
            cap[a] -= 1
            cap[a ^ 1] += 1
        self.pushed += path
        return 1


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
    """Global minimum edge cut: delta_min on a graph marked vertex-transitive,
    a bridge search when delta_min <= 2, otherwise max flows from each new
    vertex of a growing dominating set into the vertices already chosen.

    Vertex-transitive graphs.  A connected vertex-transitive graph has lambda
    = delta_min (W. Mader, "Minimale n-fach kantenzusammenhaengende Graphen",
    Math. Ann. 191, 1971), so a graph its generator marks so (see Graph._of)
    takes neither search.  In short: suppose lambda < delta_min, and call an
    atom a smallest side A of a minimum cut.  Distinct atoms are disjoint,
    and automorphisms map atoms to atoms, so the atoms are blocks: those
    that fix A act transitively on it, and G[A] is regular of some degree
    delta_A.  G is connected, so delta_A < delta_min and lambda = |A|
    (delta_min - delta_A) >= |A|.  But a side of a cut below delta_min has
    more than delta_min vertices (Exactness, below), so lambda >= |A| >
    delta_min, a contradiction.

    Small minimum degree.  The edges at a vertex of minimum degree form a
    cut, so lambda <= delta_min; lambda >= 1 exactly when g is connected, and
    lambda >= 2 exactly when it is connected and no single edge (a bridge)
    disconnects it.  So for delta_min <= 2, lambda = min(delta_min,
    _connectivity_up_to_two(g)), in O(n + m).

    Otherwise Matula ("Determining edge connectivity in O(nm)", FOCS 1987),
    refining Esfahanian & Hakimi (1984).  Start from L = delta_min, an upper
    bound, with the sink set {0} and N[0] dominated.  Walk the vertices in id
    order; each undominated v takes a max flow, with cutoff L, into the sink
    set contracted into one vertex, lowering L, and then joins the sink set
    and marks N[v] dominated.  The vertices that take a flow, with 0, form
    the greedy dominating set D in id order.

    Exactness.  Every flow is at least lambda, since a cut between v and the
    sink set is an edge cut of g, and lambda <= delta_min.  Suppose lambda <
    delta_min and let (A, B) be a minimum cut with 0 in A.  A side S with
    |S| <= delta_min would send at least |S| (delta_min - |S| + 1) >=
    delta_min edges across, since each of its vertices has at most |S| - 1
    neighbours inside.  So |B| > lambda, while at most lambda vertices of B
    touch the cut: some vertex of B has no neighbour across it.  D dominates
    that vertex, so D meets B.  The first vertex of D in B sends its flow
    into a sink set that lies wholly in A, so (A, B) separates them and that
    flow is lambda.  When D = {0}, vertex 0 is adjacent to every other
    vertex, so lambda = delta_min.

    Cost.  The sink set soon dominates most of the graph, so most of each
    flow runs along paths of one or two edges, which max_flow pushes before
    any level search, and the searches that remain end within a few levels
    of v instead of running out to the far side of the graph.  One flow
    network is built per graph, and each flow restores only the arcs that
    the one before it pushed along, so a flow pays for the arcs it touches
    and not for all 2m: on the hypercube Q14 read from an edge list, 8,191
    flows over 229,376 arcs.  Augmentation is iterative, so no input reaches
    the recursion limit.
    """
    if g.vertex_count < 2:
        raise ValueError("edge connectivity needs at least two vertices")
    best = g.min_degree
    if g._vertex_transitive:
        return best
    if best <= 2:
        return min(best, _connectivity_up_to_two(g))
    adjacency = g._adjacency
    sink = [False] * g.vertex_count
    dominated = [False] * g.vertex_count
    sink[0] = dominated[0] = True
    for w in adjacency[0]:
        dominated[w] = True
    flow = None
    for v in range(1, g.vertex_count):
        if dominated[v]:
            continue
        if flow is None:
            flow = _UnitFlow(g)
        best = min(best, flow.max_flow(v, sink, cutoff=best))
        if best == 0:
            break
        sink[v] = dominated[v] = True
        for w in adjacency[v]:
            dominated[w] = True
    return best


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    ids = tuple(range(n))
    return Graph._of(tuple(ids[:v] + ids[v + 1 :] for v in ids), vertex_transitive=True)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    inner = ((v - 1, v + 1) for v in range(1, n - 1))
    return Graph._of(((1, n - 1), *inner, (0, n - 2)), vertex_transitive=True)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path graph needs n >= 1")
    if n == 1:
        return Graph(1)
    inner = ((v - 1, v + 1) for v in range(1, n - 1))
    return Graph._of(((1,), *inner, (n - 2,)))


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    return Graph._of((tuple(range(1, n)),) + ((0,),) * (n - 1))


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
    import heapq  # here, not at the top: no other CLI path imports it

    edges = []
    # a min-heap of the current leaves: every step joins the smallest one,
    # so the decoding stays deterministic; ascending order is already a heap
    leaves = [v for v in range(n) if degree[v] == 1]
    for x in prufer:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
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
        """The grid's sorted adjacency, built one leading coordinate at a time.

        With k = 1 the grid is K_n.  A vertex of the grid with one more
        coordinate is a * size + r, where a is its leading coordinate, r a
        vertex of the smaller grid and size its order.  Its neighbours are
        b * size + r for every b != a, and a * size + w for every neighbour w
        of r.  The latter lie in [a * size, (a + 1) * size), so those with
        b < a, then those, then those with b > a come in sorted order.

        The grid is the Cayley graph of Z_n^k whose generators change one
        coordinate: x -> x + g is an automorphism for every g, so the graph
        is marked vertex-transitive, and it is connected.
        """
        n = self.n
        adjacency = complete_graph(n)._adjacency
        size = n
        for _ in range(self.k - 1):
            columns = [tuple(range(r, r + n * size, size)) for r in range(size)]
            grown = []
            for a in range(n):
                base = a * size
                for column, inner in zip(columns, adjacency):
                    grown.append(column[:a] + tuple([base + w for w in inner]) + column[a + 1 :])
            adjacency = tuple(grown)
            size *= n
        return Graph._of(adjacency, vertex_transitive=True)


def grid_graph(n: int, k: int) -> Graph:
    return GridGraphSpec(n, k).to_graph()


def generate(family: str, n: int, k: int | None = None, seed: int = 0) -> Graph:
    """Build a named graph family; see GRAPH_FAMILIES for the choices.  Its
    vertices plus edges, by the family's formula, must not exceed MAX_SIZE."""
    if family == "complete":
        check_size(n + n * (n - 1) // 2, "complete graph")
        return complete_graph(n)
    if family in ("cycle", "path", "star", "tree"):
        check_size(2 * n, f"{family} graph")  # at most n edges
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
        spec = GridGraphSpec(n, k)
        # n**k >= 2**k, so capping the exponent at MAX_SIZE's bit length
        # keeps the check exact without computing n**k for a huge k
        order = n ** min(k, MAX_SIZE.bit_length())
        check_size(order + order * k * (n - 1) // 2, "grid graph")
        return spec.to_graph()
    raise ValueError(f"unknown graph family {family!r}")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "N M", then M lines "u v" with u < v
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, stream) -> None:
    stream.write(f"{g.vertex_count} {g.edge_count}\n")
    for u, v in _sorted_edges(g):
        stream.write(f"{u} {v}\n")


def read_edge_list(stream) -> Graph:
    lines = [line.strip() for line in stream if line.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"malformed header line {lines[0]!r}") from None
    check_size(n + m, f"edge-list header {lines[0]!r}")
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
