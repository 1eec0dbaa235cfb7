"""Oracle suite: every closed form checked against an independent route.

Each check pits a fast or closed-form implementation against brute force
(dense channel composition, exhaustive cut enumeration, full spectral
decomposition, ...) at desk scale and reports the first counterexample on
failure.  The CLI verify subcommand and the acceptance tests both run these
checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Iterable

from . import protocol as protocol_mod
from . import spiders as spiders_mod
from .channels import path_teleport_visibility
from .graphs import (
    INFINITE,
    Graph,
    GridGraphSpec,
    _bfs_distances,
    _UnitFlow,
    complete_graph,
    cycle_graph,
    diameter,
    edge_connectivity,
    generate,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from .spectra import (
    _mixed_term,
    _ppt_sign_test,
    is_ppt_teleported_ghz,
    min_eigenvalue_teleported_ghz,
    ppt_crossover,
)

if TYPE_CHECKING:
    import numpy as np

    from .hilbert import DensityOperator, PureStateVector

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# dense and exhaustive oracles: the routes that the closed forms replace
# ---------------------------------------------------------------------------


def apply_noisy_teleport(rho: DensityOperator, p: float, factor: int) -> DensityOperator:
    """Send one tensor factor through the noisy teleportation channel.

    Basis action on the chosen factor: |i><j| -> p|i><j| + (1-p) d_ij I/d.
    """
    import numpy as np

    from .hilbert import DensityOperator, partial_trace

    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if not 0 <= factor < len(rho.dims):
        raise ValueError(f"factor {factor} outside range [0, {len(rho.dims)})")
    if p == 1.0:
        return rho
    d = rho.dims[factor]
    if len(rho.dims) == 1:
        mixed = rho.matrix.trace() * np.eye(d) / d
        return DensityOperator(rho.dims, p * rho.matrix + (1.0 - p) * mixed)
    rest = partial_trace(rho, [factor])
    # rebuild tr_f(rho) (x) I/d with the identity back at position `factor`
    dims_shuffled = rest.dims + (d,)
    k = len(dims_shuffled)
    product = np.kron(rest.matrix, np.eye(d) / d).reshape(dims_shuffled + dims_shuffled)
    order = list(range(k - 1))
    order.insert(factor, k - 1)
    axes = order + [a + k for a in order]
    mixed = product.transpose(axes).reshape(rho.total_dim, rho.total_dim)
    return DensityOperator(rho.dims, p * rho.matrix + (1.0 - p) * mixed)


def star_teleport(rho: DensityOperator, p: float) -> DensityOperator:
    """Send every factor through the noisy teleportation channel independently."""
    d = rho.dims[0]
    if any(dim != d for dim in rho.dims):
        raise ValueError(f"all factors must share one local dimension, got {rho.dims}")
    for factor in range(len(rho.dims)):
        rho = apply_noisy_teleport(rho, p, factor)
    return rho


def _component_diagonal(n: int, noisy_set: frozenset) -> np.ndarray:
    import numpy as np

    clean_mask = 0
    for position in range(n):
        if position not in noisy_set:
            clean_mask |= 1 << (n - 1 - position)
    k = len(noisy_set)
    indices = np.arange(2**n)
    diag = np.zeros(2**n)
    diag[(indices & clean_mask) == 0] += 0.5 / 2**k
    diag[(indices & clean_mask) == clean_mask] += 0.5 / 2**k
    return diag


def depolarized_ghz_component(n: int, noisy: Iterable[int]) -> DensityOperator:
    """GHZ correlations on the clean qubits, white noise on the rest.

    The noisy subset C (0-based qubit positions, nonempty and proper) is
    fully depolarized while the remaining qubits keep the classical GHZ
    mixture: (1/2)(|0..0><0..0| + |1..1><1..1|) (x) I_C / 2^|C|, with every
    factor at its original position.  The result is diagonal.
    """
    import numpy as np

    from .hilbert import DensityOperator

    noisy_set = frozenset(int(c) for c in noisy)
    if any(not 0 <= c < n for c in noisy_set):
        raise ValueError(f"noisy subset {sorted(noisy_set)} outside range [0, {n})")
    if not noisy_set or len(noisy_set) == n:
        raise ValueError("noisy subset must be nonempty and proper")
    return DensityOperator((2,) * n, np.diag(_component_diagonal(n, noisy_set).astype(complex)))


def teleported_ghz_closed_form(n: int, p: float) -> DensityOperator:
    """The n-qubit GHZ state after every share went through the channel.

    Assembles p^n * GHZ  +  sum over k and noisy subsets C of
    p^(n-k) (1-p)^k * (depolarized component for C)  +  (1-p)^n * I/2^n.
    Subsets are accumulated in lexicographic order for reproducible sums.
    """
    import numpy as np

    from .hilbert import DensityOperator, _require_capacity, ghz

    if n < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    total = 2**n
    _require_capacity(total)
    diag = np.zeros(total)
    for k in range(1, n):
        weight = p ** (n - k) * (1.0 - p) ** k
        if weight == 0.0:
            continue
        for subset in combinations(range(n), k):
            diag += weight * _component_diagonal(n, frozenset(subset))
    diag += (1.0 - p) ** n / total
    matrix = np.diag(diag.astype(complex))
    matrix += p**n * ghz(n).density().matrix
    return DensityOperator((2,) * n, matrix)


def _spectrum_table(n: int, p: float, cut) -> dict[tuple[int, int], float]:
    """Every eigenvalue of the partially transposed teleported GHZ state
    across the qubits in cut, keyed by (basis integer j, sign).

    The state is permutation invariant, so a cut holding qubit n-1 has it
    swapped with the smallest qubit outside.  The bits of r then flag the
    cut, qubit q at 2^(n-2-q), and the value at (j, sign) is mixed(w_j),
    plus sign * p^n/2 at j = r, with w_j the Hamming weight of j.  The table
    must sum to one.  Takes a nonempty proper cut of 0..n-1 only.
    """
    from .hilbert import ATOL_INVARIANT

    subset = frozenset(cut)
    if n - 1 in subset:
        subset = (subset - {n - 1}) | {min(set(range(n)) - subset)}
    r = sum(1 << (n - 2 - q) for q in subset)
    shift = p**n / 2.0
    table = {}
    for j in range(2 ** (n - 1)):
        mixed = _mixed_term(n, p, j.bit_count())
        table[(j, 1)] = mixed + shift if j == r else mixed
        table[(j, -1)] = mixed - shift if j == r else mixed
    trace = math.fsum(table.values())
    if abs(trace - 1.0) > ATOL_INVARIANT:
        raise AssertionError(f"spectrum sums to {trace!r}, expected 1")
    return table


def noise_overlap_closed(n: int, p: float, j: int) -> float:
    """Closed form of the noise-component overlap on basis vector j.

    This is the expectation, on the j-th GHZ-type basis vector, of the sum of
    all partially depolarized components of the teleported GHZ state; it
    depends on j only through its Hamming weight w: the mixed term at w, less
    the fully depolarized component and, for j = 0, the noiseless GHZ weight.
    """
    _check_overlap_args(n, p, j)
    noiseless = p**n / 2 if j == 0 else 0.0
    return _mixed_term(n, p, j.bit_count()) - ((1 - p) / 2) ** n - noiseless


def noise_overlap_direct(n: int, p: float, j: int) -> float:
    """Counting-form oracle for noise_overlap_closed.

    Sums p^(n-k) ((1-p)/2)^k over the noisy-subset sizes k, weighted by the
    number of subsets whose complement sees constant bits of j: subsets
    containing all one-bits plus subsets containing all zero-bits.
    """
    _check_overlap_args(n, p, j)
    w = j.bit_count()  # the implicit last bit of j is 0
    total = 0.0
    for k in range(1, n):
        ones = math.comb(n - w, k - w) if k >= w else 0
        zeros = math.comb(w, k - (n - w)) if k >= n - w else 0
        total += (ones + zeros) * p ** (n - k) * ((1 - p) / 2) ** k
    return 0.5 * total


def _check_overlap_args(n: int, p: float, j: int):
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if not 0 <= j < 2 ** (n - 1):
        raise ValueError(f"index {j} outside [0, {2 ** (n - 1)})")


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
# helpers
# ---------------------------------------------------------------------------


def random_connected_graph(rng: random.Random, max_vertices: int = 10) -> Graph:
    """Random spanning tree plus extra edges; always connected."""
    n = rng.randint(2, max_vertices)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    density = rng.choice([0.15, 0.3, 0.5])
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < density:
                edges.add((u, v))
    return Graph(n, edges)


def _visibility_of(rho) -> float:
    """Read the isotropic visibility off a dense two-factor state."""
    import numpy as np

    from .hilbert import max_entangled

    d = rho.dims[0]
    phi = max_entangled(d).vector
    overlap = np.vdot(phi, rho.matrix @ phi).real
    return min(1.0, max(0.0, (d * d * overlap - 1.0) / (d * d - 1.0)))


def _spread_subset(n_vertices: int, m: int) -> tuple[int, ...]:
    return tuple(sorted({round(i * (n_vertices - 1) / (m - 1)) for i in range(m)}))


def _class_scan_min_eigenvalues(n: int, p: float, cut_sizes) -> dict[int, float]:
    """Smallest eigenvalue for each cut size w_r, class by class.

    Walks every Hamming-weight class of the basis integers j < 2^(n-1),
    counts its members and takes a class's mixed term only when some j other
    than r lies in it; the (r, +-) pair is taken at w_r.
    """
    shift = p**n / 2.0
    classes, count = [], 1  # count runs along the binomial row C(n-1, w)
    for w in range(n):
        classes.append((w, count, _mixed_term(n, p, w)))
        count = count * (n - 1 - w) // (w + 1)
    minima = {}
    for w_r in cut_sizes:
        smallest = math.inf
        for w, count, base in classes:
            if w == w_r:
                smallest = min(smallest, base - shift, base + shift)
                count -= 1  # r itself accounted for above
            if count > 0:
                smallest = min(smallest, base)
        minima[w_r] = smallest
    return minima


def _per_call_sign_nonnegative(n: int, p: float, w: int) -> bool:
    """Oracle twin of spectra._ppt_sign_test: the four logarithms and numpy's
    logaddexp recomputed for every n."""
    import numpy as np

    # sign of the (r, -) eigenvalue: -1 + ((1+p)/2p)^n ((1-p)/(1+p))^w
    #                                   + ((1-p)/2p)^n ((1+p)/(1-p))^w  >= 0
    log_a = n * math.log((1 + p) / (2 * p)) + w * math.log((1 - p) / (1 + p))
    log_b = n * math.log((1 - p) / (2 * p)) + w * math.log((1 + p) / (1 - p))
    return bool(np.logaddexp(log_a, log_b) >= 0.0)


def _linear_crossover(p: float, w: int) -> int:
    """Oracle twin of spectra.ppt_crossover: the first n >= w+1 at which the
    sign test passes, found by trying every n in turn."""
    nonnegative = _ppt_sign_test(p, w)
    n = w + 1
    while not nonnegative(n):
        n += 1
    return n


def _per_call_crossover(p: float, w: int) -> int:
    """First n >= w+1 at which the per-call twin turns nonnegative."""
    n = w + 1
    while not _per_call_sign_nonnegative(n, p, w):
        n += 1
    return n


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _single_sink(g: Graph, v: int) -> list:
    """The sink flags of _UnitFlow.max_flow for the one target v."""
    sink = [False] * g.vertex_count
    sink[v] = True
    return sink


def max_edge_disjoint_paths(g: Graph, u: int, v: int) -> int:
    """Maximum number of pairwise edge-disjoint u-v paths (unit-capacity max flow)."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("endpoints must differ")
    return _UnitFlow(g).max_flow(u, _single_sink(g, v))


def _all_targets_edge_connectivity(g: Graph) -> int:
    """Minimum over every target v != 0 of the max flow from vertex 0 to v.

    Every cut separates vertex 0 from some other vertex, so this is exact
    without any reduction.  Each target gets a sink of that one vertex and
    every capacity reset to 1 over one shared arc layout, so no flow depends
    on the arcs that max_flow restores after the flow before it.
    """
    best = g.vertex_count * g.vertex_count  # above any possible cut
    flow = _UnitFlow(g)
    for v in range(1, g.vertex_count):
        flow.cap = [1] * len(flow.to)
        flow.pushed.clear()
        best = min(best, flow.max_flow(0, _single_sink(g, v), cutoff=best))
        if best == 0:
            break
    return best


def _with_unflagged_copies(graphs: list) -> list:
    """The named graphs, each followed by its copy rebuilt from its edges.
    A copy is equal to its graph, but no generator marks it
    vertex-transitive, so edge_connectivity and diameter take their general
    routes on it."""
    return [
        pair
        for graph_id, g in graphs
        for pair in ((graph_id, g), (f"{graph_id}-unflagged", Graph(g.vertex_count, g.edges)))
    ]


def _per_source_diameter(g: Graph):
    """Largest pairwise distance by one BFS from every vertex; INFINITE when
    the graph is not connected."""
    worst = 0
    for v in range(g.vertex_count):
        worst = max(worst, max(_bfs_distances(g, v)))
        if worst == INFINITE:
            return INFINITE
    return worst


def shortest_path(g: Graph, u: int, v: int) -> tuple[int, ...] | None:
    """Oracle twin of spiders._residual_leg: the lexicographically smallest
    shortest path from u to v as its vertex tuple, or None when there is
    none.  Takes distinct vertices of g only.

    A BFS from v gives the distance-to-target field; walking greedily to the
    smallest neighbour that decreases it yields the unique lexicographically
    smallest vertex sequence among all shortest paths.
    """
    dist = _bfs_distances(g, v)
    if dist[u] == INFINITE:
        return None
    adjacency = g._adjacency
    vertices = [u]
    current = u
    while current != v:
        current = next(w for w in adjacency[current] if dist[w] == dist[current] - 1)
        vertices.append(current)
    return tuple(vertices)


def _remove_path_edges(g: Graph, path: tuple) -> Graph:
    """g rebuilt without exactly the edges between consecutive vertices of
    path; the vertex set is unchanged."""
    path_edges = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
    for e in path_edges:
        if e not in g.edges:
            raise ValueError(f"path edge {e} absent from graph")
    return Graph(g.vertex_count, g.edges - set(path_edges))


def _rebuild_extract_spiders(
    g: Graph, subset, center: int, max_spiders: int | None = None
) -> spiders_mod.SpiderDecomposition:
    """Oracle twin of spiders.extract_spiders: each leg is shortest_path
    on the residual graph, rebuilt as a whole Graph without the edges of the
    legs before it.  Takes valid arguments only."""
    verts = frozenset(subset)
    bound = spiders_mod._leg_length_bound(g.min_degree, g.vertex_count)
    base_dist = _bfs_distances(g, center)
    targets = sorted(verts - {center}, key=lambda v: (base_dist[v], v))
    residual = g
    spiders = []
    while max_spiders is None or len(spiders) < max_spiders:
        legs = {}
        for target in targets:
            path = shortest_path(residual, center, target)
            if path is None or len(path) - 1 > bound:
                legs = None
                break
            residual = _remove_path_edges(residual, path)
            legs[target] = path
        if legs is None:
            break
        spiders.append(legs)
    return spiders_mod.SpiderDecomposition(verts, center, tuple(spiders), int(bound))


def _family_edges(family: str, n: int, k: int | None = None) -> list[tuple[int, int]]:
    """Oracle twin of the family generators: the family's edges one pair at
    a time, by its defining formula."""
    if family == "complete":
        return list(combinations(range(n), 2))
    if family == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "star":
        return [(0, i) for i in range(1, n)]
    # the grid: coordinate m of a vertex id is vid // n**(k-1-m) % n, and
    # raising it from c to c2 adds (c2 - c) * n**(k-1-m) to the id
    strides = [n ** (k - 1 - m) for m in range(k)]
    edges = []
    for vid in range(n**k):
        for stride in strides:
            top = vid + (n - vid // stride % n) * stride
            edges.extend((vid, other) for other in range(vid + stride, top, stride))
    return edges


def random_graph(rng: random.Random, n: int, density: float) -> Graph:
    """Erdos-Renyi graph on n vertices; may be disconnected."""
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


def _shuffled_graph(rng: random.Random, n: int, edges) -> Graph:
    """The graph on n vertices with the given edges, vertex ids shuffled."""
    relabel = list(range(n))
    rng.shuffle(relabel)
    return Graph(n, [(relabel[u], relabel[v]) for u, v in edges])


def _cycle_edges(vertices) -> list[tuple[int, int]]:
    vertices = list(vertices)
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def _planted_cut(rng: random.Random, left: Graph, right: Graph, k: int) -> Graph:
    """Disjoint copies of left and right joined by k distinct cross edges,
    with the vertex ids shuffled, so vertex 0 may land on either side."""
    a, b = left.vertex_count, right.vertex_count
    cross = rng.sample([(u, v) for u in range(a) for v in range(a, a + b)], k)
    edges = [*sorted(left.edges), *((u + a, v + a) for u, v in sorted(right.edges)), *cross]
    return _shuffled_graph(rng, a + b, edges)


def planted_cut_graph(rng: random.Random, a: int, b: int, k: int) -> Graph:
    """Cliques on a and b vertices joined by k distinct cross edges, with the
    vertex ids shuffled; for k < min(a, b) - 1 the k edges are the only
    minimum cut, below the minimum degree."""
    return _planted_cut(rng, complete_graph(a), complete_graph(b), k)


def _hub_and_paths(leaves: int, tails) -> Graph:
    """Hub 0 with the given number of leaves and one path of each length in
    tails hanging from it: a broom for one tail, a hub with long tails for
    two."""
    edges = [(0, v) for v in range(1, leaves + 1)]
    n = leaves + 1
    for length in tails:
        path = [0, *range(n, n + length)]
        edges += zip(path, path[1:])
        n += length
    return Graph(n, edges)


def _prism(h: int) -> Graph:
    """The prism C_h x K2: two h-cycles, ids 0..h-1 and h..2h-1 around each,
    with i joined to h + i; 3-regular, with diameter h // 2 + 1."""
    ring = _cycle_edges(range(h))
    rungs = [(i, h + i) for i in range(h)]
    return Graph(2 * h, [*ring, *((u + h, v + h) for u, v in ring), *rungs])


def _knotted_path(n: int) -> Graph:
    """A path from leaf 0 into a knot of seven vertices whose far end n - 1
    is of degree 3, the largest: (0, n - 1) is the one diametral pair, and
    it fills the first and the last row of diameter()'s degree order."""
    p = n - 7
    c1, c2, x, y, z = range(p + 1, p + 6)
    knot = [(p, c1), (p, c2), (c1, x), (c1, y), (c2, z), (x, n - 1), (y, n - 1), (z, n - 1)]
    return Graph(n, [*((v, v + 1) for v in range(p)), *knot])


def _caterpillar(rng: random.Random, spine: int, most_leaves: int) -> Graph:
    """A path of spine vertices, each carrying 0..most_leaves leaves of its
    own, with the vertex ids shuffled: many degree classes on a long path."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    n = spine
    for v in range(spine):
        k = rng.randint(0, most_leaves)
        edges += ((v, leaf) for leaf in range(n, n + k))
        n += k
    return _shuffled_graph(rng, n, edges)


def _lollipop(clique: int, tail: int) -> tuple[Graph, int]:
    """K_clique with two paths of tail edges, from vertices 0 and 1, that
    meet at one target vertex; returns the graph and that target."""
    target = clique + 2 * (tail - 1)
    edges = list(complete_graph(clique).edges)
    for start, first in ((0, clique), (1, clique + tail - 1)):
        path = [start, *range(first, first + tail - 1), target]
        edges += zip(path, path[1:])
    return Graph(target + 1, edges), target


def _clique_chain(dmin: int, k: int) -> Graph:
    """Cliques of sizes 1, dmin, 1, then k times 1, dmin - 1, 1, then 1, dmin,
    1, each wholly joined to the next: minimum degree dmin and diameter
    3k + 5, within 6/(dmin + 1) of the bound 3n/(dmin + 1) - 1."""
    sizes = [1, dmin, 1, *[1, dmin - 1, 1] * k, 1, dmin, 1]
    bounds = [0, *accumulate(sizes)]
    edges = []
    for i in range(len(sizes)):
        block = range(bounds[i], bounds[i + 1])
        edges += combinations(block, 2)
        if i + 1 < len(sizes):
            edges += ((u, v) for u in block for v in range(bounds[i + 1], bounds[i + 2]))
    return Graph(bounds[-1], edges)


def _low_degree_graphs(rng: random.Random) -> list[tuple[str, Graph]]:
    """Graphs of minimum degree <= 2: two cycles joined by a bridge, sharing
    a cut vertex (no bridge) or disjoint, a cycle with a pendant path, and
    sparse random graphs, connected or not."""
    graphs = []
    for _ in range(6):
        a, b = rng.randint(3, 20), rng.randint(3, 20)
        cycles = _cycle_edges(range(a)) + _cycle_edges(range(a, a + b))
        bridge = (rng.randrange(a), a + rng.randrange(b))
        shared = _cycle_edges(range(a)) + _cycle_edges([0, *range(a, a + b - 1)])
        pendant = [rng.randrange(a), *range(a, a + b)]
        pendant = _cycle_edges(range(a)) + list(zip(pendant, pendant[1:]))
        graphs += [
            (f"bridged-cycles-{a}-{b}", _shuffled_graph(rng, a + b, [*cycles, bridge])),
            (f"shared-vertex-{a}-{b}", _shuffled_graph(rng, a + b - 1, shared)),
            (f"pendant-path-{a}-{b}", _shuffled_graph(rng, a + b, pendant)),
            (f"two-cycles-{a}-{b}", _shuffled_graph(rng, a + b, cycles)),
        ]
    for trial in range(30):
        n = rng.randint(8, 60)
        if trial % 3 == 0:
            g = random_graph(rng, n, rng.choice([2.0, 3.0, 4.0]) / n)
        elif trial % 3 == 1:  # a random spanning tree and chords: bridges likely
            chords = [rng.sample(range(n), 2) for _ in range(n // 4)]
            g = Graph(n, [*((rng.randrange(v), v) for v in range(1, n)), *chords])
        else:  # two Hamiltonian blocks with chords, joined by 0, 1 or 2 edges
            a = rng.randint(3, n - 3)
            cross = [(u, v) for u in range(a) for v in range(a, n)]
            edges = rng.sample(cross, rng.randint(0, 2))
            for part in (range(a), range(a, n)):
                edges += _cycle_edges(rng.sample(part, len(part)))
                edges += [rng.sample(part, 2) for _ in range(len(part) // 4)]
            g = Graph(n, edges)
        if g.min_degree <= 2:
            graphs.append((f"sparse-{trial}", g))
    return graphs


# ---------------------------------------------------------------------------
# checks (one per acceptance criterion): each returns its pass detail and
# raises _Counterexample at the first counterexample
# ---------------------------------------------------------------------------


class _Counterexample(Exception):
    """A check's first counterexample; the message is its FAIL detail.

    Not a ValueError, which the CLI reports as a usage error (exit 2)."""


def check_teleported_ghz_closed_form(seed, tol_scale, fault) -> str:
    import numpy as np

    from .hilbert import ghz

    tol = 1e-10 * tol_scale
    for n in range(2, 7):
        ghz_state = ghz(n).density()
        for p in (0.0, 0.3, 0.7, 0.9, 1.0):
            closed = teleported_ghz_closed_form(n, p).matrix
            # under a fault the dense route runs at p(1 - fault)
            brute = star_teleport(ghz_state, p * (1 - fault)).matrix
            deviation = np.abs(closed - brute).max()
            if deviation > tol:
                raise _Counterexample(
                    f"n={n} p={p}: max entrywise deviation {deviation:.3e} > {tol:.1e}"
                )
    return "n in 2..6, p grid, <= 1e-10"


def check_ghz_basis_eigenstructure(seed, tol_scale, fault) -> str:
    import numpy as np

    from .hilbert import ghz_basis

    tol = 1e-12 * tol_scale
    for n in range(2, 7):
        basis = [
            (j, sign, ghz_basis(n, j, sign).vector)
            for j in range(2 ** (n - 1))
            for sign in (1, -1)
        ]
        for k in range(1, n):
            for noisy in combinations(range(n), k):
                sigma = depolarized_ghz_component(n, noisy).matrix
                outside = [q for q in range(n) if q not in noisy]
                for j, sign, vec in basis:
                    bits = {
                        (j >> (n - 2 - q)) & 1 if q < n - 1 else 0 for q in outside
                    }
                    # under a fault each nonzero overlap reads (1 + fault) too high
                    expected = (1 + fault) / 2 ** (k + 1) if len(bits) == 1 else 0.0
                    value = np.vdot(vec, sigma @ vec).real
                    if abs(value - expected) > tol:
                        raise _Counterexample(
                            f"n={n} C={noisy} j={j} sign={sign}: "
                            f"got {value!r}, expected {expected!r}"
                        )
    return "n <= 6, all subsets and basis vectors, exact"


def check_noise_overlap_forms(seed, tol_scale, fault) -> str:
    tol = 1e-12 * tol_scale
    p_grid = [round(0.1 * i, 1) for i in range(11)]
    for n in range(2, 13):
        for p in p_grid:
            for j in range(2 ** (n - 1)):
                closed = noise_overlap_closed(n, p, j) + fault
                direct = noise_overlap_direct(n, p, j)
                if abs(closed - direct) > tol:
                    raise _Counterexample(
                        f"n={n} p={p} j={j}: closed {closed!r} vs direct {direct!r}"
                    )
    return "n <= 12, full index range, <= 1e-12"


def check_ptranspose_spectrum(seed, tol_scale, fault) -> str:
    import numpy as np

    from .hilbert import ghz_basis, partial_transpose

    tol = 1e-9 * tol_scale
    for n in range(2, 9):
        cuts = [(q,) for q in range(n - 1)]
        cuts += list(combinations(range(n - 1), 2))
        if n >= 3:
            cuts.append((0, n - 1))  # exercises the relabelling convention
        for p in (0.3, 0.6, 0.9):
            state = teleported_ghz_closed_form(n, p)
            for cut in cuts:
                transposed = partial_transpose(state, cut)
                dense = np.sort(np.linalg.eigvalsh(transposed))
                # under a fault the table is built at p(1 - fault)
                table = _spectrum_table(n, p * (1 - fault), cut)
                closed = np.sort(list(table.values()))
                deviation = np.abs(dense - closed).max()
                if deviation > tol:
                    raise _Counterexample(
                        f"n={n} p={p} M={cut}: multiset deviation {deviation:.3e}"
                    )
                if n - 1 not in cut:
                    for j in range(2 ** (n - 1)):
                        for sign in (1, -1):
                            vec = ghz_basis(n, j, sign).vector
                            value = np.vdot(vec, transposed @ vec).real
                            ref = table[(j, sign)]
                            if abs(value - ref) > tol:
                                raise _Counterexample(
                                    f"n={n} p={p} M={cut} j={j} sign={sign}: "
                                    f"pairing deviation {abs(value - ref):.3e}"
                                )
    return "n <= 8, singleton/doubleton cuts, <= 1e-9"


def check_ppt_crossover(seed, tol_scale, fault) -> str:
    # each anchor by the search and by the linear twin (at p(1 - fault), which
    # moves the 0.9999 anchor by thousands)
    for p, expected in ((0.9, 55), (0.9999, 198054)):
        anchor, scanned = ppt_crossover(p, 1), _linear_crossover(p * (1 - fault), 1)
        if anchor != expected or scanned != expected:
            raise _Counterexample(
                f"crossover({p}, 1) = {anchor}, linear scan {scanned}, expected {expected}"
            )
    for p in (0.5, 0.7, 0.9):
        for w in (1, 2):
            n0 = ppt_crossover(p, w)
            if not is_ppt_teleported_ghz(n0, p, w):
                raise _Counterexample(f"p={p} w={w}: not PPT at n0={n0}")
            if _class_scan_min_eigenvalues(n0, p, [w])[w] < 0.0:
                raise _Counterexample(f"p={p} w={w}: class scan negative at n0={n0}")
            if n0 - 1 >= w + 1 and is_ppt_teleported_ghz(n0 - 1, p, w):
                raise _Counterexample(f"p={p} w={w}: PPT already at n0-1={n0 - 1}")
    return "anchors 55 and 198054 and exact boundaries"


def check_ppt_sign_test(seed, tol_scale, fault) -> str:
    rng = random.Random(seed + 6)
    compared = 0

    def compare(p, w, ns):
        nonlocal compared
        test = _ppt_sign_test(p, w)
        for n in ns:
            compared += 1
            fast, twin = test(n), _per_call_sign_nonnegative(n, p * (1 - fault), w)
            if fast != twin:
                raise _Counterexample(
                    f"p={p!r} w={w} n={n}: sign test {fast}, per-call twin {twin}"
                )

    # every n of a band above w and, up to p = 0.999 where the twin's own
    # scan stays cheap, the crossover and its neighbours on both sides
    for p in (1e-9, 0.1, 1 / 3, 0.34, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999):
        for w in range(1, 7):
            ns = [*range(w + 1, w + 301)]
            if p <= 0.999:
                n0, scanned = ppt_crossover(p, w), _per_call_crossover(p * (1 - fault), w)
                if n0 != scanned:
                    raise _Counterexample(
                        f"p={p!r} w={w}: ppt_crossover {n0}, per-call scan {scanned}"
                    )
                ns += range(max(w + 1, n0 - 3), n0 + 4)
            compare(p, w, ns)
    for _ in range(300):
        p = rng.choice([rng.uniform(1e-9, 1.0 - 1e-9), 1.0 - 10 ** rng.uniform(-6, -1)])
        w = rng.randint(1, 8)
        compare(p, w, [rng.randint(w + 1, 10 ** rng.randint(2, 7))])
    return (
        f"{compared} (p, w, n): 10 visibilities x w = 1..6 over n = w+1..w+300 and "
        "n0 +- 3, 300 random up to n = 1e7; crossover equals the per-call scan "
        "up to p = 0.999; exact"
    )


def check_ppt_crossover_gallop(seed, tol_scale, fault) -> str:
    rng = random.Random(seed + 7)
    # the search against the linear twin, exactly, where the twin stays cheap
    # (p <= 1/3 gives n0 = w+1; p = 0.9999 scans up to n0 = 1.6e6)
    grid = (1e-9, 0.1, 0.2, 1 / 3, 0.34, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999)
    pairs = [(p, w) for p in grid for w in range(1, 9)]
    pairs += [(rng.uniform(1e-9, 0.999), rng.randint(1, 8)) for _ in range(200)]
    for p, w in pairs:
        n0, scanned = ppt_crossover(p, w), _linear_crossover(p * (1 - fault), w)
        if n0 != scanned:
            raise _Counterexample(f"p={p!r} w={w}: ppt_crossover {n0}, linear scan {scanned}")
    # beyond the twin's reach, up to p = 1 - 1e-12: the boundary alone
    high = [1 - 10.0**-k for k in range(5, 13)]
    high += [1 - 10 ** rng.uniform(-12, -4) for _ in range(40)]
    for p in high:
        for w in range(1, 9):
            n0 = ppt_crossover(p, w)
            nonnegative = _ppt_sign_test(p * (1 - fault), w)
            if (n0 - 1 > w and nonnegative(n0 - 1)) or not nonnegative(n0):
                raise _Counterexample(f"p={p!r} w={w}: sign test not switching at n0={n0}")
    return (
        f"{len(pairs)} (p, w) up to p = 0.9999 equal the linear scan; "
        f"{8 * len(high)} up to p = 1 - 1e-12 fail at n0-1 and pass at n0"
    )


def check_min_eigenvalue_closed_form(seed, tol_scale, fault) -> str:
    tol = 1e-12 * tol_scale
    rng = random.Random(seed + 3)
    grid = (0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
    # the full eigenvalue table for n <= 10 and every cut size: the whole grid
    # and a random draw up to n = 7, then one p per cut size (grid value and
    # random draw alternating; a table at n = 10 holds 2048 eigenvalues)
    for n in range(2, 11):
        for w in range(1, n):
            if n <= 7:
                p_values = [*grid, rng.uniform(1e-3, 1.0)]
            elif w % 2:
                p_values = [grid[(n + w) % len(grid)]]
            else:
                p_values = [rng.uniform(1e-3, 1.0)]
            for p in p_values:
                closed = min_eigenvalue_teleported_ghz(n, p, w) + fault
                table = min(_spectrum_table(n, p, range(w)).values())
                if _relative_gap(closed, table) > tol:
                    raise _Counterexample(
                        f"n={n} w={w} p={p!r}: closed {closed!r} vs table {table!r}"
                    )
    # the class scan up to ~900 qubits, where the spectrum underflows
    for n in (11, 128, 501, 893):
        for p in (1e-9, 0.3, 0.5, 0.9, 0.9999, 1.0):
            scan = _class_scan_min_eigenvalues(n, p, {1, 2, 3, 4, n // 2, n - 1})
            for w, expected in sorted(scan.items()):
                closed = min_eigenvalue_teleported_ghz(n, p, w) + fault
                if _relative_gap(closed, expected) > tol:
                    raise _Counterexample(
                        f"n={n} w={w} p={p!r}: closed {closed!r} vs class scan {expected!r}"
                    )
    return (
        "table for n <= 10 (every cut size), class scan up to n = 893, "
        "relative <= 1e-12"
    )


def check_menger_duality(seed, tol_scale, fault) -> str:
    rng = random.Random(seed)
    for trial in range(200):
        g = random_connected_graph(rng, max_vertices=10)
        fast = edge_connectivity(g)
        # under a fault the cut enumeration reads one edge too many
        brute = edge_connectivity_exhaustive(g) + (fault > 0)
        pairwise = min(
            max_edge_disjoint_paths(g, u, v)
            for u in range(g.vertex_count)
            for v in range(u + 1, g.vertex_count)
        )
        if not fast == brute == pairwise:
            raise _Counterexample(
                f"trial {trial}: flow {fast}, cut enumeration {brute}, "
                f"pairwise minimum {pairwise} on {sorted(g.edges)}"
            )
    return "200 random connected graphs, exact"


def check_edge_connectivity_reduction(seed, tol_scale, fault) -> str:
    rng = random.Random(seed + 4)
    # the vertex-transitive families as generated, which take lambda = delta,
    # and as unflagged copies, which take the bridge search or the flows
    graphs = [(f"complete-{n}", complete_graph(n)) for n in (2, 3, 4, 7, 16, 33, 60)]
    graphs += [(f"grid-{n}-{k}", grid_graph(n, k)) for n, k in ((4, 3), (3, 4), (5, 3), (4, 4))]
    # hypercubes, the grids at n = 2: the id-order dominating set is half of them
    graphs += [(f"hypercube-{k}", grid_graph(2, k)) for k in range(2, 11)]
    graphs += [(f"cycle-{n}", cycle_graph(n)) for n in (3, 4, 9, 40)]
    graphs = _with_unflagged_copies(graphs)
    graphs += [(f"star-{n}", star_graph(n)) for n in (2, 5, 30)]
    graphs += [(f"path-{n}", path_graph(n)) for n in (2, 3, 25)]
    graphs += [(f"tree-{n}", random_tree(n, seed=seed + n)) for n in (3, 12, 50)]
    for trial in range(30):
        n = rng.randint(20, 60)
        graphs.append((f"random-{trial}", random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))))
    for trial in range(10):  # disconnected: two parts, sometimes an isolated vertex
        a, b = rng.randint(1, 12), rng.randint(2, 12)
        left, right = random_graph(rng, a, 0.7), random_graph(rng, b, 0.7)
        edges = [*left.edges, *((u + a, v + a) for u, v in right.edges)]
        graphs.append((f"disconnected-{trial}", Graph(a + b, edges)))
    for trial in range(20):
        a, b = rng.randint(4, 30), rng.randint(4, 30)
        k = rng.randint(1, min(a, b) - 2)
        graphs.append((f"planted-{a}-{b}-{k}", planted_cut_graph(rng, a, b, k)))
    for trial in range(16):
        # Hamming grids of minimum degree 6 to 9 joined by k < 6 edges: each
        # side needs several dominating vertices, so which one first crosses
        # the cut varies with the shuffled ids
        sides = [rng.choice(((3, 3), (4, 2), (4, 3), (3, 4))) for _ in range(2)]
        k = rng.randint(1, 5)
        g = _planted_cut(rng, *(grid_graph(n, d) for n, d in sides), k)
        graphs.append((f"planted-grids-{trial}-{k}", g))
    graphs += _low_degree_graphs(rng)
    twins = {}  # an unflagged copy equals its graph, and shares its twin
    for graph_id, g in graphs:
        fast = edge_connectivity(g) + fault
        if g not in twins:
            twins[g] = _all_targets_edge_connectivity(g)
        twin = twins[g]
        if fast != twin:
            raise _Counterexample(
                f"{graph_id}: edge_connectivity {fast}, all-targets flows {twin} "
                f"on {sorted(g.edges)}"
            )
    return (
        f"{len(graphs)} graphs: families, Hamming grids, hypercubes Q2-Q10, the "
        "vertex-transitive ones also unflagged, random, disconnected, planted cuts "
        "between cliques and between grids, minimum degree <= 2 with bridges and cut "
        "vertices; exact"
    )


def check_diameter_all_sources(seed, tol_scale, fault) -> str:
    rng = random.Random(seed + 5)
    graphs = [("empty-0", Graph(0)), ("empty-1", Graph(1)), ("empty-2", Graph(2))]
    graphs += [("edge-2", Graph(2, [(0, 1)])), ("isolated-5", Graph(5, [(0, 1), (1, 2), (2, 3)]))]
    # the vertex-transitive families as generated, which read ecc(0), and as
    # unflagged copies, which take the closed forms or the all-sources BFS
    marked = [(f"complete-{n}", complete_graph(n)) for n in (1, 2, 3, 17, 64, 65)]
    marked += [(f"cycle-{n}", cycle_graph(n)) for n in (3, 4, 9, 10, 63, 64, 65, 129)]
    marked += [(f"hypercube-{k}", grid_graph(2, k)) for k in range(2, 9)]
    marked += [(f"grid-{n}-{k}", grid_graph(n, k)) for n, k in ((4, 3), (3, 4), (5, 3), (12, 2))]
    graphs += _with_unflagged_copies(marked)
    graphs += [(f"path-{n}", path_graph(n)) for n in (1, 2, 3, 25, 63, 64, 65, 129)]
    graphs += [(f"star-{n}", star_graph(n)) for n in (2, 5, 65)]
    graphs += [(f"tree-{n}", random_tree(n, seed=seed + n)) for n in (1, 2, 12, 63, 64, 65, 129)]
    for n in (63, 64, 65, 129):  # sources fill a word exactly, or spill into the next
        for density in (0.02, 0.05, 0.2):
            graphs.append((f"random-{n}-{density}", random_graph(rng, n, density)))
    for trial in range(30):
        graphs.append((f"connected-{trial}", random_connected_graph(rng, max_vertices=40)))
        n = rng.randint(2, 40)
        graphs.append((f"random-{trial}", random_graph(rng, n, rng.choice([0.05, 0.1, 0.3]))))
    # many degree classes, long diameters
    graphs += [(f"broom-{k}-{h}", _hub_and_paths(k, [h])) for k, h in ((30, 200), (200, 40))]
    graphs.append(("hub-100-tails-150", _hub_and_paths(100, [150, 150])))
    for spine, most in ((60, 12), (150, 4), (30, 30)):
        graphs.append((f"caterpillar-{spine}-{most}", _caterpillar(rng, spine, most)))
    graphs += [("cycle-659", cycle_graph(659)), ("path-1200", path_graph(1200))]
    # long diameters that no closed form covers: the word-parallel BFS.  A
    # source that shares its bit or word with another hides its eccentricity,
    # which shows when its row holds one end of the only diametral pair
    graphs += [(f"knotted-path-{n}", _knotted_path(n)) for n in (63, 64, 65, 129)]
    broom = _hub_and_paths(30, [200])
    end = broom.vertex_count - 1
    graphs += [
        ("cycle-659-chord", Graph(659, [*cycle_graph(659).edges, (0, 329)])),
        ("prism-300", _prism(300)),
        ("broom-30-200-triangle", Graph(end + 1, [*broom.edges, (end - 2, end)])),
    ]
    for graph_id, g in graphs:
        fast = diameter(g) + fault
        twin = _per_source_diameter(g)
        if fast != twin:
            raise _Counterexample(
                f"{graph_id}: diameter {fast}, per-source BFS {twin} "
                f"on {sorted(g.edges)}"
            )
    return (
        f"{len(graphs)} graphs: families, hypercubes Q2-Q8 and Hamming grids, the "
        "vertex-transitive ones also unflagged, n = 0..2, isolated vertices, word "
        "boundaries at n = 63..65 and 129, random connected and not, brooms, "
        "caterpillars, a hub with two long tails, cycle-659 and path-1200 for "
        "the closed forms; knotted paths at n = 63..65 and 129, "
        "cycle-659 with a chord, prism-300 and a broom whose tail ends in a "
        "triangle for the all-sources BFS; exact"
    )


_GUARANTEE_GRAPHS = [
    ("complete-6", lambda: complete_graph(6)),
    ("complete-12", lambda: complete_graph(12)),
    ("complete-24", lambda: complete_graph(24)),
    ("complete-51", lambda: complete_graph(51)),
    ("complete-60", lambda: complete_graph(60)),
    ("grid-3-2", lambda: grid_graph(3, 2)),
    ("grid-5-2", lambda: grid_graph(5, 2)),
    ("grid-8-2", lambda: grid_graph(8, 2)),
    ("grid-3-3", lambda: grid_graph(3, 3)),
    ("grid-4-3", lambda: grid_graph(4, 3)),
]


def check_spider_guarantee(seed, tol_scale, fault) -> str:
    """Extraction meets the guaranteed count and leg bound, validates, and
    stays under the ceiling deg(center) // (m - 1): each spider takes m - 1
    of the center's edges.  Under a fault the ceiling reads one lower; it is
    tight on K6, where every center edge starts a leg."""
    for graph_id, build in _GUARANTEE_GRAPHS:
        g = build()
        n = g.vertex_count
        for m in (2, 3, 4):
            subsets = {tuple(range(m)), _spread_subset(n, m)}
            plan = protocol_mod.plan_partial_distillation(g, range(m), max_spiders=0)
            for subset in subsets:
                if len(subset) != m:
                    continue
                for center in subset:
                    where = f"{graph_id} subset={subset} center={center}"
                    dec = spiders_mod.extract_spiders(g, subset, center)
                    if dec.count < plan.spider_budget:
                        raise _Counterexample(
                            f"{where}: {dec.count} spiders < guaranteed {plan.spider_budget}"
                        )
                    ceiling = g.degree(center) // (m - 1) - (fault > 0)
                    if dec.count > ceiling:
                        raise _Counterexample(f"{where}: {dec.count} spiders > ceiling {ceiling}")
                    violation = spiders_mod.validate_spiders(dec, g)
                    if violation is not None:
                        raise _Counterexample(f"{where}: {violation}")
                    longest = max(
                        (len(leg) - 1 for legs in dec.spiders for leg in legs.values()), default=0
                    )
                    if longest > plan.leg_length_bound:
                        raise _Counterexample(f"{where}: leg length {longest} above 5/c")
    return "complete and grid ladders, all floors, ceilings and leg bounds"


def check_spider_residual(seed, tol_scale, fault) -> str:
    """extract_spiders on its residual adjacency against the rebuild twin:
    every center of each subset with max_spiders None, 1 and 3 on the small
    families, one of those limits in turn on the random graphs, and the first
    center alone on the lollipop and K100; under a fault the twin drops its
    last spider."""
    rng = random.Random(seed + 8)
    graphs = []  # (graph id, graph, subset, centers, max_spiders values)
    every = (None, 1, 3)

    def every_center(graph_id, g, subset, limits=every):
        graphs.append((graph_id, g, subset, subset, limits))

    for i, n in enumerate((3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 60)):
        m = min(n, 2 + i % 3)
        every_center(f"complete-{n}", complete_graph(n), _spread_subset(n, m))
    for n, k, m in ((4, 3, 3), (4, 4, 2), (4, 4, 4), (12, 2, 3)):
        every_center(f"grid-{n}-{k}", grid_graph(n, k), _spread_subset(n**k, m))
    for n in (3, 4, 9, 40):
        every_center(f"cycle-{n}", cycle_graph(n), _spread_subset(n, 3))
    every_center("star-9", star_graph(9), (0, 3, 8))  # centred at its hub
    # one center each: on these the twin takes 0.6-0.8 s per extraction
    lollipop, target = _lollipop(100, 30)
    graphs.append(("lollipop-100-30", lollipop, (0, target), (0,), (None,)))
    for m in (3, 9):
        subset = _spread_subset(100, m)
        graphs.append(("complete-100", complete_graph(100), subset, subset[:1], (None,)))
    for trial in range(300):
        n = rng.randint(3, 30)
        g = random_connected_graph(rng, max_vertices=n)
        density = rng.choice([0.1, 0.3, 0.6, 0.9])
        extra = [e for e in combinations(range(g.vertex_count), 2) if rng.random() < density]
        g = Graph(g.vertex_count, [*g.edges, *extra])
        subset = tuple(rng.sample(range(g.vertex_count), rng.randint(2, min(5, g.vertex_count))))
        every_center(f"random-{trial}", g, subset, (every[trial % 3],))
    cases = 0
    for graph_id, g, subset, centers, limits in graphs:
        for center in centers:
            for max_spiders in limits:
                cases += 1
                fast = spiders_mod.extract_spiders(g, subset, center, max_spiders)
                twin = _rebuild_extract_spiders(g, subset, center, max_spiders)
                if fault and twin.spiders:
                    twin = replace(twin, spiders=twin.spiders[:-1])
                fast_lines = spiders_mod.decomposition_lines(fast)
                twin_lines = spiders_mod.decomposition_lines(twin)
                if fast_lines != twin_lines:
                    raise _Counterexample(
                        f"{graph_id} subset={subset} center={center} "
                        f"max_spiders={max_spiders}: residual {len(fast_lines)} legs "
                        f"({fast.count} spiders), rebuild {len(twin_lines)} legs "
                        f"({twin.count} spiders)"
                    )
    return (
        f"{cases} extractions on {len(graphs)} graphs (complete up to K100 with m = 9, "
        "grids 4^3, 4^4 and 12^2, cycles, a star, a lollipop, random of several "
        "densities), every center but on the lollipop and K100: "
        "decomposition lines equal the rebuild twin's"
    )


def check_grid_spider_construction(seed, tol_scale, fault) -> str:
    for n, k in ((3, 2), (5, 2), (7, 2), (8, 2), (3, 3), (4, 3), (8, 3)):
        spec = GridGraphSpec(n, k)
        g = spec.to_graph()
        if not g.min_degree == g.max_degree == k * (n - 1):
            raise _Counterexample(
                f"grid({n},{k}): degrees {g.min_degree}..{g.max_degree} != {k * (n - 1)}"
            )
        for m in (2, 3, 4):
            if n < 2 * m - 1:
                continue  # construction premise
            subset = _spread_subset(spec.order, m)
            if len(subset) != m:
                continue
            # the construction meets the floor exactly; under a fault the
            # floor reads one higher
            floor_count = ((n - 1) // (m - 1) - 1) * k + (fault > 0)
            for center in subset:
                dec = spiders_mod.grid_spiders(spec, subset, center)
                if dec.count < floor_count:
                    raise _Counterexample(
                        f"grid({n},{k}) subset={subset}: {dec.count} < {floor_count}"
                    )
                violation = spiders_mod.validate_spiders(dec, g)
                if violation is not None:
                    raise _Counterexample(
                        f"grid({n},{k}) subset={subset} center={center}: {violation}"
                    )
                if any(len(leg) - 1 > k + 1 for legs in dec.spiders for leg in legs.values()):
                    raise _Counterexample(f"grid({n},{k}) subset={subset}: leg above k+1")
    return "counts, k+1 leg bound, k(n-1) regularity"


def check_path_teleportation_law(seed, tol_scale, fault) -> str:
    import numpy as np

    from .hilbert import isotropic

    tol = 1e-12 * tol_scale
    for d in (2, 3):
        for p in (0.0, 0.4, 0.8, 1.0):
            for length in (1, 2, 3, 4):
                rho = isotropic(d, p)
                for _ in range(length - 1):
                    rho = apply_noisy_teleport(rho, _visibility_of(rho), 1)
                # under a fault the law's visibility reads (1 - fault) too low
                law = path_teleport_visibility(p, length) * (1 - fault)
                deviation = np.abs(rho.matrix - isotropic(d, law).matrix).max()
                if deviation > tol:
                    raise _Counterexample(
                        f"d={d} p={p} length={length}: deviation {deviation:.3e}"
                    )
    return "length <= 4, d in {2,3}, <= 1e-12"


def _bilateral_cnot_fidelity(p: float) -> float:
    """Fidelity with Phi+ of the source pair after a bilateral CNOT on two
    copies of the qubit isotropic state at visibility p, kept when the
    target pair's Z outcomes agree."""
    import numpy as np

    from .hilbert import isotropic, max_entangled

    rho = isotropic(2, p).matrix
    index = np.arange(16)  # bits a1 b1 a2 b2: source pair, then target pair
    image = index ^ (index >> 2)  # a2 ^= a1 and b2 ^= b1, its own inverse
    state = np.kron(rho, rho)[np.ix_(image, image)].reshape(4, 4, 4, 4)
    kept = state[:, 0, :, 0] + state[:, 3, :, 3]  # target outcomes 00 and 11
    phi = max_entangled(2).vector
    return float((np.vdot(phi, kept @ phi) / np.trace(kept)).real)


def check_threshold_and_recurrence(seed, tol_scale, fault) -> str:
    """Threshold arithmetic and the recurrence's shape, then its values
    against a dense bilateral CNOT on two isotropic copies: one round, and
    every round of distilled_visibility, each twirled back to an isotropic
    state.  Under a fault the dense twin runs at p(1 - fault)."""
    tol = 1e-12 * tol_scale
    p0 = protocol_mod.visibility_threshold(1.0, 2)
    if abs(p0**16 * 3.0 - 1.0) > tol:
        raise _Counterexample(f"p0(1,2)^16 * 3 = {p0 ** 16 * 3!r}")
    for f in (1.0, 0.5):
        if protocol_mod.recurrence_step(f) != f:
            raise _Counterexample(f"F={f} is not a fixed point")
    grid = [0.5 + 0.01 * i for i in range(1, 50)]
    outputs = [protocol_mod.recurrence_step(f) for f in grid]
    for f, out in zip(grid, outputs):
        if not (0.5 < out <= 1.0 and out > f):
            raise _Counterexample(f"no gain at F={f}: {out}")
    if any(b <= a for a, b in zip(outputs, outputs[1:])):
        raise _Counterexample("recurrence not strictly increasing")
    for p in (0.34, 0.4, 0.6, 0.9, 0.99, 1.0):
        closed = protocol_mod.recurrence_step(protocol_mod.fidelity_from_visibility(p))
        dense = _bilateral_cnot_fidelity(p * (1 - fault))
        if abs(closed - dense) > tol:
            raise _Counterexample(f"p={p}: recurrence {closed!r} vs dense {dense!r}")
        for copies in (2, 3, 8, 13, 64):
            visibility, consumed = protocol_mod.distilled_visibility(p, copies)
            twin, used, left = p * (1 - fault), 1, copies
            while left >= 2:  # one round per halving of the copies
                twin = protocol_mod.visibility_from_fidelity(_bilateral_cnot_fidelity(twin))
                used, left = 2 * used, left // 2
            if consumed != used or abs(visibility - twin) > tol:
                raise _Counterexample(
                    f"p={p} copies={copies}: distilled {visibility!r} from {consumed} "
                    f"copies vs dense {twin!r} from {used}"
                )
    return (
        "threshold arithmetic, recurrence shape; recurrence_step and up to six rounds "
        "of distilled_visibility vs a dense bilateral CNOT, p in 0.34..1, <= 1e-12"
    )


def check_protocol_trend(seed, tol_scale, fault) -> str:
    fidelities = []
    for n_vertices in (15, 30, 60):
        report = protocol_mod.simulate_partial_distillation(
            complete_graph(n_vertices), (0, 1, 2), 0.99, center=0
        )
        fidelities.append(report.final_fidelity)
    if not fidelities[0] < fidelities[1] < fidelities[2]:
        raise _Counterexample(f"fidelity not strictly increasing: {fidelities}")
    perfect = protocol_mod.simulate_partial_distillation(
        complete_graph(20), (0, 1, 2), 1.0, center=0
    )
    # under a fault the expected fidelity reads fault too high
    if perfect.final_fidelity != 1.0 + fault:
        raise _Counterexample(f"p=1 fidelity {perfect.final_fidelity!r} != {1.0 + fault!r}")
    star = protocol_mod.simulate_partial_distillation(star_graph(8), (1, 2, 3), 0.95)
    if not star.plan.necessary_condition_violated:
        raise _Counterexample("star graph did not raise the obstruction flag")
    return "strict growth over K15/K30/K60, exact 1.0, star flag"


def _dense_teleport_fidelity(target: PureStateVector, visibilities: dict) -> float:
    """The final stage composed densely: each listed position's channel
    applied to the target's density matrix, then the fidelity with it."""
    from .hilbert import fidelity

    state = target.density()
    for position, p in visibilities.items():
        state = apply_noisy_teleport(state, p, position)
    return fidelity(target, state)


def check_protocol_fidelity_closed_form(seed, tol_scale, fault) -> str:
    """Both final-stage forms against the dense loop: the GHZ product for
    m = 2..8 and the cut sum on random pure targets for m = 2..7, every
    center; then the cut sum on GHZ targets against the product up to m = 12,
    where the dense loop would need 4^12 entries."""
    import numpy as np

    from .hilbert import PureStateVector, ghz

    tol = 1e-12 * tol_scale
    grid = (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0)
    rng = random.Random(seed + 2)
    amplitude_rng = np.random.default_rng(seed + 2)

    def trials(m, center, uniform):
        # the grid cycled by the center, one random draw, and uniform
        # visibilities (a dense trial takes ~0.1 s at m = 8)
        drawn = [
            tuple(grid[(center + i) % len(grid)] for i in range(m - 1)),
            tuple(rng.random() for _ in range(m - 1)),
        ]
        return drawn + ([(p,) * (m - 1) for p in grid] if uniform else [])

    for m in range(2, 9):
        target = ghz(m)
        for center in range(m):
            others = [q for q in range(m) if q != center]
            for visibilities in trials(m, center, uniform=m <= 6):
                closed = protocol_mod.ghz_teleport_fidelity(visibilities) + fault
                dense = _dense_teleport_fidelity(target, dict(zip(others, visibilities)))
                if abs(closed - dense) > tol:
                    raise _Counterexample(
                        f"m={m} center={center} p={visibilities}: "
                        f"closed {closed!r} vs dense {dense!r}"
                    )
    for m in range(2, 8):
        for center in range(m):
            real, imag = amplitude_rng.normal(size=(2, 2**m))
            amplitudes = real + 1j * imag
            target = PureStateVector((2,) * m, amplitudes / np.linalg.norm(amplitudes))
            others = [q for q in range(m) if q != center]
            for visibilities in trials(m, center, uniform=m <= 6):
                noisy = dict(zip(others, visibilities))
                summed = protocol_mod.pure_target_fidelity(target, noisy)
                dense = _dense_teleport_fidelity(target, noisy)
                if abs(summed - dense) > tol:
                    raise _Counterexample(
                        f"random target m={m} center={center} p={visibilities}: "
                        f"sum {summed!r} vs dense {dense!r}"
                    )
    for m in range(2, 13):
        center = rng.randrange(m)
        visibilities = tuple(
            rng.choice(grid) if rng.random() < 0.25 else rng.random() for _ in range(m - 1)
        )
        others = [q for q in range(m) if q != center]
        summed = protocol_mod.pure_target_fidelity(ghz(m), dict(zip(others, visibilities)))
        closed = protocol_mod.ghz_teleport_fidelity(visibilities)
        if abs(summed - closed) > tol:
            raise _Counterexample(
                f"GHZ target m={m} center={center} p={visibilities}: "
                f"sum {summed!r} vs product {closed!r}"
            )
    return (
        "GHZ product (m <= 8) and cut sum on random targets (m <= 7) vs dense, "
        "every center; cut sum vs product on GHZ (m <= 12); <= 1e-12"
    )


def check_diameter_bound(seed, tol_scale, fault) -> str:
    rng = random.Random(seed + 1)
    graphs = [complete_graph(n) for n in range(3, 13)]
    graphs += [cycle_graph(n) for n in range(3, 17)]
    graphs += [grid_graph(n, k) for n, k in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3))]
    graphs += [random_connected_graph(rng) for _ in range(100)]
    # within 6/(dmin + 1) < 1 of the bound, so that a bound one lower fails
    graphs += [_clique_chain(dmin, k) for dmin, k in ((6, 1), (9, 3))]
    for g in graphs:
        dmin = g.min_degree
        if dmin <= 1 or INFINITE in _bfs_distances(g, 0):
            continue
        # under a fault the bound reads one lower
        bound = 3 * g.vertex_count / (dmin + 1) - 1 - (fault > 0)
        if diameter(g) > bound:
            raise _Counterexample(f"diam {diameter(g)} > {bound:.3f} on {sorted(g.edges)}")
    return "all generated graphs with dmin > 1, clique chains near the bound"


_GENERATED_FAMILIES = [
    *(("complete", n, None) for n in (1, 2, 3, 7, 40)),
    *(("cycle", n, None) for n in (3, 4, 5, 64)),
    *(("path", n, None) for n in (1, 2, 3, 30)),
    *(("star", n, None) for n in (2, 3, 17)),
    *(("grid", n, 1) for n in (2, 3, 5)),
    *(("grid", 2, k) for k in range(1, 8)),
    *(("grid", n, k) for n, k in ((3, 2), (5, 2), (3, 3), (4, 3), (3, 4), (4, 4))),
]


def check_family_generators(seed, tol_scale, fault) -> str:
    """Each generator against Graph(n, edges) on its family's edge formula:
    equal graphs with equal hashes.  The complete, cycle and grid members,
    and they alone, are marked vertex-transitive: no path, star or tree, and
    no graph built from edges.  Under a fault the formula drops its last
    edge."""
    for family, n, k in _GENERATED_FAMILIES:
        g = generate(family, n, k)
        edges = _family_edges(family, n, k)
        if fault:
            edges = edges[:-1]
        twin = Graph(g.vertex_count, edges)
        if g != twin or hash(g) != hash(twin):
            differ = sorted(g.edges ^ twin.edges)[:4] or "the order of an adjacency"
            raise _Counterexample(
                f"{family} n={n} k={k}: the generator and the edge formula differ in {differ}"
            )
        marked = family in ("complete", "cycle", "grid")
        if g._vertex_transitive != marked or twin._vertex_transitive:
            raise _Counterexample(
                f"{family} n={n} k={k}: marked vertex-transitive {g._vertex_transitive}, "
                f"expected {marked}; its twin from edges {twin._vertex_transitive}"
            )
    trees = [generate("tree", n, seed=seed + n) for n in (1, 2, 3, 30)]
    if any(tree._vertex_transitive for tree in trees):
        raise _Counterexample("a random tree is marked vertex-transitive")
    return (
        f"{len(_GENERATED_FAMILIES)} members of the complete, cycle, path, star "
        "and grid families, K1, K2, C3, P1, P2, the star on 2 vertices, grids "
        "with k = 1 or n = 2 included; equal graphs and hashes; the complete, "
        "cycle and grid members alone marked vertex-transitive, and no tree"
    )


# name -> (module tag, check), in the order verify prints them; the tag makes
# e.g. --filter spectra work
CHECKS = {
    "teleported-ghz-closed-form": ("channels", check_teleported_ghz_closed_form),
    "ghz-basis-eigenstructure": ("channels", check_ghz_basis_eigenstructure),
    "noise-overlap-forms": ("spectra", check_noise_overlap_forms),
    "ptranspose-spectrum": ("spectra", check_ptranspose_spectrum),
    "ppt-crossover": ("spectra", check_ppt_crossover),
    "menger-duality": ("graphs", check_menger_duality),
    "spider-guarantee": ("spiders", check_spider_guarantee),
    "grid-spider-construction": ("spiders", check_grid_spider_construction),
    "path-teleportation-law": ("channels", check_path_teleportation_law),
    "threshold-and-recurrence": ("protocol", check_threshold_and_recurrence),
    "protocol-trend": ("protocol", check_protocol_trend),
    "diameter-bound": ("graphs", check_diameter_bound),
    "protocol-fidelity-closed-form": ("protocol", check_protocol_fidelity_closed_form),
    "min-eigenvalue-closed-form": ("spectra", check_min_eigenvalue_closed_form),
    "edge-connectivity-reduction": ("graphs", check_edge_connectivity_reduction),
    "diameter-all-sources": ("graphs", check_diameter_all_sources),
    "ppt-sign-test": ("spectra", check_ppt_sign_test),
    "ppt-crossover-gallop": ("spectra", check_ppt_crossover_gallop),
    "spider-residual": ("spiders", check_spider_residual),
    "family-generators": ("graphs", check_family_generators),
}


def run_check(
    name: str, seed: int = DEFAULT_SEED, tol_scale: float = 1.0, fault: float = 0.0
) -> CheckResult:
    """Run one check of CHECKS by its name; a fault > 0 breaks one of its
    comparisons, so that it must fail."""
    _, check = CHECKS[name]
    try:
        return CheckResult(name, True, check(seed, tol_scale, fault))
    except _Counterexample as counterexample:
        return CheckResult(name, False, str(counterexample))


def run_checks(
    name_filter: str | None = None,
    seed: int = DEFAULT_SEED,
    tol_scale: float = 1.0,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Run the oracle suite; inject_fault deliberately breaks one comparison
    (harness sanity), tol_scale rescales every comparison tolerance."""
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tolerance scale {tol_scale} is not finite and positive")
    fault = 1e-6 if inject_fault else 0.0
    return [
        run_check(name, seed, tol_scale, fault)
        for name, (tag, _) in CHECKS.items()
        if not name_filter or name_filter in name or name_filter == tag
    ]
