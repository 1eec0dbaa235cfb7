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
    degree_stats,
    diameter,
    edge_connectivity,
    grid_graph,
    is_connected,
    path_graph,
    random_tree,
    shortest_path,
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
    without any reduction; each target gets a network of its own and a sink
    of that one vertex.
    """
    best = g.vertex_count * g.vertex_count  # above any possible cut
    for v in range(1, g.vertex_count):
        best = min(best, _UnitFlow(g).max_flow(0, _single_sink(g, v), cutoff=best))
        if best == 0:
            break
    return best


def _per_source_diameter(g: Graph):
    """Largest pairwise distance by one BFS from every vertex; INFINITE when
    the graph is not connected."""
    worst = 0
    for v in range(g.vertex_count):
        worst = max(worst, max(_bfs_distances(g, v)))
        if worst == INFINITE:
            return INFINITE
    return worst


def _remove_path_edges(g: Graph, path) -> Graph:
    """g rebuilt without exactly the edges of path; the vertex set is unchanged."""
    path_edges = path.edges()
    for e in path_edges:
        if e not in g.edges:
            raise ValueError(f"path edge {e} absent from graph")
    return Graph(g.vertex_count, g.edges - set(path_edges))


def _rebuild_extract_spiders(
    g: Graph, subset, center: int, max_spiders: int | None = None
) -> spiders_mod.SpiderDecomposition:
    """Oracle twin of spiders.extract_spiders: each leg is graphs.shortest_path
    on the residual graph, rebuilt as a whole Graph without the edges of the
    legs before it.  Takes valid arguments only."""
    verts = frozenset(subset)
    bound = spiders_mod._leg_length_bound(degree_stats(g).minimum, g.vertex_count)
    base_dist = _bfs_distances(g, center)
    targets = sorted(verts - {center}, key=lambda v: (base_dist[v], v))
    residual = g
    spiders = []
    while max_spiders is None or len(spiders) < max_spiders:
        legs = {}
        for target in targets:
            path = shortest_path(residual, center, target)
            if path is None or path.length > bound:
                legs = None
                break
            residual = _remove_path_edges(residual, path)
            legs[target] = path
        if legs is None:
            break
        spiders.append(spiders_mod.Spider(center, legs))
    return spiders_mod.SpiderDecomposition(g, verts, center, tuple(spiders), int(bound))


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
        if degree_stats(g).minimum <= 2:
            graphs.append((f"sparse-{trial}", g))
    return graphs


# ---------------------------------------------------------------------------
# checks (one per acceptance criterion)
# ---------------------------------------------------------------------------


def check_teleported_ghz_closed_form(seed, tol_scale, fault) -> CheckResult:
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
                return CheckResult(
                    "teleported-ghz-closed-form",
                    False,
                    f"n={n} p={p}: max entrywise deviation {deviation:.3e} > {tol:.1e}",
                )
    return CheckResult("teleported-ghz-closed-form", True, "n in 2..6, p grid, <= 1e-10")


def check_ghz_basis_eigenstructure(seed, tol_scale, fault) -> CheckResult:
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
                        return CheckResult(
                            "ghz-basis-eigenstructure",
                            False,
                            f"n={n} C={noisy} j={j} sign={sign}: "
                            f"got {value!r}, expected {expected!r}",
                        )
    return CheckResult(
        "ghz-basis-eigenstructure", True, "n <= 6, all subsets and basis vectors, exact"
    )


def check_noise_overlap_forms(seed, tol_scale, fault) -> CheckResult:
    tol = 1e-12 * tol_scale
    p_grid = [round(0.1 * i, 1) for i in range(11)]
    for n in range(2, 13):
        for p in p_grid:
            for j in range(2 ** (n - 1)):
                closed = noise_overlap_closed(n, p, j) + fault
                direct = noise_overlap_direct(n, p, j)
                if abs(closed - direct) > tol:
                    return CheckResult(
                        "noise-overlap-forms",
                        False,
                        f"n={n} p={p} j={j}: closed {closed!r} vs direct {direct!r}",
                    )
    return CheckResult("noise-overlap-forms", True, "n <= 12, full index range, <= 1e-12")


def check_ptranspose_spectrum(seed, tol_scale, fault) -> CheckResult:
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
                    return CheckResult(
                        "ptranspose-spectrum",
                        False,
                        f"n={n} p={p} M={cut}: multiset deviation {deviation:.3e}",
                    )
                if n - 1 not in cut:
                    for j in range(2 ** (n - 1)):
                        for sign in (1, -1):
                            vec = ghz_basis(n, j, sign).vector
                            value = np.vdot(vec, transposed @ vec).real
                            ref = table[(j, sign)]
                            if abs(value - ref) > tol:
                                return CheckResult(
                                    "ptranspose-spectrum",
                                    False,
                                    f"n={n} p={p} M={cut} j={j} sign={sign}: "
                                    f"pairing deviation {abs(value - ref):.3e}",
                                )
    return CheckResult(
        "ptranspose-spectrum", True, "n <= 8, singleton/doubleton cuts, <= 1e-9"
    )


def check_ppt_crossover(seed, tol_scale, fault) -> CheckResult:
    # each anchor by the search and by the linear twin (at p(1 - fault), which
    # moves the 0.9999 anchor by thousands)
    for p, expected in ((0.9, 55), (0.9999, 198054)):
        anchor, scanned = ppt_crossover(p, 1), _linear_crossover(p * (1 - fault), 1)
        if anchor != expected or scanned != expected:
            return CheckResult(
                "ppt-crossover",
                False,
                f"crossover({p}, 1) = {anchor}, linear scan {scanned}, expected {expected}",
            )
    for p in (0.5, 0.7, 0.9):
        for w in (1, 2):
            n0 = ppt_crossover(p, w)
            if not is_ppt_teleported_ghz(n0, p, w):
                return CheckResult(
                    "ppt-crossover", False, f"p={p} w={w}: not PPT at n0={n0}"
                )
            if _class_scan_min_eigenvalues(n0, p, [w])[w] < 0.0:
                return CheckResult(
                    "ppt-crossover", False, f"p={p} w={w}: class scan negative at n0={n0}"
                )
            if n0 - 1 >= w + 1 and is_ppt_teleported_ghz(n0 - 1, p, w):
                return CheckResult(
                    "ppt-crossover", False, f"p={p} w={w}: PPT already at n0-1={n0 - 1}"
                )
    return CheckResult("ppt-crossover", True, "anchors 55 and 198054 and exact boundaries")


def check_ppt_sign_test(seed, tol_scale, fault) -> CheckResult:
    rng = random.Random(seed + 6)
    compared = 0

    def mismatch(p, w, ns):
        nonlocal compared
        test = _ppt_sign_test(p, w)
        for n in ns:
            compared += 1
            fast, twin = test(n), _per_call_sign_nonnegative(n, p * (1 - fault), w)
            if fast != twin:
                return f"p={p!r} w={w} n={n}: sign test {fast}, per-call twin {twin}"
        return None

    # every n of a band above w and, up to p = 0.999 where the twin's own
    # scan stays cheap, the crossover and its neighbours on both sides
    for p in (1e-9, 0.1, 1 / 3, 0.34, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999):
        for w in range(1, 7):
            ns = [*range(w + 1, w + 301)]
            if p <= 0.999:
                n0, scanned = ppt_crossover(p, w), _per_call_crossover(p * (1 - fault), w)
                if n0 != scanned:
                    return CheckResult(
                        "ppt-sign-test",
                        False,
                        f"p={p!r} w={w}: ppt_crossover {n0}, per-call scan {scanned}",
                    )
                ns += range(max(w + 1, n0 - 3), n0 + 4)
            failure = mismatch(p, w, ns)
            if failure:
                return CheckResult("ppt-sign-test", False, failure)
    for _ in range(300):
        p = rng.choice([rng.uniform(1e-9, 1.0 - 1e-9), 1.0 - 10 ** rng.uniform(-6, -1)])
        w = rng.randint(1, 8)
        failure = mismatch(p, w, [rng.randint(w + 1, 10 ** rng.randint(2, 7))])
        if failure:
            return CheckResult("ppt-sign-test", False, failure)
    return CheckResult(
        "ppt-sign-test",
        True,
        f"{compared} (p, w, n): 10 visibilities x w = 1..6 over n = w+1..w+300 and "
        "n0 +- 3, 300 random up to n = 1e7; crossover equals the per-call scan "
        "up to p = 0.999; exact",
    )


def check_ppt_crossover_gallop(seed, tol_scale, fault) -> CheckResult:
    name = "ppt-crossover-gallop"
    rng = random.Random(seed + 7)
    # the search against the linear twin, exactly, where the twin stays cheap
    # (p <= 1/3 gives n0 = w+1; p = 0.9999 scans up to n0 = 1.6e6)
    grid = (1e-9, 0.1, 0.2, 1 / 3, 0.34, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999)
    pairs = [(p, w) for p in grid for w in range(1, 9)]
    pairs += [(rng.uniform(1e-9, 0.999), rng.randint(1, 8)) for _ in range(200)]
    for p, w in pairs:
        n0, scanned = ppt_crossover(p, w), _linear_crossover(p * (1 - fault), w)
        if n0 != scanned:
            return CheckResult(
                name, False, f"p={p!r} w={w}: ppt_crossover {n0}, linear scan {scanned}"
            )
    # beyond the twin's reach, up to p = 1 - 1e-12: the boundary alone
    high = [1 - 10.0**-k for k in range(5, 13)]
    high += [1 - 10 ** rng.uniform(-12, -4) for _ in range(40)]
    for p in high:
        for w in range(1, 9):
            n0 = ppt_crossover(p, w)
            nonnegative = _ppt_sign_test(p * (1 - fault), w)
            if (n0 - 1 > w and nonnegative(n0 - 1)) or not nonnegative(n0):
                return CheckResult(
                    name, False, f"p={p!r} w={w}: sign test not switching at n0={n0}"
                )
    return CheckResult(
        name,
        True,
        f"{len(pairs)} (p, w) up to p = 0.9999 equal the linear scan; "
        f"{8 * len(high)} up to p = 1 - 1e-12 fail at n0-1 and pass at n0",
    )


def check_min_eigenvalue_closed_form(seed, tol_scale, fault) -> CheckResult:
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
                    return CheckResult(
                        "min-eigenvalue-closed-form",
                        False,
                        f"n={n} w={w} p={p!r}: closed {closed!r} vs table {table!r}",
                    )
    # the class scan up to ~900 qubits, where the spectrum underflows
    for n in (11, 128, 501, 893):
        for p in (1e-9, 0.3, 0.5, 0.9, 0.9999, 1.0):
            scan = _class_scan_min_eigenvalues(n, p, {1, 2, 3, 4, n // 2, n - 1})
            for w, expected in sorted(scan.items()):
                closed = min_eigenvalue_teleported_ghz(n, p, w) + fault
                if _relative_gap(closed, expected) > tol:
                    return CheckResult(
                        "min-eigenvalue-closed-form",
                        False,
                        f"n={n} w={w} p={p!r}: closed {closed!r} vs class scan {expected!r}",
                    )
    return CheckResult(
        "min-eigenvalue-closed-form",
        True,
        "table for n <= 10 (every cut size), class scan up to n = 893, "
        "relative <= 1e-12",
    )


def check_menger_duality(seed, tol_scale, fault) -> CheckResult:
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
            return CheckResult(
                "menger-duality",
                False,
                f"trial {trial}: flow {fast}, cut enumeration {brute}, "
                f"pairwise minimum {pairwise} on {sorted(g.edges)}",
            )
    return CheckResult("menger-duality", True, "200 random connected graphs, exact")


def check_edge_connectivity_reduction(seed, tol_scale, fault) -> CheckResult:
    rng = random.Random(seed + 4)
    graphs = [(f"complete-{n}", complete_graph(n)) for n in (2, 3, 4, 7, 16, 33, 60)]
    graphs += [(f"grid-{n}-{k}", grid_graph(n, k)) for n, k in ((4, 3), (3, 4), (5, 3), (4, 4))]
    graphs += [(f"cycle-{n}", cycle_graph(n)) for n in (3, 4, 9, 40)]
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
    for graph_id, g in graphs:
        fast = edge_connectivity(g) + fault
        twin = _all_targets_edge_connectivity(g)
        if fast != twin:
            return CheckResult(
                "edge-connectivity-reduction",
                False,
                f"{graph_id}: edge_connectivity {fast}, all-targets flows {twin} "
                f"on {sorted(g.edges)}",
            )
    return CheckResult(
        "edge-connectivity-reduction",
        True,
        f"{len(graphs)} graphs: families, Hamming grids, random, disconnected, planted "
        "cuts between cliques and between grids, minimum degree <= 2 with bridges and "
        "cut vertices; exact",
    )


def check_diameter_all_sources(seed, tol_scale, fault) -> CheckResult:
    rng = random.Random(seed + 5)
    graphs = [("empty-0", Graph(0)), ("empty-1", Graph(1)), ("empty-2", Graph(2))]
    graphs += [("edge-2", Graph(2, [(0, 1)])), ("isolated-5", Graph(5, [(0, 1), (1, 2), (2, 3)]))]
    graphs += [(f"complete-{n}", complete_graph(n)) for n in (1, 2, 3, 17, 64, 65)]
    graphs += [(f"cycle-{n}", cycle_graph(n)) for n in (3, 4, 9, 10, 63, 64, 65, 129)]
    graphs += [(f"path-{n}", path_graph(n)) for n in (1, 2, 3, 25, 63, 64, 65, 129)]
    graphs += [(f"star-{n}", star_graph(n)) for n in (2, 5, 65)]
    graphs += [(f"tree-{n}", random_tree(n, seed=seed + n)) for n in (1, 2, 12, 63, 64, 65, 129)]
    graphs += [("grid-4-3", grid_graph(4, 3)), ("grid-3-4", grid_graph(3, 4))]
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
    for graph_id, g in graphs:
        fast = diameter(g) + fault
        twin = _per_source_diameter(g)
        if fast != twin:
            return CheckResult(
                "diameter-all-sources",
                False,
                f"{graph_id}: all-sources BFS {fast}, per-source BFS {twin} "
                f"on {sorted(g.edges)}",
            )
    return CheckResult(
        "diameter-all-sources",
        True,
        f"{len(graphs)} graphs: families, n = 0..2, isolated vertices, word "
        "boundaries at n = 63..65 and 129, random connected and not, brooms, "
        "caterpillars, a hub with two long tails, cycle-659 and path-1200; exact",
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


def check_spider_guarantee(seed, tol_scale, fault) -> CheckResult:
    """Extraction meets the guaranteed count and leg bound, validates, and
    stays under the ceiling deg(center) // (m - 1): each spider takes m - 1
    of the center's edges.  Under a fault the ceiling reads one lower; it is
    tight on K6, where every center edge starts a leg."""
    for graph_id, build in _GUARANTEE_GRAPHS:
        g = build()
        n = g.vertex_count
        for m in (2, 3, 4):
            subsets = {tuple(range(m)), _spread_subset(n, m)}
            guarantee = spiders_mod.spider_guarantee(g, range(m))
            for subset in subsets:
                if len(subset) != m:
                    continue
                for center in subset:
                    dec = spiders_mod.extract_spiders(g, subset, center)
                    if dec.count < guarantee.count:
                        return CheckResult(
                            "spider-guarantee",
                            False,
                            f"{graph_id} subset={subset} center={center}: "
                            f"{dec.count} spiders < guaranteed {guarantee.count}",
                        )
                    ceiling = g.degree(center) // (m - 1) - (fault > 0)
                    if dec.count > ceiling:
                        return CheckResult(
                            "spider-guarantee",
                            False,
                            f"{graph_id} subset={subset} center={center}: "
                            f"{dec.count} spiders > ceiling {ceiling}",
                        )
                    report = spiders_mod.validate_spiders(dec)
                    if not report.ok:
                        return CheckResult(
                            "spider-guarantee",
                            False,
                            f"{graph_id} subset={subset} center={center}: {report.failure}",
                        )
                    for spider in dec.spiders:
                        if spider.max_leg_length() > guarantee.leg_length_bound:
                            return CheckResult(
                                "spider-guarantee",
                                False,
                                f"{graph_id} subset={subset} center={center}: leg "
                                f"length {spider.max_leg_length()} above 5/c",
                            )
    return CheckResult(
        "spider-guarantee",
        True,
        "complete and grid ladders, all floors, ceilings and leg bounds",
    )


def check_spider_residual(seed, tol_scale, fault) -> CheckResult:
    """extract_spiders on its residual adjacency against the rebuild twin:
    every center of each subset with max_spiders None, 1 and 3 on the small
    families, one of those limits in turn on the random graphs, and the first
    center alone on the lollipop and K100; under a fault the twin drops its
    last spider."""
    name = "spider-residual"
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
                    return CheckResult(
                        name,
                        False,
                        f"{graph_id} subset={subset} center={center} "
                        f"max_spiders={max_spiders}: residual {len(fast_lines)} legs "
                        f"({fast.count} spiders), rebuild {len(twin_lines)} legs "
                        f"({twin.count} spiders)",
                    )
    return CheckResult(
        name,
        True,
        f"{cases} extractions on {len(graphs)} graphs (complete up to K100 with m = 9, "
        "grids 4^3, 4^4 and 12^2, cycles, a star, a lollipop, random of several "
        "densities), every center but on the lollipop and K100: "
        "decomposition lines equal the rebuild twin's",
    )


def check_grid_spider_construction(seed, tol_scale, fault) -> CheckResult:
    for n, k in ((3, 2), (5, 2), (7, 2), (8, 2), (3, 3), (4, 3), (8, 3)):
        spec = GridGraphSpec(n, k)
        g = spec.to_graph()
        stats = degree_stats(g)
        if not stats.minimum == stats.maximum == k * (n - 1):
            return CheckResult(
                "grid-spider-construction",
                False,
                f"grid({n},{k}): degrees {stats.minimum}..{stats.maximum} != {k * (n - 1)}",
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
                    return CheckResult(
                        "grid-spider-construction",
                        False,
                        f"grid({n},{k}) subset={subset}: {dec.count} < {floor_count}",
                    )
                report = spiders_mod.validate_spiders(dec)
                if not report.ok:
                    return CheckResult(
                        "grid-spider-construction",
                        False,
                        f"grid({n},{k}) subset={subset} center={center}: {report.failure}",
                    )
                if any(s.max_leg_length() > k + 1 for s in dec.spiders):
                    return CheckResult(
                        "grid-spider-construction",
                        False,
                        f"grid({n},{k}) subset={subset}: leg above k+1",
                    )
    return CheckResult(
        "grid-spider-construction", True, "counts, k+1 leg bound, k(n-1) regularity"
    )


def check_path_teleportation_law(seed, tol_scale, fault) -> CheckResult:
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
                    return CheckResult(
                        "path-teleportation-law",
                        False,
                        f"d={d} p={p} length={length}: deviation {deviation:.3e}",
                    )
    return CheckResult(
        "path-teleportation-law", True, "length <= 4, d in {2,3}, <= 1e-12"
    )


def check_threshold_and_recurrence(seed, tol_scale, fault) -> CheckResult:
    tol = 1e-12 * tol_scale
    p0 = protocol_mod.visibility_threshold(1.0, 2)
    if abs(p0**16 * 3.0 - 1.0) > tol:
        return CheckResult(
            "threshold-and-recurrence", False, f"p0(1,2)^16 * 3 = {p0 ** 16 * 3!r}"
        )
    if protocol_mod.recurrence_step(1.0) != 1.0:
        return CheckResult("threshold-and-recurrence", False, "F=1 is not a fixed point")
    if protocol_mod.recurrence_step(0.5) != 0.5:
        return CheckResult("threshold-and-recurrence", False, "F=1/2 is not a fixed point")
    grid = [0.5 + 0.01 * i for i in range(1, 50)]
    outputs = [protocol_mod.recurrence_step(f) for f in grid]
    for f, out in zip(grid, outputs):
        if not (0.5 < out <= 1.0 and out > f):
            return CheckResult(
                "threshold-and-recurrence", False, f"no gain at F={f}: {out}"
            )
    if any(b <= a for a, b in zip(outputs, outputs[1:])):
        return CheckResult(
            "threshold-and-recurrence", False, "recurrence not strictly increasing"
        )
    return CheckResult(
        "threshold-and-recurrence", True, "threshold arithmetic and recurrence shape"
    )


def check_protocol_trend(seed, tol_scale, fault) -> CheckResult:
    fidelities = []
    for n_vertices in (15, 30, 60):
        report = protocol_mod.simulate_partial_distillation(
            complete_graph(n_vertices), (0, 1, 2), 0.99, center=0
        )
        fidelities.append(report.final_fidelity)
    if not fidelities[0] < fidelities[1] < fidelities[2]:
        return CheckResult(
            "protocol-trend", False, f"fidelity not strictly increasing: {fidelities}"
        )
    perfect = protocol_mod.simulate_partial_distillation(
        complete_graph(20), (0, 1, 2), 1.0, center=0
    )
    # under a fault the expected fidelity reads fault too high
    if perfect.final_fidelity != 1.0 + fault:
        return CheckResult(
            "protocol-trend",
            False,
            f"p=1 fidelity {perfect.final_fidelity!r} != {1.0 + fault!r}",
        )
    star = protocol_mod.simulate_partial_distillation(star_graph(8), (1, 2, 3), 0.95)
    if not star.necessary_condition_violated:
        return CheckResult(
            "protocol-trend", False, "star graph did not raise the obstruction flag"
        )
    return CheckResult(
        "protocol-trend", True, "strict growth over K15/K30/K60, exact 1.0, star flag"
    )


def _dense_teleport_fidelity(target: PureStateVector, visibilities: dict) -> float:
    """The final stage composed densely: each listed position's channel
    applied to the target's density matrix, then the fidelity with it."""
    from .hilbert import fidelity

    state = target.density()
    for position, p in visibilities.items():
        state = apply_noisy_teleport(state, p, position)
    return fidelity(target, state)


def check_protocol_fidelity_closed_form(seed, tol_scale, fault) -> CheckResult:
    """Both final-stage forms against the dense loop: the GHZ product for
    m = 2..8 and the cut sum on random pure targets for m = 2..7, every
    center; then the cut sum on GHZ targets against the product up to m = 12,
    where the dense loop would need 4^12 entries."""
    import numpy as np

    from .hilbert import PureStateVector, ghz

    name = "protocol-fidelity-closed-form"
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
                    return CheckResult(
                        name,
                        False,
                        f"m={m} center={center} p={visibilities}: "
                        f"closed {closed!r} vs dense {dense!r}",
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
                    return CheckResult(
                        name,
                        False,
                        f"random target m={m} center={center} p={visibilities}: "
                        f"sum {summed!r} vs dense {dense!r}",
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
            return CheckResult(
                name,
                False,
                f"GHZ target m={m} center={center} p={visibilities}: "
                f"sum {summed!r} vs product {closed!r}",
            )
    return CheckResult(
        name,
        True,
        "GHZ product (m <= 8) and cut sum on random targets (m <= 7) vs dense, "
        "every center; cut sum vs product on GHZ (m <= 12); <= 1e-12",
    )


def check_diameter_bound(seed, tol_scale, fault) -> CheckResult:
    rng = random.Random(seed + 1)
    graphs = [complete_graph(n) for n in range(3, 13)]
    graphs += [cycle_graph(n) for n in range(3, 17)]
    graphs += [grid_graph(n, k) for n, k in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3))]
    graphs += [random_connected_graph(rng) for _ in range(100)]
    # within 6/(dmin + 1) < 1 of the bound, so that a bound one lower fails
    graphs += [_clique_chain(dmin, k) for dmin, k in ((6, 1), (9, 3))]
    for g in graphs:
        dmin = degree_stats(g).minimum
        if dmin <= 1 or not is_connected(g):
            continue
        # under a fault the bound reads one lower
        bound = 3 * g.vertex_count / (dmin + 1) - 1 - (fault > 0)
        if diameter(g) > bound:
            return CheckResult(
                "diameter-bound",
                False,
                f"diam {diameter(g)} > {bound:.3f} on {sorted(g.edges)}",
            )
    return CheckResult(
        "diameter-bound", True, "all generated graphs with dmin > 1, clique chains near the bound"
    )


# name -> (module tag, check); the tag makes e.g. --filter spectra work
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
}

# checks that ignore an injected fault; every other check must fail under one
FAULT_BLIND = frozenset({"threshold-and-recurrence"})


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
    results = []
    fault = 1e-6 if inject_fault else 0.0
    for name, (tag, check) in CHECKS.items():
        if name_filter and name_filter not in name and name_filter != tag:
            continue
        results.append(check(seed, tol_scale, fault))
    return results
