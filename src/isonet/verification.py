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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import protocol as protocol_mod
from . import spiders as spiders_mod
from .channels import (
    apply_noisy_teleport,
    depolarized_ghz_component,
    path_teleport_visibility,
    star_teleport,
    teleported_ghz_closed_form,
)
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
    edge_connectivity_exhaustive,
    grid_graph,
    is_connected,
    max_edge_disjoint_paths,
    path_graph,
    random_tree,
    star_graph,
)
from .hilbert import (
    fidelity,
    ghz,
    ghz_basis,
    isotropic,
    max_entangled,
    partial_transpose,
)
from .spectra import (
    SpectrumIndex,
    _mixed_term,
    is_ppt_teleported_ghz,
    min_eigenvalue_teleported_ghz,
    noise_overlap_closed,
    noise_overlap_direct,
    normalize_bipartition,
    partial_transpose_eigenvalue,
    ppt_crossover,
    teleported_ghz_spectrum,
)

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _all_targets_edge_connectivity(g: Graph) -> int:
    """Minimum over every target v != 0 of the max flow from vertex 0 to v.

    Every cut separates vertex 0 from some other vertex, so this is exact
    without any reduction; each target gets a network of its own.
    """
    best = g.vertex_count * g.vertex_count  # above any possible cut
    for v in range(1, g.vertex_count):
        best = min(best, _UnitFlow(g).max_flow(0, v, cutoff=best))
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


def planted_cut_graph(rng: random.Random, a: int, b: int, k: int) -> Graph:
    """Cliques on a and b vertices joined by k distinct cross edges, with the
    vertex ids shuffled; for k < min(a, b) - 1 the k edges are the only
    minimum cut, below the minimum degree."""
    cross = rng.sample([(u, v) for u in range(a) for v in range(a, a + b)], k)
    edges = [*combinations(range(a), 2), *combinations(range(a, a + b), 2), *cross]
    return _shuffled_graph(rng, a + b, edges)


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
    tol = 1e-10 * tol_scale
    for n in range(2, 7):
        ghz_state = ghz(n).density()
        for p in (0.0, 0.3, 0.7, 0.9, 1.0):
            closed = teleported_ghz_closed_form(n, p).matrix
            brute = star_teleport(ghz_state, p).matrix
            deviation = np.abs(closed - brute).max()
            if deviation > tol:
                return CheckResult(
                    "teleported-ghz-closed-form",
                    False,
                    f"n={n} p={p}: max entrywise deviation {deviation:.3e} > {tol:.1e}",
                )
    return CheckResult("teleported-ghz-closed-form", True, "n in 2..6, p grid, <= 1e-10")


def check_ghz_basis_eigenstructure(seed, tol_scale, fault) -> CheckResult:
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
                    expected = 1.0 / 2 ** (k + 1) if len(bits) == 1 else 0.0
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
                subset = normalize_bipartition(n, cut)
                closed = np.sort(
                    [
                        partial_transpose_eigenvalue(SpectrumIndex(n, j, sign, subset), p)
                        for j in range(2 ** (n - 1))
                        for sign in (1, -1)
                    ]
                )
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
                            ref = partial_transpose_eigenvalue(
                                SpectrumIndex(n, j, sign, subset), p
                            )
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
    anchor = ppt_crossover(0.9, 1)
    if anchor != 55:
        return CheckResult("ppt-crossover", False, f"crossover(0.9, 1) = {anchor}, expected 55")
    for p in (0.5, 0.7, 0.9):
        for w in (1, 2):
            cut = tuple(range(w))
            n0 = ppt_crossover(p, w)
            if not is_ppt_teleported_ghz(n0, p, cut):
                return CheckResult(
                    "ppt-crossover", False, f"p={p} w={w}: not PPT at n0={n0}"
                )
            if _class_scan_min_eigenvalues(n0, p, [w])[w] < 0.0:
                return CheckResult(
                    "ppt-crossover", False, f"p={p} w={w}: class scan negative at n0={n0}"
                )
            if n0 - 1 >= w + 1 and is_ppt_teleported_ghz(n0 - 1, p, cut):
                return CheckResult(
                    "ppt-crossover", False, f"p={p} w={w}: PPT already at n0-1={n0 - 1}"
                )
    return CheckResult("ppt-crossover", True, "anchor 55 and exact boundaries")


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
                cut = tuple(range(w))
                closed = min_eigenvalue_teleported_ghz(n, p, cut) + fault
                table = teleported_ghz_spectrum(n, p, cut).min_eigenvalue()
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
                closed = min_eigenvalue_teleported_ghz(n, p, range(w)) + fault
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
        brute = edge_connectivity_exhaustive(g)
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
    graphs += [("grid-4-3", grid_graph(4, 3)), ("grid-3-4", grid_graph(3, 4))]
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
        f"{len(graphs)} graphs: families, random, disconnected, planted cuts, "
        "minimum degree <= 2 with bridges and cut vertices; exact",
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
        "boundaries at n = 63..65 and 129, random connected and not; exact",
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
        "spider-guarantee", True, "complete and grid ladders, all floors and leg bounds"
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
            floor_count = ((n - 1) // (m - 1) - 1) * k
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
    tol = 1e-12 * tol_scale
    for d in (2, 3):
        for p in (0.0, 0.4, 0.8, 1.0):
            for length in (1, 2, 3, 4):
                rho = isotropic(d, p)
                for _ in range(length - 1):
                    rho = apply_noisy_teleport(rho, _visibility_of(rho), 1)
                law = path_teleport_visibility(p, length)
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
    if perfect.final_fidelity != 1.0:
        return CheckResult(
            "protocol-trend", False, f"p=1 fidelity {perfect.final_fidelity!r} != 1.0"
        )
    star = protocol_mod.simulate_partial_distillation(star_graph(8), (1, 2, 3), 0.95)
    if not star.necessary_condition_violated:
        return CheckResult(
            "protocol-trend", False, "star graph did not raise the obstruction flag"
        )
    return CheckResult(
        "protocol-trend", True, "strict growth over K15/K30/K60, exact 1.0, star flag"
    )


def check_protocol_fidelity_closed_form(seed, tol_scale, fault) -> CheckResult:
    tol = 1e-12 * tol_scale
    grid = (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0)
    rng = random.Random(seed + 2)
    for m in range(2, 9):
        target = ghz(m)
        for center in range(m):
            # the grid cycled by the center, one random draw, and uniform
            # visibilities up to m = 6 (a dense trial takes ~0.1 s at m = 8)
            trials = [
                tuple(grid[(center + i) % len(grid)] for i in range(m - 1)),
                tuple(rng.random() for _ in range(m - 1)),
            ]
            if m <= 6:
                trials += [(p,) * (m - 1) for p in grid]
            for visibilities in trials:
                closed = protocol_mod.ghz_teleport_fidelity(visibilities) + fault
                state = target.density()
                others = (q for q in range(m) if q != center)
                for position, p in zip(others, visibilities):
                    state = apply_noisy_teleport(state, p, position)
                dense = fidelity(target, state)
                if abs(closed - dense) > tol:
                    return CheckResult(
                        "protocol-fidelity-closed-form",
                        False,
                        f"m={m} center={center} p={visibilities}: "
                        f"closed {closed!r} vs dense {dense!r}",
                    )
    return CheckResult(
        "protocol-fidelity-closed-form",
        True,
        "m in 2..8, every center, grid and random visibilities, <= 1e-12",
    )


def check_diameter_bound(seed, tol_scale, fault) -> CheckResult:
    rng = random.Random(seed + 1)
    graphs = [complete_graph(n) for n in range(3, 13)]
    graphs += [cycle_graph(n) for n in range(3, 17)]
    graphs += [grid_graph(n, k) for n, k in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3))]
    graphs += [random_connected_graph(rng) for _ in range(100)]
    for g in graphs:
        dmin = degree_stats(g).minimum
        if dmin <= 1 or not is_connected(g):
            continue
        bound = 3 * g.vertex_count / (dmin + 1) - 1
        if diameter(g) > bound:
            return CheckResult(
                "diameter-bound",
                False,
                f"diam {diameter(g)} > {bound:.3f} on {sorted(g.edges)}",
            )
    return CheckResult("diameter-bound", True, "all generated graphs with dmin > 1")


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
}


def run_checks(
    name_filter: str | None = None,
    seed: int = DEFAULT_SEED,
    tol_scale: float = 1.0,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Run the oracle suite; inject_fault deliberately breaks one comparison
    (harness sanity), tol_scale rescales every comparison tolerance."""
    results = []
    fault = 1e-6 if inject_fault else 0.0
    for name, (tag, check) in CHECKS.items():
        if name_filter and name_filter not in name and name_filter != tag:
            continue
        results.append(check(seed, tol_scale, fault))
    return results
