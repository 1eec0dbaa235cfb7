"""Edge-disjoint spider subgraphs: guarantees, extraction, validation.

A spider is a tree with one designated center and simple-path legs running
to a set of target vertices.  Collections of pairwise edge-disjoint spiders
are what the distillation pipeline consumes: every spider contributes one
noisy entangled pair between the center and each target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .graphs import (
    INFINITE,
    Graph,
    GridGraphSpec,
    PathInGraph,
    _bfs_distances,
    degree_stats,
    edge_connectivity,
    is_connected,
)


@dataclass(frozen=True)
class Spider:
    """Legs keyed by target vertex; every leg starts at the center."""

    center: int
    legs: dict

    def leg_lengths(self) -> dict:
        return {target: leg.length for target, leg in self.legs.items()}

    def max_leg_length(self) -> int:
        return max(leg.length for leg in self.legs.values())


@dataclass(frozen=True)
class SpiderDecomposition:
    host: Graph
    subset: frozenset
    center: int
    spiders: tuple[Spider, ...]
    leg_length_bound: int

    @property
    def count(self) -> int:
        return len(self.spiders)


class SpiderGuarantee(NamedTuple):
    count: int
    leg_length_bound: Fraction


def _check_subset(g: Graph, subset: Iterable) -> frozenset:
    verts = frozenset(subset)
    if len(verts) < 2:
        raise ValueError("the target subset needs at least two vertices")
    for v in verts:
        g._check_vertex(v)
    return verts


def spider_guarantee(g: Graph, subset: Iterable) -> SpiderGuarantee:
    """Guaranteed number of extractable edge-disjoint spiders and leg bound.

    For a connected graph with minimum degree above 1 and degree ratio
    c = delta_min/|G|, at least floor(min(delta_min, c*lambda) / (5*m))
    edge-disjoint spiders with leg lengths at most 5/c exist for any center
    choice inside a target subset of size m.  Both quantities are returned
    exactly as rationals/integers.
    """
    verts = _check_subset(g, subset)
    if not is_connected(g):
        raise ValueError("premise violated: graph must be connected")
    dmin = degree_stats(g).minimum
    if dmin <= 1:
        raise ValueError("premise violated: minimum degree must exceed 1")
    return _spider_budget(dmin, g.vertex_count, edge_connectivity(g), len(verts))


def _leg_length_bound(dmin: int, vertex_count: int) -> Fraction:
    """The guarantee's leg bound 5/c, with c = dmin/vertex_count."""
    return Fraction(5 * vertex_count, dmin)


def _spider_budget(dmin: int, vertex_count: int, lam: int, m: int) -> SpiderGuarantee:
    """The guarantee's count and leg bound, with c = dmin/vertex_count."""
    c = Fraction(dmin, vertex_count)
    count = int(min(Fraction(dmin), c * lam) / (5 * m))
    return SpiderGuarantee(count, _leg_length_bound(dmin, vertex_count))


def extract_spiders(
    g: Graph, subset: Iterable, center: int, max_spiders: int | None = None
) -> SpiderDecomposition:
    """Greedy edge-disjoint spider extraction.

    Targets are ordered once by non-decreasing distance from the center in
    the original graph (ties by vertex id).  Each leg is the
    lexicographically smallest shortest path in the current residual graph;
    its edges are then deleted from a residual adjacency edited in place.
    Legs are bundled into complete spiders; extraction stops when the
    residual graph disconnects the center from a target, when a shortest
    path exceeds the guarantee's leg bound 5/c, or when max_spiders is
    reached.  Whenever the guarantee premises hold, at least
    spider_guarantee(g, subset).count spiders are produced.
    """
    verts = _check_subset(g, subset)
    if center not in verts:
        raise ValueError("center must belong to the target subset")
    if max_spiders is not None and max_spiders < 0:
        raise ValueError(f"max_spiders {max_spiders} is negative")
    base_dist = _bfs_distances(g, center)
    if INFINITE in base_dist:
        raise ValueError("premise violated: graph must be connected")
    # never binding when dmin is 1
    leg_length_bound = _leg_length_bound(degree_stats(g).minimum, g.vertex_count)

    targets = sorted(verts - {center}, key=lambda v: (base_dist[v], v))

    adjacency = g._adjacency
    residual = [set(neighbours) for neighbours in adjacency]
    spiders = []
    while max_spiders is None or len(spiders) < max_spiders:
        legs = {}
        for target in targets:
            leg = _residual_leg(adjacency, residual, center, target)
            if leg is None or len(leg) - 1 > leg_length_bound:
                legs = None
                break
            for a, b in zip(leg, leg[1:]):
                residual[a].remove(b)
                residual[b].remove(a)
            legs[target] = PathInGraph(leg)
        if legs is None:
            break
        spiders.append(Spider(center, legs))

    return SpiderDecomposition(g, verts, center, tuple(spiders), int(leg_length_bound))


def _residual_leg(
    adjacency: tuple, residual: list, center: int, target: int
) -> tuple[int, ...] | None:
    """Lexicographically smallest shortest center-target path in the residual
    adjacency (one set per vertex, a subgraph of the sorted adjacency), or
    None when the residual separates them.

    A BFS from the center labels distances until it labels the target, at
    distance d; every vertex nearer the center is labelled by then.  The
    layers of the shortest paths are collected back from the target: S_d =
    {target}, and S_i is the set of residual neighbours of S_(i+1) at
    center-distance i, so S_i holds exactly the vertices at center-distance
    i and target-distance d - i.  The walk from the center then takes, at
    each step, the first vertex of the sorted adjacency that is a residual
    neighbour in the next layer.

    Same path as graphs.shortest_path, which walks to the smallest neighbour
    one step closer to the target.  Let current lie on a shortest path at
    center-distance i.  A neighbour w of current has target-distance
    d - i - 1 exactly when w is in S_(i+1): such a w is at center-distance
    at least d - (d - i - 1) = i + 1 and at most i + 1.  So both walks pick
    from the same set in the same order.

    The center is searched from because its residual degree runs out first:
    each spider takes m - 1 of its edges and one edge at each target.
    """
    dist = {center: 0}
    queue = deque([center])
    while target not in dist:
        if not queue:
            return None
        u = queue.popleft()
        nxt = dist[u] + 1
        for w in residual[u]:
            if w not in dist:
                dist[w] = nxt
                queue.append(w)
    level = dist[target]
    layers = [None] * level + [{target}]
    for i in range(level - 1, 0, -1):
        layers[i] = {w for u in layers[i + 1] for w in residual[u] if dist.get(w) == i}
    vertices = [center]
    current = center
    for layer in layers[1:]:
        reachable = residual[current]
        current = next(w for w in adjacency[current] if w in layer and w in reachable)
        vertices.append(current)
    return tuple(vertices)


def grid_spiders(spec: GridGraphSpec, subset: Iterable, center: int) -> SpiderDecomposition:
    """Explicit spider construction on the grid family.

    For every coordinate axis m and every spare coordinate value r (one not
    used by the subset in axis m), a leg from the center to a target is the
    chain that first moves axis m to r, then adjusts the remaining axes one
    by one, and finally moves axis m to the target's value.  Legs therefore
    have length at most k+1, and distinct r values make all chains
    edge-disjoint.  With nu = floor((n-1)/(m0-1)) for subset size m0, the
    construction yields (nu-1)*k spiders and requires nu >= 2.
    """
    host = spec.to_graph()
    verts = _check_subset(host, subset)
    if center not in verts:
        raise ValueError("center must belong to the target subset")
    m0 = len(verts)
    multiplicity = (spec.n - 1) // (m0 - 1)
    if multiplicity < 2:
        raise ValueError(
            f"side length n={spec.n} too small: the construction needs "
            f"n >= 2*|subset|-1 = {2 * m0 - 1}"
        )

    start = spec.vertex_coords(center)
    targets = sorted(verts - {center})
    target_coords = {t: spec.vertex_coords(t) for t in targets}

    spiders = []
    for axis in range(spec.k):
        used = {coords[axis] for coords in target_coords.values()} | {start[axis]}
        spare = iter(sorted(set(range(spec.n)) - used))
        for _ in range(multiplicity - 1):
            legs = {}
            for target in targets:
                legs[target] = _grid_chain(
                    spec, start, target_coords[target], axis, next(spare)
                )
            spiders.append(Spider(center, legs))

    return SpiderDecomposition(host, verts, center, tuple(spiders), spec.k + 1)


def _grid_chain(
    spec: GridGraphSpec,
    start: tuple[int, ...],
    goal: tuple[int, ...],
    axis: int,
    spare: int,
) -> PathInGraph:
    current = list(start)
    vertices = [spec.vertex_id(start)]

    def move(m: int, value: int):
        if current[m] != value:
            current[m] = value
            vertices.append(spec.vertex_id(tuple(current)))

    move(axis, spare)
    for m in range(spec.k):
        if m != axis:
            move(m, goal[m])
    move(axis, goal[axis])
    return PathInGraph(tuple(vertices))


@dataclass(frozen=True)
class SpiderValidation:
    ok: bool
    failure: str | None = None


def validate_spiders(dec: SpiderDecomposition) -> SpiderValidation:
    """Check legs, endpoints, global edge-disjointness and the leg bound.

    Returns the first violation found; an empty decomposition passes.
    """
    expected_targets = dec.subset - {dec.center}
    seen_edges = {}
    for index, spider in enumerate(dec.spiders):
        if spider.center != dec.center:
            return SpiderValidation(False, f"spider {index} has a foreign center")
        if set(spider.legs) != expected_targets:
            return SpiderValidation(False, f"spider {index} misses a target leg")
        for target, leg in spider.legs.items():
            if leg.start != dec.center or leg.end != target:
                return SpiderValidation(
                    False, f"spider {index} leg to {target} has wrong endpoints"
                )
            if not leg.is_path_in(dec.host):
                return SpiderValidation(
                    False, f"spider {index} leg to {target} leaves the host graph"
                )
            if leg.length > dec.leg_length_bound:
                return SpiderValidation(
                    False,
                    f"spider {index} leg to {target} has length {leg.length} "
                    f"> bound {dec.leg_length_bound}",
                )
            for edge in leg.edges():
                if edge in seen_edges:
                    return SpiderValidation(
                        False,
                        f"edge {edge} reused by spider {index} "
                        f"(first used by spider {seen_edges[edge]})",
                    )
                seen_edges[edge] = index
    return SpiderValidation(True)


def decomposition_lines(dec: SpiderDecomposition) -> list[str]:
    """Line-oriented form: one line per leg, 'spider_index target v0 v1 ... vl'."""
    lines = []
    for index, spider in enumerate(dec.spiders):
        for target in sorted(spider.legs):
            verts = " ".join(str(v) for v in spider.legs[target].vertices)
            lines.append(f"{index} {target} {verts}")
    return lines
