"""Edge-disjoint spider subgraphs: the guarantee's budget, extraction,
validation.

A spider is a tree with one designated center and simple-path legs running
to a set of target vertices.  Collections of pairwise edge-disjoint spiders
are what the distillation pipeline consumes: every spider contributes one
noisy entangled pair between the center and each target.  A leg is the tuple
of its vertices, center first, and a spider is a dict from target to leg.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graphs import INFINITE, Graph, GridGraphSpec, _bfs_distances


@dataclass(frozen=True)
class SpiderDecomposition:
    """Edge-disjoint spiders around one center: each a dict from target to
    leg, the tuple of the leg's vertices from the center to the target, so a
    leg of length l has l + 1 vertices."""

    subset: frozenset
    center: int
    spiders: tuple[dict[int, tuple[int, ...]], ...]
    leg_length_bound: int

    @property
    def count(self) -> int:
        return len(self.spiders)


def _vertex_id(v) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"vertex {v!r} is not an integer") from None


def _check_subset(
    vertex_count: int, subset: Iterable, center: int | None = None
) -> tuple[frozenset, int | None]:
    """The target subset and the center as integer vertex ids: at least two
    vertices, each in range, and holding the center when one is given (None
    stays None)."""
    verts = frozenset(map(_vertex_id, subset))
    if len(verts) < 2:
        raise ValueError("the target subset needs at least two vertices")
    for v in verts:
        if not 0 <= v < vertex_count:
            raise ValueError(f"vertex {v} outside range [0, {vertex_count})")
    if center is not None:
        center = _vertex_id(center)
        if center not in verts:
            raise ValueError("center must belong to the target subset")
    return verts, center


def _leg_length_bound(dmin: int, vertex_count: int) -> Fraction:
    """The guarantee's leg bound 5/c, with c = dmin/vertex_count."""
    return Fraction(5 * vertex_count, dmin)


def _spider_budget(dmin: int, vertex_count: int, lam: int, m: int) -> int:
    """The guarantee's count: a connected graph with minimum degree dmin
    above 1, degree ratio c = dmin/vertex_count and edge connectivity lam
    holds at least floor(min(dmin, c*lam) / (5*m)) edge-disjoint spiders
    with legs of length at most 5/c around any center of a target subset
    of size m."""
    c = Fraction(dmin, vertex_count)
    return int(min(Fraction(dmin), c * lam) / (5 * m))


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
    reached.  Whenever the guarantee premises hold, at least the spider
    budget of protocol.plan_partial_distillation is produced.
    """
    verts, center = _check_subset(g.vertex_count, subset, center)
    return _greedy_spiders(g, verts, center, _bfs_distances(g, center), max_spiders)


def _greedy_spiders(
    g: Graph, verts: frozenset, center: int, dist: list, max_spiders: int | None
) -> SpiderDecomposition:
    """extract_spiders on a valid subset and center, given the center's BFS
    distances in g."""
    if INFINITE in dist:
        raise ValueError("premise violated: graph must be connected")
    if max_spiders is not None and max_spiders < 0:
        raise ValueError(f"max_spiders {max_spiders} is negative")
    # never binding when dmin is 1
    leg_length_bound = _leg_length_bound(g.min_degree, g.vertex_count)

    targets = sorted(verts - {center}, key=lambda v: (dist[v], v))

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
            legs[target] = leg
        if legs is None:
            break
        spiders.append(legs)

    return SpiderDecomposition(verts, center, tuple(spiders), int(leg_length_bound))


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

    Same path as verification.shortest_path, which walks to the smallest
    neighbour one step closer to the target.  Let current lie on a shortest
    path at center-distance i.  A neighbour w of current has target-distance
    d - i - 1 exactly when w is in S_(i+1): such a w is at center-distance
    at least d - (d - i - 1) = i + 1 and at most i + 1.  So both walks pick
    from the same set in the same order.

    The center is searched from because its residual degree runs out first:
    each spider takes m - 1 of its edges and one edge at each target.

    Legs of one or two edges are settled before the BFS.  At d = 1 the path
    is (center, target).  At d = 2, S_1 is the set of residual neighbours of
    the target at center-distance 1, that is residual[center] &
    residual[target]; the walk takes the first member of S_1 in the sorted
    adjacency of the center, which is min(S_1).  The BFS then runs only for
    legs of three or more edges, which are rare on a complete graph.
    """
    if target in residual[center]:
        return (center, target)
    common = residual[center] & residual[target]
    if common:
        return (center, min(common), target)
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
    verts, center = _check_subset(spec.order, subset, center)
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
            spiders.append(legs)

    return SpiderDecomposition(verts, center, tuple(spiders), spec.k + 1)


def _grid_chain(
    spec: GridGraphSpec,
    start: tuple[int, ...],
    goal: tuple[int, ...],
    axis: int,
    spare: int,
) -> tuple[int, ...]:
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
    return tuple(vertices)


def validate_spiders(dec: SpiderDecomposition, host: Graph) -> str | None:
    """The first violation found, or None: every spider has one leg per
    target; every leg has an edge, repeats no vertex, runs from the center to
    its target along edges of host and keeps the leg bound; no edge serves
    two legs.  An empty decomposition passes."""
    expected_targets = dec.subset - {dec.center}
    seen_edges = {}
    for index, legs in enumerate(dec.spiders):
        if set(legs) != expected_targets:
            return f"spider {index} misses a target leg"
        for target, leg in legs.items():
            where = f"spider {index} leg to {target}"
            if len(leg) < 2:
                return f"{where} needs at least one edge"
            if len(set(leg)) != len(leg):
                return f"{where} repeats a vertex"
            if leg[0] != dec.center or leg[-1] != target:
                return f"{where} has wrong endpoints"
            steps = list(zip(leg, leg[1:]))
            if not all(host.has_edge(a, b) for a, b in steps):
                return f"{where} leaves the host graph"
            if len(leg) - 1 > dec.leg_length_bound:
                return f"{where} has length {len(leg) - 1} > bound {dec.leg_length_bound}"
            for a, b in steps:
                edge = (min(a, b), max(a, b))
                if edge in seen_edges:
                    return (
                        f"edge {edge} reused by spider {index} "
                        f"(first used by spider {seen_edges[edge]})"
                    )
                seen_edges[edge] = index
    return None


def decomposition_lines(dec: SpiderDecomposition) -> list[str]:
    """Line-oriented form: one line per leg, 'spider_index target v0 v1 ... vl'."""
    lines = []
    for index, legs in enumerate(dec.spiders):
        for target in sorted(legs):
            lines.append(f"{index} {target} {' '.join(map(str, legs[target]))}")
    return lines
