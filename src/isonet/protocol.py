"""End-to-end partial-distillation pipeline over a noisy isotropic network.

Stages: extract edge-disjoint spiders, teleport along the legs (visibility
p^(2^(len-1)) per leg), equalize and distill each target's chunk of noisy
pairs with the two-copy recurrence, then teleport the locally prepared
target state through the distilled pairs.  The distillation stage is a
deterministic best-case fidelity model: success probabilities and waiting
times are out of scope, and every report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import spiders as spiders_mod
from .channels import _saturating_pow2, apply_noisy_teleport, path_teleport_visibility
from .graphs import (
    Graph,
    degree_stats,
    edge_connectivity,
    generate,
    is_connected,
    shortest_path,
)
from .hilbert import PureStateVector, _require_capacity, fidelity

RECURRENCE_MODEL_NOTE = "recurrence model, deterministic best case"


class BelowThresholdError(ValueError):
    """Distillation refused: the chunk visibility is not above 1/(d+1)."""


def visibility_threshold(c: float, d: int) -> float:
    """Visibility bound (d+1)^(-1/2^(5/c-1)) above which chunks stay distillable.

    For p above the returned value, a pair teleported over a leg of length
    at most 5/c keeps visibility above 1/(d+1).  Once 2^(5/c-1) leaves the
    float range the threshold is exactly 1.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"degree ratio {c} outside (0, 1]")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return float(d + 1) ** (-1.0 / _saturating_pow2(5.0 / c - 1.0))


def downgrade_visibility(p: float, actual_length: int, uniform_length: float) -> float:
    """Visibility after deliberately degrading a leg to a uniform worst case.

    Mixing with the fully depolarizing channel lets every copy in a chunk
    share the single visibility p^(2^(uniform_length-1)).
    """
    if actual_length < 1:
        raise ValueError("leg length must be at least 1")
    if actual_length > uniform_length:
        raise ValueError(
            f"actual length {actual_length} exceeds uniform bound {uniform_length}"
        )
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    return float(p) ** _saturating_pow2(uniform_length - 1.0)


def fidelity_from_visibility(p: float) -> float:
    """Fidelity of a two-qubit isotropic state with the maximally entangled pair."""
    return p + (1.0 - p) / 4.0


def visibility_from_fidelity(f: float) -> float:
    return (4.0 * f - 1.0) / 3.0


def recurrence_step(f: float) -> float:
    """One two-copy recurrence round on qubit isotropic states.

    Maps the common fidelity F of two copies to the fidelity of the
    surviving copy; F = 1 and F = 1/2 are fixed points and the map is
    strictly increasing above 1/2.
    """
    if not 0.25 < f <= 1.0:
        raise ValueError(f"fidelity {f} outside (1/4, 1]")
    # multiplied through by 9 so both fixed points are exact in floats
    numerator = 9.0 * f * f + (1.0 - f) ** 2
    denominator = 9.0 * f * f + 6.0 * f * (1.0 - f) + 5.0 * (1.0 - f) ** 2
    return numerator / denominator


def distilled_visibility(p_chunk: float, copies: int) -> tuple[float, int]:
    """Best-case visibility after recurrence-distilling a chunk of copies.

    Runs floor(log2(copies)) rounds, halving the surviving copy count each
    round; returns the final visibility and the number of copies consumed
    (the largest power of two available; odd leftovers carry no benefit in
    this deterministic model).
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    if not 0.0 <= p_chunk <= 1.0:
        raise ValueError(f"visibility {p_chunk} outside [0, 1]")
    if copies == 1:
        return p_chunk, 1
    if p_chunk <= 1.0 / 3.0:
        raise BelowThresholdError(
            "below distillability threshold p > 1/(d+1): "
            f"chunk visibility {p_chunk:.6g} with d = 2"
        )
    rounds = copies.bit_length() - 1
    f = fidelity_from_visibility(p_chunk)
    for _ in range(rounds):
        f = recurrence_step(f)
    return visibility_from_fidelity(f), 2**rounds


@dataclass(frozen=True)
class ProtocolPlan:
    """Pre-run quantities: degree ratio, threshold, spider budget, leg bound."""

    ratio_c: Fraction
    p0: float
    spider_budget: int
    leg_length_bound: Fraction
    center: int
    subset: frozenset


@dataclass(frozen=True)
class TargetOutcome:
    target: int
    copies: int
    leg_lengths: tuple[int, ...]
    leg_visibilities: tuple[float, ...]
    chunk_visibility: float
    distilled: float
    copies_consumed: int
    below_threshold: bool

    @property
    def strictly_improved(self) -> bool:
        """True exactly when distillation ran inside the recurrence gain region."""
        return self.distilled > self.chunk_visibility


@dataclass(frozen=True)
class ProtocolReport:
    graph_id: str
    vertex_count: int
    p: float
    plan: ProtocolPlan
    spiders_found: int
    targets: tuple[TargetOutcome, ...]
    final_fidelity: float | None
    p_above_threshold: bool
    necessary_condition_violated: bool
    edge_connectivity: int
    min_degree: int
    uniform_legs: bool
    model_note: str = RECURRENCE_MODEL_NOTE

    @property
    def p_prime_min(self) -> float:
        return min(t.distilled for t in self.targets)


def default_center(g: Graph, subset: frozenset) -> int:
    """Heuristic center: the subset vertex of maximum degree (ties: smallest id)."""
    return max(sorted(subset), key=lambda v: (g.degree(v), -v))


def _plan(g: Graph, subset: frozenset, center: int, lam: int, d: int) -> ProtocolPlan:
    dmin = degree_stats(g).minimum
    c = Fraction(dmin, g.vertex_count)
    budget = spiders_mod._spider_budget(dmin, g.vertex_count, lam, len(subset))
    return ProtocolPlan(
        ratio_c=c,
        p0=visibility_threshold(float(c), d),
        spider_budget=budget.count,
        leg_length_bound=budget.leg_length_bound,
        center=center,
        subset=subset,
    )


def ghz_teleport_fidelity(visibilities: Iterable[float]) -> float:
    """Fidelity with GHZ of the m-party GHZ state after its non-center shares
    went through noisy teleportation channels of the given visibilities.

    F = (1/2) prod p_i + (1/2) prod (1+p_i)/2 over the non-center parties: the
    GHZ coherence survives with weight prod p_i, the |0...0> population with
    weight prod (1+p_i)/2, and the |1...1> population term prod (1-p_i)/2 is
    killed by the center's identity channel.  Products are accumulated in the
    order given.
    """
    coherence = 1.0
    population = 1.0
    for p in visibilities:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"visibility {p} outside [0, 1]")
        coherence *= p
        population *= (1.0 + p) / 2.0
    return 0.5 * coherence + 0.5 * population


def simulate_partial_distillation(
    g: Graph,
    subset: Iterable,
    p: float,
    center: int | None = None,
    target_state: PureStateVector | None = None,
    uniform_legs: bool = False,
    graph_id: str = "graph",
    local_dim: int = 2,
) -> ProtocolReport:
    """Run the full pipeline on one graph at one link visibility.

    When spider extraction yields nothing (a tree, a star reached away from
    its center, ...), each target falls back to a single teleportation path
    with zero distilled copies, and the report flags the connectivity
    obstruction whenever the edge connectivity is 1.  The recurrence only
    covers qubit links: for local_dim > 2 the pipeline stops after the leg
    teleportation stage and reports chunk visibilities without a fidelity.
    """
    verts = spiders_mod._check_subset(g, (int(v) for v in subset))
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if center is None:
        center = default_center(g, verts)
    if center not in verts:
        raise ValueError("center must belong to the target subset")

    m = len(verts)
    distill_stage = local_dim == 2
    if target_state is not None and distill_stage:
        if target_state.dims != (2,) * m:
            raise ValueError(
                f"target state dims {target_state.dims} do not match {m} qubit parties"
            )
        _require_capacity(2**m)  # the custom target goes through the dense route

    lam = edge_connectivity(g)
    plan = _plan(g, verts, center, lam, d=local_dim)
    uniform_bound = float(plan.leg_length_bound)

    decomposition = spiders_mod.extract_spiders(g, verts, center)
    copies = decomposition.count
    targets = []
    for target in sorted(verts - {center}):
        if copies > 0:
            lengths = tuple(
                spider.legs[target].length for spider in decomposition.spiders
            )
        else:
            lengths = (shortest_path(g, center, target).length,)
        if uniform_legs:
            visibilities = tuple(
                downgrade_visibility(p, length, uniform_bound) for length in lengths
            )
        else:
            visibilities = tuple(
                path_teleport_visibility(p, length) for length in lengths
            )
        chunk = min(visibilities)  # every copy is equalized to the worst leg
        below = False
        if copies > 0 and distill_stage:
            try:
                distilled, consumed = distilled_visibility(chunk, copies)
            except BelowThresholdError:
                distilled, consumed = chunk, 0
                below = True
        else:
            distilled, consumed = chunk, 0
        targets.append(
            TargetOutcome(
                target=target,
                copies=copies,
                leg_lengths=lengths,
                leg_visibilities=visibilities,
                chunk_visibility=chunk,
                distilled=distilled,
                copies_consumed=consumed,
                below_threshold=below,
            )
        )

    # final stage: teleport the locally prepared state through the
    # distilled pairs (identity on the center's factor); the GHZ target has
    # a closed form, a custom target is composed densely
    if not distill_stage:
        final_fidelity = None
    elif target_state is None:
        final_fidelity = ghz_teleport_fidelity(t.distilled for t in targets)
    elif all(t.distilled == 1.0 for t in targets):
        final_fidelity = 1.0  # every channel is the identity map
    else:
        state = target_state.density()
        by_target = {t.target: t.distilled for t in targets}
        for position, vertex in enumerate(sorted(verts)):
            if vertex == center:
                continue
            state = apply_noisy_teleport(state, by_target[vertex], position)
        final_fidelity = fidelity(target_state, state)

    return ProtocolReport(
        graph_id=graph_id,
        vertex_count=g.vertex_count,
        p=p,
        plan=plan,
        spiders_found=copies,
        targets=tuple(targets),
        final_fidelity=final_fidelity,
        p_above_threshold=p > plan.p0,
        necessary_condition_violated=lam <= 1,
        edge_connectivity=lam,
        min_degree=degree_stats(g).minimum,
        uniform_legs=uniform_legs,
    )


@dataclass(frozen=True)
class GrowthScanRow:
    size: int
    vertex_count: int
    min_degree: int
    edge_connectivity: int


@dataclass(frozen=True)
class GrowthScan:
    family: str
    rows: tuple[GrowthScanRow, ...]
    verdict: str  # "obstructed" | "consistent" | "inconclusive"
    note: str = "finite-sample evidence, not a proof"


def connectivity_growth_scan(
    family: str, sizes: Iterable[int], k: int | None = None, seed: int = 0
) -> GrowthScan:
    """Edge-connectivity trend along a graph family.

    Constant edge connectivity along the scanned prefix is an obstruction to
    distillability at scale; strict growth is consistent with it.  Either
    verdict is finite-sample evidence only.
    """
    rows = []
    for size in sizes:
        g = generate(family, size, k=k, seed=seed)
        stats = degree_stats(g)
        rows.append(
            GrowthScanRow(size, g.vertex_count, stats.minimum, edge_connectivity(g))
        )
    if len(rows) < 2:
        verdict = "inconclusive"
    else:
        lam = [row.edge_connectivity for row in rows]
        if all(b > a for a, b in zip(lam, lam[1:])):
            verdict = "consistent"
        elif all(b == lam[0] for b in lam):
            verdict = "obstructed"
        else:
            verdict = "inconclusive"
    return GrowthScan(family, tuple(rows), verdict)
