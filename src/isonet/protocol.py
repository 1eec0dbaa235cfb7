"""End-to-end partial-distillation pipeline over a noisy isotropic network.

Stages: extract edge-disjoint spiders, teleport along the legs (visibility
p^(2^(len-1)) per leg), equalize and distill each target's chunk of noisy
pairs with the two-copy recurrence, then teleport the locally prepared
target state through the distilled pairs.  The distillation stage is a
deterministic best-case fidelity model: success probabilities and waiting
times are out of scope, and the CLI's report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import TYPE_CHECKING, Iterable, Mapping

from . import spiders as spiders_mod
from .channels import _saturating_pow2, path_teleport_visibility
from .graphs import Graph, _bfs_distances, edge_connectivity

if TYPE_CHECKING:
    from .hilbert import PureStateVector

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
    return path_teleport_visibility(p, uniform_length)


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
    """The graph side of the pipeline, which no link visibility p changes.
    spiders holds the extracted spiders with their center and subset;
    leg_lengths maps each target, in sorted order, to one leg length per
    spider, or to the one shortest path it falls back on when there is none."""

    vertex_count: int
    min_degree: int
    edge_connectivity: int
    ratio_c: Fraction
    p0: float
    spider_budget: int
    leg_length_bound: Fraction
    spiders: spiders_mod.SpiderDecomposition
    leg_lengths: dict[int, tuple[int, ...]]

    @property
    def necessary_condition_violated(self) -> bool:
        return self.edge_connectivity <= 1


@dataclass(frozen=True)
class TargetOutcome:
    target: int
    leg_visibilities: tuple[float, ...]
    chunk_visibility: float
    distilled: float
    copies_consumed: int
    below_threshold: bool


@dataclass(frozen=True)
class ProtocolReport:
    """The link-visibility side of the pipeline; the graph side is the plan."""

    plan: ProtocolPlan
    p: float
    targets: tuple[TargetOutcome, ...]
    final_fidelity: float

    @property
    def p_prime_min(self) -> float:
        return min(t.distilled for t in self.targets)

    @property
    def p_above_threshold(self) -> bool:
        return self.p > self.plan.p0


def default_center(g: Graph, subset: frozenset) -> int:
    """Heuristic center: the subset vertex of maximum degree (ties: smallest id)."""
    return max(sorted(subset), key=lambda v: (g.degree(v), -v))


def pure_target_fidelity(target: PureStateVector, visibilities: Mapping[int, float]) -> float:
    """Fidelity with a pure qubit state psi after the qubits at the given
    positions (the noisy set N) went through noisy teleportation channels of
    the given visibilities; the other qubits, such as the center, are kept.

    The channels expand into one term per cut B of N, with B replaced by
    white noise, and <psi| rho_(not B) (x) I_B/2^|B| |psi> = tr(rho_B^2)/2^|B|:

        F = sum_B prod_(i in B) (1-p_i) prod_(i in N\\B) p_i tr(rho_B^2)/2^|B|.

    Each purity is the squared Frobenius norm of the Gram matrix of psi
    reshaped across the cut, on the smaller side.  The empty cut has purity
    exactly 1, so all-ones visibilities give exactly 1.0; cuts of zero weight
    are skipped.  No density operator is built.
    """
    import numpy as np

    m = len(target.dims)
    if target.dims != (2,) * m:
        raise ValueError(f"target state dims {target.dims} are not all qubits")
    for position, p in visibilities.items():
        if not 0 <= position < m:
            raise ValueError(f"position {position} outside range [0, {m})")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"visibility {p} outside [0, 1]")
    noisy = sorted(visibilities)
    amplitudes = target.vector.reshape((2,) * m)
    total = prod(visibilities[i] for i in noisy)  # the empty cut, purity 1
    for size in range(1, len(noisy) + 1):
        for cut in combinations(noisy, size):
            weight = prod(
                1.0 - visibilities[i] if i in cut else visibilities[i] for i in noisy
            )
            if weight == 0.0:
                continue
            rest = [q for q in range(m) if q not in cut]
            matrix = amplitudes.transpose(list(cut) + rest).reshape(2**size, -1)
            if size > m - size:
                matrix = matrix.T
            gram = matrix @ matrix.conj().T
            total += weight * np.vdot(gram, gram).real / 2**size
    return float(total)


def ghz_teleport_fidelity(visibilities: Iterable[float]) -> float:
    """Fidelity with GHZ of the m-party GHZ state after its non-center shares
    went through noisy teleportation channels of the given visibilities.

    The sum of pure_target_fidelity in O(m): on GHZ every nonempty cut that
    leaves out the center has purity 1/2, so over the non-center parties
    F = prod p_i + (1/2)(prod ((1-p_i)/2 + p_i) - prod p_i)
      = (1/2) prod p_i + (1/2) prod (1+p_i)/2.
    Products are accumulated in the order given.
    """
    coherence = 1.0
    population = 1.0
    for p in visibilities:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"visibility {p} outside [0, 1]")
        coherence *= p
        population *= (1.0 + p) / 2.0
    return 0.5 * coherence + 0.5 * population


def plan_partial_distillation(
    g: Graph, subset: Iterable, center: int | None = None, max_spiders: int | None = None
) -> ProtocolPlan:
    """Every check and every graph computation of the pipeline, done once:
    the premises, the guarantee's spider budget and leg bound, and the
    greedy spiders, at most max_spiders of them.

    When spider extraction yields nothing (a tree, a star reached away from
    its center, ...), each target falls back to a single teleportation path,
    a shortest one, with zero distilled copies; the plan flags the
    connectivity obstruction whenever the edge connectivity is 1.
    """
    verts, center = spiders_mod._check_subset(g.vertex_count, subset, center)
    if center is None:
        center = default_center(g, verts)
    dist = _bfs_distances(g, center)
    # refuses a disconnected g, so lambda >= 1 below
    spiders = spiders_mod._greedy_spiders(g, verts, center, dist, max_spiders)
    lam = edge_connectivity(g)
    dmin = g.min_degree
    c = Fraction(dmin, g.vertex_count)
    leg_lengths = {
        t: tuple(len(legs[t]) - 1 for legs in spiders.spiders) or (dist[t],)
        for t in sorted(verts - {center})
    }
    return ProtocolPlan(
        vertex_count=g.vertex_count,
        min_degree=dmin,
        edge_connectivity=lam,
        ratio_c=c,
        p0=visibility_threshold(float(c), 2),
        spider_budget=spiders_mod._spider_budget(dmin, g.vertex_count, lam, len(verts)),
        leg_length_bound=spiders_mod._leg_length_bound(dmin, g.vertex_count),
        spiders=spiders,
        leg_lengths=leg_lengths,
    )


def run_partial_distillation(
    plan: ProtocolPlan,
    p: float,
    target_state: PureStateVector | None = None,
    uniform_legs: bool = False,
) -> ProtocolReport:
    """The link-visibility side of the pipeline on a plan: leg visibilities,
    distillation and the final stage.  Links and targets are qubits; a custom
    target_state needs one qubit per subset vertex, in sorted vertex order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    subset = plan.spiders.subset
    m = len(subset)
    if target_state is not None and target_state.dims != (2,) * m:
        raise ValueError(
            f"target state dims {target_state.dims} do not match {m} qubit parties"
        )

    copies = plan.spiders.count
    uniform_bound = float(plan.leg_length_bound)
    targets = []
    for target, lengths in plan.leg_lengths.items():
        if uniform_legs:
            visibilities = tuple(downgrade_visibility(p, n, uniform_bound) for n in lengths)
        else:
            visibilities = tuple(path_teleport_visibility(p, n) for n in lengths)
        chunk = min(visibilities)  # every copy is equalized to the worst leg
        distilled, consumed, below = chunk, 0, False
        if copies > 0:
            try:
                distilled, consumed = distilled_visibility(chunk, copies)
            except BelowThresholdError:
                below = True
        targets.append(
            TargetOutcome(
                target=target,
                leg_visibilities=visibilities,
                chunk_visibility=chunk,
                distilled=distilled,
                copies_consumed=consumed,
                below_threshold=below,
            )
        )

    # final stage: teleport the locally prepared state through the
    # distilled pairs (identity on the center's factor)
    if target_state is None:
        final_fidelity = ghz_teleport_fidelity(t.distilled for t in targets)
    else:
        position = {vertex: i for i, vertex in enumerate(sorted(subset))}
        final_fidelity = pure_target_fidelity(
            target_state, {position[t.target]: t.distilled for t in targets}
        )

    return ProtocolReport(plan, p, tuple(targets), final_fidelity)


def simulate_partial_distillation(
    g: Graph,
    subset: Iterable,
    p: float,
    center: int | None = None,
    target_state: PureStateVector | None = None,
    uniform_legs: bool = False,
) -> ProtocolReport:
    """Run the full pipeline on one graph at one link visibility: the plan
    followed by the run."""
    plan = plan_partial_distillation(g, subset, center)
    return run_partial_distillation(plan, p, target_state, uniform_legs)
