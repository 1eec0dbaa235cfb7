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
from itertools import combinations
from math import prod
from typing import TYPE_CHECKING, Iterable, Mapping

from . import spiders as spiders_mod
from .channels import _saturating_pow2, path_teleport_visibility
from .graphs import Graph, degree_stats, edge_connectivity, shortest_path

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
    leg_lengths maps each target, in sorted order, to one leg length per
    spider, or to the one shortest path it falls back on when there is none."""

    vertex_count: int
    min_degree: int
    edge_connectivity: int
    ratio_c: Fraction
    p0: float
    spider_budget: int
    leg_length_bound: Fraction
    center: int
    subset: frozenset
    spiders_found: int
    leg_lengths: dict[int, tuple[int, ...]]


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
    p: float
    plan: ProtocolPlan
    targets: tuple[TargetOutcome, ...]
    final_fidelity: float
    p_above_threshold: bool
    uniform_legs: bool
    model_note: str = RECURRENCE_MODEL_NOTE

    @property
    def p_prime_min(self) -> float:
        return min(t.distilled for t in self.targets)

    # graph-side facts, stored only in the plan
    vertex_count = property(lambda report: report.plan.vertex_count)
    min_degree = property(lambda report: report.plan.min_degree)
    edge_connectivity = property(lambda report: report.plan.edge_connectivity)
    spiders_found = property(lambda report: report.plan.spiders_found)
    necessary_condition_violated = property(lambda report: report.plan.edge_connectivity <= 1)


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
    g: Graph, subset: Iterable, center: int | None = None
) -> ProtocolPlan:
    """Every check and every graph computation of the pipeline, done once.

    When spider extraction yields nothing (a tree, a star reached away from
    its center, ...), each target falls back to a single teleportation path,
    a shortest one, with zero distilled copies; the report flags the
    connectivity obstruction whenever the edge connectivity is 1.
    """
    verts = spiders_mod._check_subset(g, (int(v) for v in subset))
    lam = edge_connectivity(g)
    if lam == 0:  # lambda >= 1 exactly when g is connected
        raise ValueError("graph must be connected")
    if center is None:
        center = default_center(g, verts)
    if center not in verts:
        raise ValueError("center must belong to the target subset")

    dmin = degree_stats(g).minimum
    c = Fraction(dmin, g.vertex_count)
    budget = spiders_mod._spider_budget(dmin, g.vertex_count, lam, len(verts))
    spiders = spiders_mod.extract_spiders(g, verts, center).spiders
    targets = sorted(verts - {center})
    if spiders:
        leg_lengths = {t: tuple(s.legs[t].length for s in spiders) for t in targets}
    else:
        leg_lengths = {t: (shortest_path(g, center, t).length,) for t in targets}
    return ProtocolPlan(
        vertex_count=g.vertex_count,
        min_degree=dmin,
        edge_connectivity=lam,
        ratio_c=c,
        p0=visibility_threshold(float(c), 2),
        spider_budget=budget.count,
        leg_length_bound=budget.leg_length_bound,
        center=center,
        subset=verts,
        spiders_found=len(spiders),
        leg_lengths=leg_lengths,
    )


def run_partial_distillation(
    plan: ProtocolPlan,
    p: float,
    target_state: PureStateVector | None = None,
    uniform_legs: bool = False,
    graph_id: str = "graph",
) -> ProtocolReport:
    """The link-visibility side of the pipeline on a plan: leg visibilities,
    distillation and the final stage.  Links and targets are qubits; a custom
    target_state needs one qubit per subset vertex, in sorted vertex order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    m = len(plan.subset)
    if target_state is not None and target_state.dims != (2,) * m:
        raise ValueError(
            f"target state dims {target_state.dims} do not match {m} qubit parties"
        )

    copies = plan.spiders_found
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
    # distilled pairs (identity on the center's factor)
    if target_state is None:
        final_fidelity = ghz_teleport_fidelity(t.distilled for t in targets)
    else:
        position = {vertex: i for i, vertex in enumerate(sorted(plan.subset))}
        final_fidelity = pure_target_fidelity(
            target_state, {position[t.target]: t.distilled for t in targets}
        )

    return ProtocolReport(
        graph_id=graph_id,
        p=p,
        plan=plan,
        targets=tuple(targets),
        final_fidelity=final_fidelity,
        p_above_threshold=p > plan.p0,
        uniform_legs=uniform_legs,
    )


def simulate_partial_distillation(
    g: Graph,
    subset: Iterable,
    p: float,
    center: int | None = None,
    target_state: PureStateVector | None = None,
    uniform_legs: bool = False,
    graph_id: str = "graph",
) -> ProtocolReport:
    """Run the full pipeline on one graph at one link visibility: the plan
    followed by the run."""
    plan = plan_partial_distillation(g, subset, center)
    return run_partial_distillation(plan, p, target_state, uniform_legs, graph_id)
