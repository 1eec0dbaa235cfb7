"""isonet: partial distillability of noisy isotropic quantum networks.

A library and CLI for building network graphs, extracting edge-disjoint
spider subgraphs, modelling noisy teleportation and recurrence distillation,
and computing the spectral PPT obstructions of teleported GHZ states, with
brute-force oracles for everything at desk scale.
"""

__version__ = "0.1.0"

from .channels import apply_noisy_teleport, path_teleport_visibility
from .graphs import (
    GRAPH_FAMILIES,
    INFINITE,
    DegreeStats,
    Graph,
    GridGraphSpec,
    PathInGraph,
    complete_graph,
    cycle_graph,
    degree_stats,
    diameter,
    distance,
    edge_connectivity,
    generate,
    grid_graph,
    is_connected,
    max_edge_disjoint_paths,
    path_graph,
    random_tree,
    read_edge_list,
    remove_path_edges,
    shortest_path,
    star_graph,
    write_edge_list,
)
from .hilbert import (
    ATOL_INVARIANT,
    ATOL_PSD,
    MAX_DENSE_DIM,
    CapacityError,
    DensityOperator,
    PureStateVector,
    fidelity,
    ghz,
    ghz_basis,
    is_ppt,
    isotropic,
    max_entangled,
    partial_trace,
    partial_transpose,
    tensor,
)
from .protocol import (
    BelowThresholdError,
    GrowthScan,
    ProtocolPlan,
    ProtocolReport,
    TargetOutcome,
    connectivity_growth_scan,
    default_center,
    distilled_visibility,
    downgrade_visibility,
    fidelity_from_visibility,
    ghz_teleport_fidelity,
    plan_partial_distillation,
    pure_target_fidelity,
    recurrence_step,
    run_partial_distillation,
    simulate_partial_distillation,
    visibility_from_fidelity,
    visibility_threshold,
)
from .spectra import (
    SpectrumIndex,
    bipartition_r_index,
    is_ppt_teleported_ghz,
    min_eigenvalue_teleported_ghz,
    noise_overlap_closed,
    normalize_bipartition,
    partial_transpose_eigenvalue,
    ppt_crossover,
)
from .spiders import (
    Spider,
    SpiderDecomposition,
    SpiderValidation,
    best_center_extraction,
    decomposition_lines,
    extract_spiders,
    grid_spiders,
    spider_guarantee,
    validate_spiders,
)
