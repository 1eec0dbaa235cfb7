"""isonet: partial distillability of noisy isotropic quantum networks.

A library and CLI for building network graphs, extracting edge-disjoint
spider subgraphs, modelling noisy teleportation and recurrence distillation,
and computing the spectral PPT obstructions of teleported GHZ states, with
brute-force oracles for everything at desk scale.
"""

__version__ = "0.1.0"

import importlib

# Re-exported names by module, imported on first access (PEP 562), so that
# `import isonet.cli` loads numpy only for the commands that use it
_EXPORTS = {
    "channels": ("path_teleport_visibility",),
    "graphs": (
        "GRAPH_FAMILIES", "INFINITE", "Graph", "GridGraphSpec", "complete_graph",
        "cycle_graph", "diameter", "edge_connectivity", "generate", "grid_graph",
        "path_graph", "random_tree", "read_edge_list", "star_graph", "write_edge_list",
    ),
    "hilbert": ("PureStateVector", "ghz"),
    "protocol": (
        "BelowThresholdError", "ProtocolPlan", "ProtocolReport", "TargetOutcome",
        "default_center",
        "distilled_visibility", "downgrade_visibility", "fidelity_from_visibility",
        "ghz_teleport_fidelity", "plan_partial_distillation", "pure_target_fidelity",
        "recurrence_step", "run_partial_distillation", "simulate_partial_distillation",
        "visibility_from_fidelity", "visibility_threshold",
    ),
    "spectra": ("is_ppt_teleported_ghz", "min_eigenvalue_teleported_ghz", "ppt_crossover"),
    "spiders": (
        "SpiderDecomposition", "decomposition_lines", "extract_spiders", "grid_spiders",
        "validate_spiders",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
