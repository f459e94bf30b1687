"""Spectral and Turan-type extremal graph toolkit for intersecting-clique
(fan) patterns: constructions, eigenvalue computations, exact forbidden-
subgraph detection, closed-form edge counts, and an exhaustive small-graph
oracle that cross-checks all of them."""

from .canon import automorphism_orbits, canonical_form, canonical_info
from .families import (
    FanSpec,
    PartitionSizes,
    balanced_sizes,
    chvatal_hanson_extremal,
    complete_multipartite,
    extremal_fan_graph,
    fan_graph,
    split_graph,
    turan_graph,
)
from .formulas import (
    FormulaResult,
    chvatal_hanson_f,
    fan_extremal_number,
    turan_number_t,
)
from .graphs import (
    Graph,
    Graph6Error,
    StructuredGraph,
    VertexPartition,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_graph6,
    induced_subgraph,
    join,
    path_graph,
    to_graph6,
)
from .oracle import (
    EnumerationCapError,
    ExtremalReport,
    FamilyReport,
    G0Candidate,
    MainTheoremReport,
    brute_force_extremal,
    brute_force_f_report,
    enumerate_graphs,
    family_search,
    g0_candidates,
    verify_main_theorem,
)
from .patterns import (
    FanWitness,
    MaxCutResult,
    PartitionInequalityReport,
    check_partition_inequality,
    clique_packing_number,
    contains_fan,
    matching_number,
    max_cut_partition,
)
from .spectral import (
    ConvergenceError,
    PerronBoundReport,
    SpectrumResult,
    multipartite_charpoly_eval,
    multipartite_spectral_radius,
    perron_entry_bound_check,
    rayleigh_quotient,
    signless_laplacian_spectrum,
    spectral_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
