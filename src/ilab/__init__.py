"""Interval edge-colouring laboratory.

A proper edge colouring is *interval* when the colours at every vertex form
a contiguous block of integers. This package bundles exact searches for
small graphs (colourability, maximum colour count, interval thickness), a
decomposition pipeline bounding the thickness from above, the layered random
construction and adversarial probe used for lower bounds, and the extremal
planar family with its splitting and sparsity toolkit.
"""

from .colouring import (
    ColouringReport,
    EdgeColouring,
    colour_forest,
    count_colours,
    spread_cap,
    spread_check,
    verify,
)
from .decompose import (
    DecompositionReport,
    DensityIncrementStuck,
    IncrementStep,
    KFactorWitness,
    PipelineConfig,
    bit_split,
    colour_regular_bipartite,
    decompose_theta,
    density_increment_step,
    find_k_factor,
    forest_partition,
    large_regular_subgraph,
    matching_decomposition,
    objective_check,
)
from .exact import (
    SearchBudget,
    SearchBudgetExceeded,
    ThicknessResult,
    exact_thickness,
    find_interval_colouring,
    max_colours,
    peel_sequence,
)
from .formats import FormatError
from .graphs import (
    BipartiteGraph,
    Edge,
    EdgePartition,
    Graph,
    canonical_edge,
    diameter,
    induced_subgraph,
)
from .planar import (
    FamilySpec,
    SplitResult,
    extremal_family,
    hereditary_sparsity,
    unique_colour_split,
    verify_colour_bound,
)
from .randlab import (
    DensePartHypothesis,
    LayeredBipartite,
    LowerBoundParams,
    ProbeTrace,
    SpreadWitness,
    adversarial_probe,
    check_biregular,
    check_pseudorandom,
    find_dense_monochromatic,
    generate,
    validate_spread_witness,
)

__all__ = [
    "BipartiteGraph",
    "ColouringReport",
    "DecompositionReport",
    "DensePartHypothesis",
    "DensityIncrementStuck",
    "Edge",
    "EdgeColouring",
    "EdgePartition",
    "FamilySpec",
    "FormatError",
    "Graph",
    "IncrementStep",
    "KFactorWitness",
    "LayeredBipartite",
    "LowerBoundParams",
    "PipelineConfig",
    "ProbeTrace",
    "SearchBudget",
    "SearchBudgetExceeded",
    "SplitResult",
    "SpreadWitness",
    "ThicknessResult",
    "adversarial_probe",
    "bit_split",
    "canonical_edge",
    "check_biregular",
    "check_pseudorandom",
    "colour_forest",
    "colour_regular_bipartite",
    "count_colours",
    "decompose_theta",
    "density_increment_step",
    "diameter",
    "exact_thickness",
    "extremal_family",
    "find_dense_monochromatic",
    "find_interval_colouring",
    "find_k_factor",
    "forest_partition",
    "generate",
    "hereditary_sparsity",
    "induced_subgraph",
    "large_regular_subgraph",
    "matching_decomposition",
    "max_colours",
    "objective_check",
    "peel_sequence",
    "spread_cap",
    "spread_check",
    "unique_colour_split",
    "validate_spread_witness",
    "verify",
    "verify_colour_bound",
]
