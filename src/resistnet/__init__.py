"""resistnet: stability and robustness analysis of weighted consensus networks.

The package decides whether agreement dynamics over a signed, weighted graph
converge, how much additive weight perturbation they tolerate, and validates
the analytic verdicts by simulating the dynamics.
"""

from .errors import (
    DisconnectedGraphError,
    GenerationError,
    GraphConstructionError,
    GraphFormatError,
    InputError,
    NominalInstabilityError,
    NotApplicableError,
    ResistNetError,
    SingularMatrixError,
    StepSizeError,
)
from .graph import (
    ForestDecomposition,
    SignedPartition,
    WeightedGraph,
    build_graph,
    component_indicators,
    connected_components,
    edge_laplacian,
    essential_edge_laplacian,
    forest_left_inverse,
    graph_from_dict,
    graph_to_dict,
    incidence_matrix,
    is_balanced,
    laplacian,
    load_graph,
    negative_cut_components,
    negative_subgraph,
    path_edge_set,
    positive_subgraph,
    save_graph,
    signed_partition,
    spanning_forest,
    weighted_cut_matrix,
)
from .resistance import (
    effective_resistance,
    node_pair_resistance_matrix,
    resistance_matrix,
    total_effective_resistance,
)
from .robustness import (
    MarginReport,
    SandwichBounds,
    SectorCheckResult,
    SectorSpec,
    UncertaintySpec,
    disjoint_paths_margin,
    m11_at_zero,
    m11_frequency_response,
    sandwich_bounds,
    sector_stability_check,
    single_edge_margin,
    single_edge_sector_check,
    small_gain_margin,
    worst_single_edge,
)
from .simulation import (
    NonlinearCoupling,
    SimulationConfig,
    SplitMix64,
    Trajectory,
    burst_input,
    detect_clusters,
    generate_rgg,
    simulate_linear,
    simulate_nonlinear,
    table_input,
    write_trajectory_csv,
)
from .spectral import DEFAULT_TOL, Signature, is_psd, pseudoinverse, signature_of, spectral_norm
from .stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    MultiEdgeThresholds,
    StabilityVerdict,
    classify_stability,
    lmi_psd_check,
    multi_negative_edge_thresholds,
    negative_cut_verdict,
    single_negative_edge_threshold,
    total_resistance_necessary_check,
)

__version__ = "0.1.0"
