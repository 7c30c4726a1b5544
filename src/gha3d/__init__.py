"""Global hierarchical attention over 3D point clouds.

Linear-cost softmax attention: tokens attend locally within every level
of a spatial hierarchy (kNN over farthest-point subsamples, or voxel
windows over strided poolings), and the unnormalized results flow back
down for a single exact normalization. Includes the exact adjoint,
random Fourier positional embeddings, a stacked transformer-style block,
introspection/benchmark reports, and a CLI.
"""

from .analysis import (
    PROBE_CAP,
    ApproximationReport,
    DistanceHistogram,
    ScalingReport,
    ScalingRow,
    approximation_csv,
    approximation_report,
    attention_histogram,
    effective_attention,
    effective_attention_row,
    heatmap_csv,
    histogram_csv,
    locality_ratio,
    mass_beyond_radius,
    mechanism_weights,
    neighborhood_radius,
    scaling_csv,
    scaling_sweep,
    weight_bound,
)
from .attention import (
    AttentionInputs,
    AttentionResult,
    FourierEmbedding,
    Gradients,
    dense_attention,
    embed_points,
    fourier_embed,
    gha_backward,
    gha_forward,
    local_attention,
    make_fourier_embedding,
    positional_table,
)
from .block import (
    BlockConfig,
    GhaBlockParams,
    LayerParams,
    block_forward,
    init_params,
    layer_norm,
    load_params,
    save_params,
    xavier_bound,
)
from .errors import (
    CapacityError,
    ConfigError,
    FormatError,
    GhaError,
    InvalidCoarsenError,
    InvalidInputError,
    InvariantViolation,
    UnsupportedVersionError,
)
from .geometry import (
    NeighborhoodTopology,
    PointCloud,
    SparseVoxelGrid,
    farthest_point_sample,
    kernel_window_topology,
    knn,
    load_point_cloud,
    save_point_cloud_binary,
    voxelize,
)
from .hierarchy import (
    VOXEL_WINDOW_K,
    Hierarchy,
    HierarchyLevel,
    attention_structure,
    build_hierarchy,
    children_of,
    dump_hierarchy,
    interpolate,
    truncate,
    with_values,
)
from .seeding import substream

__version__ = "0.1.0"


def __getattr__(name):
    # The CLI loads on first use: imported here eagerly, it would already sit
    # in sys.modules when ``python -m gha3d.cli`` runs it, and runpy warns.
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PROBE_CAP",
    "VOXEL_WINDOW_K",
    "ApproximationReport",
    "AttentionInputs",
    "AttentionResult",
    "BlockConfig",
    "CapacityError",
    "ConfigError",
    "DistanceHistogram",
    "FormatError",
    "FourierEmbedding",
    "GhaBlockParams",
    "GhaError",
    "Gradients",
    "Hierarchy",
    "HierarchyLevel",
    "InvalidCoarsenError",
    "InvalidInputError",
    "InvariantViolation",
    "LayerParams",
    "NeighborhoodTopology",
    "PointCloud",
    "ScalingReport",
    "ScalingRow",
    "SparseVoxelGrid",
    "UnsupportedVersionError",
    "approximation_csv",
    "approximation_report",
    "attention_histogram",
    "attention_structure",
    "block_forward",
    "build_hierarchy",
    "children_of",
    "dense_attention",
    "dump_hierarchy",
    "effective_attention",
    "effective_attention_row",
    "embed_points",
    "farthest_point_sample",
    "fourier_embed",
    "gha_backward",
    "gha_forward",
    "heatmap_csv",
    "histogram_csv",
    "init_params",
    "interpolate",
    "kernel_window_topology",
    "knn",
    "layer_norm",
    "load_params",
    "load_point_cloud",
    "local_attention",
    "locality_ratio",
    "main",
    "make_fourier_embedding",
    "mass_beyond_radius",
    "mechanism_weights",
    "neighborhood_radius",
    "positional_table",
    "save_params",
    "save_point_cloud_binary",
    "scaling_csv",
    "scaling_sweep",
    "substream",
    "truncate",
    "voxelize",
    "weight_bound",
    "with_values",
    "xavier_bound",
]
