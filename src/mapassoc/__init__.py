"""SD-HD map association toolkit.

Synthetic scene generation, distance and HMM baselines, a deterministic
map association transformer forward pass, topology-constrained beam
decoding, and path-level precision-recall metrics, all on plain numpy.

The usual flow: build a Scene (``scenegen`` or ``io``), produce an
Association (``baselines``, ``mat``, or ``decoder``), score it
(``metrics``).  The ``mapassoc`` command line chains the same pieces over
newline-delimited files.
"""

from .assocmatrix import AssocMatrix
from .baselines import distance_assoc_matrix, hmm_associate, knn_associate, viterbi
from .curves import CURVE_KINDS, GridCoord, SerializationOrder, curve_index, grid_encode, sort_tokens
from .decoder import DecodeResult, DecoderConfig, beam_decode, decode_association
from .errors import (
    ConfigError,
    CoverageError,
    GenerationError,
    IntegrityError,
    InvalidGeometryError,
    LabelError,
    MapAssocError,
    NoFeasiblePathError,
    RangeError,
    TopologyError,
    ValidationError,
)
from .geometry import (
    Association,
    Boundary,
    Centerline,
    DirVec,
    HdGraph,
    PathIndex,
    Point2,
    Road,
    Scene,
    SdGraph,
    enumerate_paths,
    full_angle,
    sample_polyline,
    validate_scene,
    vectorize_polyline,
)
from .io import (
    AssocRecord,
    load_weights,
    read_assocs,
    read_scene,
    read_scenes,
    save_weights,
    write_assocs,
    write_scene,
    write_scenes,
)
from .mat import (
    ModelConfig,
    StageSpec,
    association_probs,
    desk_config,
    init_weights,
    mat_associate,
    mat_forward,
    full_config,
    prepare_weights,
)
from .metrics import (
    MetricConfig,
    MetricReport,
    Prediction,
    association_pr,
    chamfer_distance,
    label_sequence,
    overlap_ratio,
    reachability_pr,
    report_table,
)
from .scenegen import (
    AugConfig,
    GenConfig,
    PerturbConfig,
    augment_scene,
    generate_scene,
    perturb_scene,
)

__version__ = "0.1.0"

__all__ = [
    "AssocMatrix",
    "AssocRecord",
    "Association",
    "AugConfig",
    "Boundary",
    "CURVE_KINDS",
    "Centerline",
    "ConfigError",
    "CoverageError",
    "DecodeResult",
    "DecoderConfig",
    "DirVec",
    "GenConfig",
    "GenerationError",
    "GridCoord",
    "HdGraph",
    "IntegrityError",
    "InvalidGeometryError",
    "LabelError",
    "MapAssocError",
    "MetricConfig",
    "MetricReport",
    "ModelConfig",
    "NoFeasiblePathError",
    "PathIndex",
    "PerturbConfig",
    "Point2",
    "Prediction",
    "RangeError",
    "Road",
    "Scene",
    "SdGraph",
    "SerializationOrder",
    "StageSpec",
    "TopologyError",
    "ValidationError",
    "association_pr",
    "association_probs",
    "augment_scene",
    "beam_decode",
    "chamfer_distance",
    "curve_index",
    "decode_association",
    "desk_config",
    "distance_assoc_matrix",
    "enumerate_paths",
    "full_angle",
    "generate_scene",
    "grid_encode",
    "hmm_associate",
    "init_weights",
    "knn_associate",
    "label_sequence",
    "load_weights",
    "mat_associate",
    "mat_forward",
    "overlap_ratio",
    "full_config",
    "perturb_scene",
    "prepare_weights",
    "read_assocs",
    "read_scene",
    "read_scenes",
    "reachability_pr",
    "report_table",
    "sample_polyline",
    "save_weights",
    "sort_tokens",
    "validate_scene",
    "vectorize_polyline",
    "viterbi",
    "write_assocs",
    "write_scene",
    "write_scenes",
]
