"""Map association transformer: config, weights, attention and the forward pass."""

from .attention import (
    AttnWeights,
    gelu,
    layer_norm,
    path_attention,
    rope_rotate,
    serializations,
    spatial_attention,
)
from .config import ModelConfig, FULL_VARIANTS, StageSpec, desk_config, full_config
from .forward import (
    KIND_BOUNDARY,
    KIND_CENTERLINE,
    KIND_ROAD,
    ForwardResult,
    TokenSet,
    association_probs,
    build_tokens,
    embed_vectors,
    mat_associate,
    mat_forward,
    resolve_curve_kinds,
)
from .weights import EMBED_IN, PreparedWeights, init_weights, prepare_weights, validate_weights, weight_spec

__all__ = [
    "AttnWeights",
    "ModelConfig",
    "StageSpec",
    "FULL_VARIANTS",
    "ForwardResult",
    "TokenSet",
    "KIND_ROAD",
    "KIND_CENTERLINE",
    "KIND_BOUNDARY",
    "EMBED_IN",
    "desk_config",
    "full_config",
    "gelu",
    "layer_norm",
    "rope_rotate",
    "path_attention",
    "spatial_attention",
    "serializations",
    "build_tokens",
    "embed_vectors",
    "resolve_curve_kinds",
    "mat_forward",
    "association_probs",
    "mat_associate",
    "weight_spec",
    "init_weights",
    "validate_weights",
    "PreparedWeights",
    "prepare_weights",
]
