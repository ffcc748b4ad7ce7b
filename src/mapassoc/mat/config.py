"""Model configuration for the map association transformer.

A model is a sequence of stages; each stage repeats identical residual blocks
at a fixed channel width, and consecutive stages are bridged by a linear
channel projection (token count never changes). Every block runs one spatial
attention, one path attention (order configurable), and one FFN.

RoPE divisibility: path attention rotates over 2 axes and spatial attention
over 3, each axis needing an even channel chunk, so the per-head dimension
must be divisible by both 4 and 6 (hence by 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from ..curves import CURVE_KINDS, DEFAULT_GRID_G, DEFAULT_GRID_R
from ..errors import ConfigError
from ..fields import above, at_least, check_fields

__all__ = ["StageSpec", "ModelConfig", "desk_config", "full_config", "FULL_VARIANTS"]

ATTENTION_KINDS = ("spatial", "path")
POOLING_KINDS = ("avg", "max")

# per-head channel chunking: 2 RoPE axes for path attention, 3 for spatial
PATH_ROPE_AXES = 2
SPATIAL_ROPE_AXES = 3


@dataclass(frozen=True)
class StageSpec:
    """One stage: `blocks` residual blocks at `channels` width, `heads` heads."""

    blocks: int = field(metadata=at_least(1))
    channels: int = field(metadata=at_least(1))
    heads: int = field(metadata=at_least(1))

    def __post_init__(self):
        check_fields(self)
        if self.channels % self.heads != 0:
            raise ConfigError(f"channels: {self.channels} not divisible by {self.heads} heads")
        head_dim = self.channels // self.heads
        for axes, kind in ((PATH_ROPE_AXES, "path"), (SPATIAL_ROPE_AXES, "spatial")):
            if head_dim % (2 * axes) != 0:
                raise ConfigError(
                    f"channels: head dim {head_dim} not divisible by {2 * axes} "
                    f"({kind} attention rotates {axes} axes)"
                )


@dataclass(frozen=True)
class ModelConfig:
    """Architecture, token serialization and the association head's pooling.

    `curve` is one of the four serialization curves or "random", in which case
    the forward pass draws one kind per block from a seeded stream. The
    config holds no loss weights: the toolkit runs inference only, and the
    training losses are not part of it.
    """

    stages: tuple[StageSpec, ...] = (StageSpec(1, 48, 4), StageSpec(1, 96, 4))
    patch_size: int = field(default=1024, metadata=at_least(1))
    curve: Literal[CURVE_KINDS + ("random",)] = "hilbert"
    attention_order: tuple[str, str] = ("spatial", "path")
    mlp_ratio: int = field(default=4, metadata=at_least(1))
    rope_base: float = field(default=10000.0, metadata=above(1))
    pooling: Literal[POOLING_KINDS] = "avg"
    grid_g: float = field(default=DEFAULT_GRID_G, metadata=above(0))
    grid_R: int = field(default=DEFAULT_GRID_R, metadata=at_least(1))

    def __post_init__(self):
        check_fields(self)
        if not self.stages:
            raise ConfigError("stages: at least one stage required")
        if sorted(self.attention_order) != sorted(ATTENTION_KINDS):
            raise ConfigError(f"attention_order: must permute {ATTENTION_KINDS}, got {self.attention_order!r}")

    @property
    def n_blocks(self) -> int:
        return sum(s.blocks for s in self.stages)

    @property
    def out_channels(self) -> int:
        return self.stages[-1].channels


def desk_config(**overrides) -> ModelConfig:
    """Small config sized for tests and laptop runs: 2 stages, 1 block each."""
    kw = dict(
        stages=(StageSpec(1, 48, 4), StageSpec(1, 96, 4)),
        patch_size=8,
        curve="hilbert",
    )
    kw.update(overrides)
    return ModelConfig(**kw)


# Full-size variants. All share channels [96, 192, 384, 768, 1536], heads
# [4, 4, 8, 8, 8], MLP ratio 4, and patch size 1024; only block depth differs.
FULL_VARIANTS = {
    "T": (2, 2, 2, 2, 2),
    "S": (4, 4, 4, 4, 4),
    "M": (4, 4, 4, 8, 4),
    "L": (4, 4, 4, 12, 4),
}

_FULL_CHANNELS = (96, 192, 384, 768, 1536)
_FULL_HEADS = (4, 4, 8, 8, 8)


def full_config(variant: str = "L", **overrides) -> ModelConfig:
    """Full-size variant configs; useful for shape checks only at desk scale."""
    if variant not in FULL_VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, pick from {sorted(FULL_VARIANTS)}")
    blocks = FULL_VARIANTS[variant]
    kw = dict(
        stages=tuple(
            StageSpec(b, c, h) for b, c, h in zip(blocks, _FULL_CHANNELS, _FULL_HEADS)
        ),
        patch_size=1024,
        curve="random",
    )
    kw.update(overrides)
    return ModelConfig(**kw)
