"""Named weight tensors for the transformer.

Weights travel as a flat {name: float32 ndarray} mapping. Linear layers use
the row-vector convention y = x @ W + b, so W has shape (fan_in, fan_out).

Naming scheme (fixed, also the manifest order on disk):

    embed.fc1.{weight,bias}               5 -> C0 -> C0 two-layer MLP
    embed.fc2.{weight,bias}
    stage{s}.block{b}.sa.norm.{weight,bias}   spatial attention
    stage{s}.block{b}.sa.{q,k,v,out}.{weight,bias}
    stage{s}.block{b}.pa.norm.{weight,bias}   path attention
    stage{s}.block{b}.pa.{q,k,v,out}.{weight,bias}
    stage{s}.block{b}.ffn.norm.{weight,bias}
    stage{s}.block{b}.ffn.{fc1,fc2}.{weight,bias}
    stage{s}.proj.{weight,bias}               channel bridge into stage s >= 1

The forward pass reads `PreparedWeights`: the tensors checked against one
`ModelConfig` by `prepare_weights` and cast to read-only float64 once, so a
run over many scenes neither checks nor casts them again per scene; each
block's `AttnWeights` bundle is still assembled and shape-checked per
forward pass. This is the one place weights become float64: the ops cast no
weight, and a float32 tensor a library caller hands them is cast exactly by
numpy's mixed-dtype arithmetic, so it gives the bits of its prepared copy.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import ConfigError
from .config import ModelConfig

__all__ = [
    "EMBED_IN",
    "weight_spec",
    "init_weights",
    "spec_problems",
    "raise_problems",
    "validate_weights",
    "PreparedWeights",
    "prepare_weights",
]

# input feature width: [p1x, p1y, p2x, p2y, theta]
EMBED_IN = 5


def weight_spec(cfg: ModelConfig) -> list:
    """Ordered (name, shape) pairs for every tensor the config requires."""
    c0 = cfg.stages[0].channels
    spec = []

    def norm(name, c):
        spec.append((f"{name}.weight", (c,)))
        spec.append((f"{name}.bias", (c,)))

    def linear(name, fi, fo):
        spec.append((f"{name}.weight", (fi, fo)))
        spec.append((f"{name}.bias", (fo,)))

    linear("embed.fc1", EMBED_IN, c0)
    linear("embed.fc2", c0, c0)
    prev = c0
    for s, stage in enumerate(cfg.stages):
        c = stage.channels
        if s > 0:
            linear(f"stage{s}.proj", prev, c)
        for b in range(stage.blocks):
            base = f"stage{s}.block{b}"
            for attn in ("sa", "pa"):
                norm(f"{base}.{attn}.norm", c)
                for proj in ("q", "k", "v", "out"):
                    linear(f"{base}.{attn}.{proj}", c, c)
            norm(f"{base}.ffn.norm", c)
            linear(f"{base}.ffn.fc1", c, cfg.mlp_ratio * c)
            linear(f"{base}.ffn.fc2", cfg.mlp_ratio * c, c)
        prev = c
    return spec


def init_weights(cfg: ModelConfig, seed: int = 0) -> dict:
    """Seeded random weights: N(0, 1/fan_in) matrices, identity norms, zero biases.

    Tensors are drawn in weight_spec order from one generator, so a given
    (config, seed) pair always produces the same mapping.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in weight_spec(cfg):
        if name.endswith(".bias"):
            out[name] = np.zeros(shape, dtype=np.float32)
        elif len(shape) == 1:
            # norm scale
            out[name] = np.ones(shape, dtype=np.float32)
        else:
            fan_in = shape[0]
            w = rng.standard_normal(shape) / np.sqrt(fan_in)
            out[name] = w.astype(np.float32)
    return out


def spec_problems(shapes: dict, cfg: ModelConfig) -> list:
    """Name and shape problems of a {name: shape tuple} map against weight_spec(cfg).

    One line per missing tensor or wrong shape, in spec order, then one per
    unexpected name, sorted.
    """
    spec = weight_spec(cfg)
    expected = dict(spec)
    problems = []
    for name, shape in spec:
        if name not in shapes:
            problems.append(f"missing tensor {name} {shape}")
        elif shapes[name] != shape:
            problems.append(f"{name}: shape {shapes[name]}, expected {shape}")
    problems += [f"unexpected tensor {name}" for name in sorted(shapes) if name not in expected]
    return problems


def raise_problems(problems: list) -> None:
    """Raise one ConfigError listing every problem, when there is any."""
    if problems:
        raise ConfigError("weights do not match the model config:\n  " + "\n  ".join(problems))


def validate_weights(weights: dict, cfg: ModelConfig) -> dict:
    """Check names, shapes, dtypes, and finiteness; report every discrepancy.

    Returns the mapping unchanged on success; raises one ConfigError listing
    all problems otherwise, so a bad checkpoint surfaces in a single pass.
    """
    problems = spec_problems({name: np.shape(t) for name, t in weights.items()}, cfg)
    for name, _ in weight_spec(cfg):
        if name not in weights:
            continue
        t = np.asarray(weights[name])
        if t.dtype != np.float32:
            problems.append(f"{name}: dtype {t.dtype}, expected float32")
        elif not np.isfinite(t).all():
            problems.append(f"{name}: non-finite values")
    raise_problems(problems)
    return weights


class PreparedWeights(Mapping):
    """Read-only float64 copies of checked weights, and the config they fit.

    Build them with `prepare_weights`. The constructor itself checks nothing:
    it trusts that `weights` passed `validate_weights(weights, cfg)`, as
    `io.load_weights(source, cfg)` output has.
    """

    def __init__(self, weights: Mapping, cfg: ModelConfig):
        tensors = {}
        for name, _ in weight_spec(cfg):
            t = np.array(weights[name], dtype=np.float64)
            t.flags.writeable = False
            tensors[name] = t
        self._tensors = tensors
        self.cfg = cfg

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)


def prepare_weights(weights: Mapping, cfg: ModelConfig) -> PreparedWeights:
    """Check weights against cfg once and cast them to read-only float64.

    Plain weights go through `validate_weights`. Weights prepared for `cfg`
    come back as they are; weights prepared for another config are checked
    again, by name and shape, and relabelled when they fit.
    """
    if isinstance(weights, PreparedWeights):
        if weights.cfg == cfg:
            return weights
        raise_problems(spec_problems({name: t.shape for name, t in weights.items()}, cfg))
        return PreparedWeights(weights, cfg)
    return PreparedWeights(validate_weights(weights, cfg), cfg)
