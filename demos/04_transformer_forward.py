"""Deterministic transformer forward pass over a tokenized scene.

Every road segment, centerline, and boundary vector becomes one token.
Blocks alternate two attention flavours: spatial attention over patches of
the curve-serialized sequence, and path attention that duplicates shared
centerlines along each root-to-leaf lane path and scatter-means them back.
Everything is plain numpy and bit-deterministic; with random init weights
the output is arbitrary but the machinery is the real thing.

Run from the repository root:

    python3 demos/04_transformer_forward.py
"""

import numpy as np

from mapassoc.mat import ModelConfig, StageSpec, desk_config, init_weights, mat_associate
from mapassoc.mat.forward import build_tokens
from mapassoc.scenegen import GenConfig, generate_scene

scene = generate_scene(GenConfig(lanes_per_road=(1, 2), seed=4))

# Tokenization: one token per directed vector, each tagged with its element
# kind, parent element id, grid cell, and position along its lane path.
tokens = build_tokens(scene)
print(f"scene -> {len(tokens)} tokens "
      f"({int(np.sum(tokens.kind == 0))} road, {int(np.sum(tokens.kind == 1))} centerline, "
      f"{int(np.sum(tokens.kind == 2))} boundary) on {len(tokens.pidx.paths)} lane paths")

# The desk preset keeps the published stage widths but shrinks patches so
# tiny scenes still split into several attention windows.
cfg = desk_config()
print(f"desk config: stages {[(s.blocks, s.channels, s.heads) for s in cfg.stages]}, "
      f"patch_size {cfg.patch_size}, curve {cfg.curve!r}")

weights = init_weights(cfg, seed=0)
amat, res = mat_associate(scene, cfg, weights, curve_seed=0)
print(f"forward: centerline feats {res.centerline_feats.shape}, road feats {res.road_feats.shape}, "
      f"curve per block {res.curve_kinds}")
print(f"association matrix {amat.probs.shape}, rows sum to "
      f"{amat.probs.sum(axis=1).min():.6f}..{amat.probs.sum(axis=1).max():.6f}")

# Bit determinism: same inputs, same bytes, every time.
again, _ = mat_associate(scene, cfg, weights, curve_seed=0)
print(f"second run bit-identical: {np.array_equal(amat.probs, again.probs)}")

# The stack is configurable: a one-stage, 12-channel model with z-order
# serialization runs the same contract at a fraction of the size.
small = ModelConfig(stages=(StageSpec(blocks=1, channels=12, heads=1),), patch_size=4, curve="z")
amat_small, _ = mat_associate(scene, small, init_weights(small, seed=1))
print(f"one-stage variant produces {amat_small.probs.shape} rows as well")
