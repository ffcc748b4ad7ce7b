"""Spans around mapassoc's public functions, recorded from outside the package.

A Tracer replaces a function at the module attribute where its caller looks
it up (for example `mapassoc.mat.forward.path_attention`, not the defining
module) with a wrapper that records a span: name, start, end, parent span and
scene id. Spans stay in memory; the caller writes them out once at the end.
The traced run pins MAPASSOC_THREADS=1, so spans nest on one thread and a
single stack gives every span its parent.

`per_layer` turns one traced pass into the per-layer metrics listed in
PER_LAYER. Times are summed over the pass; counts are per pass unless the
unit says otherwise.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import Counter, defaultdict

# (metric, unit, better) in BENCHMARK.json order.
PER_LAYER = (
    ("io.read_scenes_s", "s", "lower"),
    ("io.write_scenes_s", "s", "lower"),
    ("io.read_assocs_s", "s", "lower"),
    ("io.write_assocs_s", "s", "lower"),
    ("io.scene_bytes", "bytes", "lower"),
    ("io.assoc_bytes", "bytes", "lower"),
    ("scenegen.generate_scene_s", "s", "lower"),
    ("scenegen.perturb_scene_s", "s", "lower"),
    ("scenegen.augment_scene_s", "s", "lower"),
    ("geometry.enumerate_paths_s", "s", "lower"),
    ("geometry.enumerate_paths_calls", "count/scene", "lower"),
    ("geometry.lane_paths", "count", "lower"),
    ("geometry.road_paths", "count", "lower"),
    ("geometry.validate_scene_s", "s", "lower"),
    ("curves.grid_encode_batch_s", "s", "lower"),
    ("curves.sort_tokens_s", "s", "lower"),
    ("mat.mat_associate_s", "s", "lower"),
    ("mat.build_tokens_s", "s", "lower"),
    ("mat.embed_vectors_s", "s", "lower"),
    ("mat.block0.spatial_attention_s", "s", "lower"),
    ("mat.block0.path_attention_s", "s", "lower"),
    ("mat.block1.spatial_attention_s", "s", "lower"),
    ("mat.block1.path_attention_s", "s", "lower"),
    ("mat.rope_rotate_s", "s", "lower"),
    ("mat.rope_rotate_calls", "count", "lower"),
    ("mat.association_probs_s", "s", "lower"),
    ("mat.forward_self_s", "s", "lower"),
    ("mat.tokens", "count", "lower"),
    ("mat.path_copies", "count", "lower"),
    ("mat.copy_factor", "ratio", "lower"),
    ("mat.patches", "count", "lower"),
    ("baselines.knn_associate_s", "s", "lower"),
    ("baselines.hmm_associate_s", "s", "lower"),
    ("baselines.viterbi_calls", "count", "lower"),
    ("baselines.viterbi_s", "s", "lower"),
    ("baselines.hmm_fallback_paths", "count", "lower"),
    ("baselines.distance_assoc_matrix_s", "s", "lower"),
    ("decoder.decode_association_s", "s", "lower"),
    ("decoder.beam_decode_calls", "count", "lower"),
    ("decoder.beam_decode_s", "s", "lower"),
    ("decoder.fallback_paths", "count", "lower"),
    ("decoder.fallback_ratio", "ratio", "lower"),
    ("assocmatrix.rows_for_s", "s", "lower"),
    ("assocmatrix.rows_for_calls", "count", "lower"),
    ("metrics.association_pr_s", "s", "lower"),
    ("metrics.reachability_pr_s", "s", "lower"),
    ("metrics.gt_paths", "count", "lower"),
    ("metrics.pairs_scored", "count", "lower"),
    ("metrics.pairs_per_gt_path", "ratio", "lower"),
    ("metrics.label_sequence_calls", "count", "lower"),
    ("metrics.overlap_ratio_s", "s", "lower"),
    ("metrics.chamfer_distance_s", "s", "lower"),
    ("cli.pool_threads", "count", "higher"),
    ("cli.stage_self_s", "s", "lower"),
    ("trace.setup_overhead_s", "s", "lower"),
    ("trace.associate_knn_overhead_s", "s", "lower"),
    ("trace.associate_hmm_overhead_s", "s", "lower"),
    ("trace.associate_mat_beam_overhead_s", "s", "lower"),
    ("trace.eval_association_overhead_s", "s", "lower"),
    ("trace.eval_reachability_overhead_s", "s", "lower"),
)

# Times derived from several spans; every other per-layer time `<span>_s` is
# the summed duration of one span name.
DERIVED_TIMES = {"mat.forward_self_s", "cli.stage_self_s"}
TIMED_SPANS = tuple(
    m[:-2] for m, unit, _ in PER_LAYER
    if unit == "s" and m not in DERIVED_TIMES and not m.startswith("trace.")
)


def _scene_id(obj):
    """Scene id of a Scene, a list of Scenes, or a generator config."""
    if isinstance(obj, (list, tuple)) and obj:
        obj = obj[0]
    meta = getattr(obj, "meta", None)
    if isinstance(meta, dict):
        return meta.get("scene_id")
    layout, seed = getattr(obj, "layout", None), getattr(obj, "seed", None)
    if layout is not None and seed is not None:
        return f"{layout}-{seed}"
    return None


class Tracer:
    """Records spans around patched functions until `restore` is called."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, scene id]
        self.spans: list = []
        self.counters: Counter = Counter()
        self.mat_rows: list = []
        self._stack: list = []
        self._patched: list = []
        self._blocks: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, scene) -> int:
        parent = self._stack[-1] if self._stack else -1
        if scene is None and parent >= 0:
            scene = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, scene])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself (a stage)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(name, None)

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Span()

    def patch(self, module: str, attr: str, name, *, first_scene=0, before=None, after=None) -> None:
        """Wrap `module.attr` (a dotted path below the module for methods).

        `name` is a span name or a callable giving one per call; `first_scene`
        is the index of the argument that holds the scene (None for none).
        A missing target raises, so a renamed function fails the traced run
        instead of reading zero.
        """
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if not callable(original):
            raise TypeError(f"{module}.{attr} is not callable")
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name() if callable(name) else name
            scene = None
            if first_scene is not None and len(args) > first_scene:
                scene = _scene_id(args[first_scene])
            idx = tracer._open(label, scene)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, leaf, wrapper)
        self._patched.append((owner, leaf, original))

    def restore(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    # -- hooks -------------------------------------------------------------

    def _count(self, key: str, n) -> None:
        self.counters[key] += n

    def _block_name(self, kind: str):
        def name():
            k = self._blocks[kind]
            self._blocks[kind] += 1
            return f"mat.block{k}.{kind}_attention"

        return name

    def install(self) -> None:
        """Patch every traced entry point of the CLI pipeline."""
        cli, fwd, att = "mapassoc.cli", "mapassoc.mat.forward", "mapassoc.mat.attention"
        count = self._count

        def file_bytes(key):
            return lambda result, args, kwargs: count(key, os.path.getsize(args[1]))

        def fallback(key):
            return lambda result, args, kwargs: count(key, len(result.meta.get("fallback_paths", ())))

        def tokens(result, args, kwargs):
            count("mat.tokens", len(result))
            count("mat.path_copies", len(result.pidx.dup_map))

        def keep_rows(result, args, kwargs):
            probs = result[0].probs
            self.mat_rows += [probs[0].copy(), probs[-1].copy()]

        def new_forward(args, kwargs):
            self._blocks.clear()

        def patches(result, args, kwargs):
            count("mat.patches", math.ceil(len(args[0]) / args[3]))

        self.patch(cli, "read_scenes", "io.read_scenes", first_scene=None)
        self.patch(cli, "write_scenes", "io.write_scenes", first_scene=None, after=file_bytes("io.scene_bytes"))
        self.patch(cli, "read_assocs", "io.read_assocs", first_scene=None)
        self.patch(cli, "write_assocs", "io.write_assocs", first_scene=None, after=file_bytes("io.assoc_bytes"))
        self.patch("mapassoc.io", "validate_scene", "geometry.validate_scene")
        self.patch(cli, "generate_scene", "scenegen.generate_scene")
        self.patch(cli, "perturb_scene", "scenegen.perturb_scene")
        self.patch(cli, "augment_scene", "scenegen.augment_scene")
        for module in (fwd, "mapassoc.baselines", "mapassoc.decoder", "mapassoc.metrics"):
            self.patch(module, "enumerate_paths", "geometry.enumerate_paths", first_scene=None)
        self.patch(cli, "knn_associate", "baselines.knn_associate")
        self.patch(cli, "hmm_associate", "baselines.hmm_associate",
                   after=fallback("baselines.hmm_fallback_paths"))
        self.patch(cli, "distance_assoc_matrix", "baselines.distance_assoc_matrix")
        self.patch("mapassoc.baselines", "viterbi", "baselines.viterbi", first_scene=None)
        self.patch(cli, "mat_associate", "mat.mat_associate", after=keep_rows)
        self.patch(fwd, "mat_forward", "mat.mat_forward", before=new_forward)
        self.patch(fwd, "build_tokens", "mat.build_tokens", after=tokens)
        self.patch(fwd, "embed_vectors", "mat.embed_vectors", first_scene=None)
        self.patch(fwd, "grid_encode_batch", "curves.grid_encode_batch", first_scene=None)
        self.patch(fwd, "spatial_attention", self._block_name("spatial"), first_scene=None, after=patches)
        self.patch(fwd, "path_attention", self._block_name("path"), first_scene=None)
        self.patch(att, "sort_tokens", "curves.sort_tokens", first_scene=None)
        self.patch(att, "rope_rotate", "mat.rope_rotate", first_scene=None)
        self.patch(fwd, "association_probs", "mat.association_probs", first_scene=None)
        self.patch(cli, "decode_association", "decoder.decode_association",
                   after=fallback("decoder.fallback_paths"))
        self.patch("mapassoc.decoder", "beam_decode", "decoder.beam_decode", first_scene=None)
        self.patch("mapassoc.assocmatrix", "AssocMatrix.rows_for", "assocmatrix.rows_for", first_scene=None)
        self.patch(cli, "association_pr", "metrics.association_pr", first_scene=1)
        self.patch(cli, "reachability_pr", "metrics.reachability_pr", first_scene=1)
        self.patch("mapassoc.metrics", "label_sequence", "metrics.label_sequence", first_scene=None)
        self.patch("mapassoc.metrics", "overlap_ratio", "metrics.overlap_ratio", first_scene=None)
        self.patch("mapassoc.metrics", "chamfer_distance", "metrics.chamfer_distance", first_scene=None)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> tuple:
        """(total seconds, self seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls


def per_layer(tracer: Tracer, *, scenes: int, lane_paths: int, road_paths: int, threads: int) -> dict:
    """Per-layer metrics of one traced pass, trace overheads excluded."""
    total, own, calls = tracer.totals()
    c = tracer.counters
    out = {f"{span}_s": total[span] for span in TIMED_SPANS}
    out["geometry.enumerate_paths_calls"] = calls["geometry.enumerate_paths"] / scenes
    out["geometry.lane_paths"] = lane_paths
    out["geometry.road_paths"] = road_paths
    out["mat.rope_rotate_calls"] = calls["mat.rope_rotate"]
    out["mat.forward_self_s"] = own["mat.mat_forward"]
    for key in ("mat.tokens", "mat.path_copies", "mat.patches", "io.scene_bytes", "io.assoc_bytes",
                "baselines.hmm_fallback_paths", "decoder.fallback_paths"):
        out[key] = c[key]
    out["mat.copy_factor"] = c["mat.path_copies"] / c["mat.tokens"]
    out["baselines.viterbi_calls"] = calls["baselines.viterbi"]
    out["decoder.beam_decode_calls"] = calls["decoder.beam_decode"]
    out["decoder.fallback_ratio"] = c["decoder.fallback_paths"] / calls["decoder.beam_decode"]
    out["assocmatrix.rows_for_calls"] = calls["assocmatrix.rows_for"]
    out["metrics.gt_paths"] = lane_paths
    out["metrics.pairs_scored"] = calls["metrics.overlap_ratio"]
    out["metrics.pairs_per_gt_path"] = calls["metrics.overlap_ratio"] / lane_paths
    out["metrics.label_sequence_calls"] = calls["metrics.label_sequence"]
    out["cli.pool_threads"] = threads
    out["cli.stage_self_s"] = sum(v for k, v in own.items() if k.startswith("stage."))
    return out
