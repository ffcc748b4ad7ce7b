"""Shared fixtures: hand-built scenes, the pinned-bytes scene file, attention weight helpers, and a guard against leftover child processes."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from mapassoc.cli import main
from mapassoc.geometry import (
    Association,
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    validate_scene,
)
from mapassoc.mat.attention import AttnWeights
from mapassoc.scenegen import GenConfig, generate_scene


def make_centerline(cid: int, p1, p2) -> Centerline:
    return Centerline(id=cid, vector=DirVec.from_points(Point2(*p1), Point2(*p2)))


def tiny_scene() -> Scene:
    """Two parallel roads, one three-centerline lane chain on each.

    Road 0 runs along y=0, road 1 along y=6; road 0 feeds road 1 through a
    connector edge. Centerlines 0-2 sit 0.5 m above road 0, centerlines 3-5
    sit 0.5 m below road 1, so nearest-road recovery is unambiguous.
    """
    sd = SdGraph(
        roads=(
            Road(id=0, points=(Point2(0.0, 0.0), Point2(9.0, 0.0))),
            Road(id=1, points=(Point2(0.0, 6.0), Point2(9.0, 6.0))),
        ),
        edges=((0, 1),),
    )
    hd = HdGraph(
        centerlines=(
            make_centerline(0, (0.0, 0.5), (3.0, 0.5)),
            make_centerline(1, (3.0, 0.5), (6.0, 0.5)),
            make_centerline(2, (6.0, 0.5), (9.0, 0.5)),
            make_centerline(3, (0.0, 5.5), (3.0, 5.5)),
            make_centerline(4, (3.0, 5.5), (6.0, 5.5)),
            make_centerline(5, (6.0, 5.5), (9.0, 5.5)),
        ),
        edges=((0, 1), (1, 2), (3, 4), (4, 5)),
    )
    gt = Association(labels={0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
    return validate_scene(Scene(sd=sd, hd=hd, gt=gt, meta={"scene_id": "tiny"}))


@pytest.fixture
def tiny():
    return tiny_scene()


@pytest.fixture(scope="session")
def grid42() -> Scene:
    """The seed-42 golden scene used by the IO fixtures."""
    return generate_scene(GenConfig(seed=42))


# `gen --count 4 --seed 9` with the default config, then one 4x4 grid whose
# HD crop covers nearly the whole SD extent
FULL_CROP_4X4 = {"gen": {"layout": "grid", "grid_rows": 4, "grid_cols": 4, "hd_extent": [75.0, 75.0]}}


@pytest.fixture(scope="session")
def pin_scenes(tmp_path_factory) -> str:
    """The scene file whose association bytes the pin tests record."""
    tmp = tmp_path_factory.mktemp("pins")
    default, grid = tmp / "default.ndjson", tmp / "grid.ndjson"
    cfg = tmp / "grid.json"
    cfg.write_text(json.dumps(FULL_CROP_4X4))
    assert main(["gen", "--count", "4", "--seed", "9", "--out", str(default)]) == 0
    assert main(["gen", "--config", str(cfg), "--count", "1", "--seed", "0", "--out", str(grid)]) == 0
    both = tmp / "scenes.ndjson"
    both.write_bytes(default.read_bytes() + grid.read_bytes())
    return str(both)


def rand_attn(channels: int, heads: int, rng: np.random.Generator) -> AttnWeights:
    return AttnWeights(
        q_w=rng.standard_normal((channels, channels)),
        q_b=rng.standard_normal(channels),
        k_w=rng.standard_normal((channels, channels)),
        k_b=rng.standard_normal(channels),
        v_w=rng.standard_normal((channels, channels)),
        v_b=rng.standard_normal(channels),
        out_w=rng.standard_normal((channels, channels)),
        out_b=rng.standard_normal(channels),
        heads=heads,
    )


def passthrough_attn(channels: int, heads: int = 1) -> AttnWeights:
    """Identity value/output projections, zero biases; q=k=identity too."""
    eye = np.eye(channels)
    zero = np.zeros(channels)
    return AttnWeights(
        q_w=eye.copy(), q_b=zero.copy(),
        k_w=eye.copy(), k_b=zero.copy(),
        v_w=eye.copy(), v_b=zero.copy(),
        out_w=eye.copy(), out_b=zero.copy(),
        heads=heads,
    )


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, finished or not."""
    yield
    if not hasattr(os, "waitpid"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind{f' (pid {pid}, reaped now)' if pid else ''}")
