"""Pinned bytes of the transformer's association output.

The digests were recorded from the implementation that validated and cast the
weights in every scene, serialized the tokens once per block at order 16, and
rebuilt the RoPE angles on every rotation. Any later speedup must reproduce
them bit for bit, for one worker and for forked workers.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from mapassoc.cli import main

# `gen --count 4 --seed 9` with the default config, then one 4x4 grid whose
# HD crop covers nearly the whole SD extent
FULL_CROP_4X4 = {"gen": {"layout": "grid", "grid_rows": 4, "grid_cols": 4, "hd_extent": [75.0, 75.0]}}

PINNED = {
    ("mat",): "0f9f2527e5a50d180c0f5f1af8d29dba7cc76bd1840287db38ed565b0796d694",
    ("mat", "--post"): "e2bc308061d9ab680dcd7bf92d0ebf85f648053b17ae341296ac47de10df10aa",
    ("mat", "--store-probs"): "d62d1df1185a364c3391797199bfbb8feb43383db47ee367555ccfef47ec3f27",
}


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pins")
    default, grid = tmp / "default.ndjson", tmp / "grid.ndjson"
    cfg = tmp / "grid.json"
    cfg.write_text(json.dumps(FULL_CROP_4X4))
    assert main(["gen", "--count", "4", "--seed", "9", "--out", str(default)]) == 0
    assert main(["gen", "--config", str(cfg), "--count", "1", "--seed", "0", "--out", str(grid)]) == 0
    both = tmp / "scenes.ndjson"
    both.write_bytes(default.read_bytes() + grid.read_bytes())
    return str(both)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags", sorted(PINNED))
def test_mat_association_bytes_are_pinned(scenes, tmp_path, monkeypatch, flags, threads):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    out = tmp_path / "pred.ndjson"
    method, *extra = flags
    assert main(["associate", "--method", method, *extra, "--scenes", scenes, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[flags]
