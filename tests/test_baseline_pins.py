"""Pinned bytes of the nearest-road and HMM baselines' output.

The digests were recorded from the implementation that measured every
centerline midpoint against one road at a time, on (N, M-1, 2) arrays. Any
later speedup of the distance kernel must reproduce them bit for bit, for one
worker and for forked workers. `--store-probs` writes every float of the
distance matrix's soft association, so it pins the kernel end to end.
"""

from __future__ import annotations

import hashlib

import pytest

from mapassoc.cli import main

PINNED = {
    ("knn",): "0faea40a39c469a12ab5864639fef0762e3ed10dc82c7b0c593c2de434a2940b",
    ("knn", "--post"): "f5faa9d799138f7ce8692371f2418104b9e3aa23c7162b65d66e388352e74597",
    ("knn", "--store-probs"): "d90902fc1c77c47ee654b19f2c181ea5193518eebba02f0a3100fd35670c83a0",
    ("hmm",): "43147938c5e588be9c3dd9b413c85f9fdec347685cc4c9333303b614e17b4e59",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags", sorted(PINNED))
def test_baseline_association_bytes_are_pinned(pin_scenes, tmp_path, monkeypatch, flags, threads):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    out = tmp_path / "pred.ndjson"
    method, *extra = flags
    assert main(["associate", "--method", method, *extra, "--scenes", pin_scenes, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[flags]
