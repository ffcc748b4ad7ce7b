"""Pinned bytes of the transformer's association output.

The digests were recorded from the implementation that validated and cast the
weights in every scene, serialized the tokens once per block at order 16, and
rebuilt the RoPE angles on every rotation. Any later speedup must reproduce
them bit for bit, for one worker and for forked workers.
"""

from __future__ import annotations

import hashlib

import pytest

from mapassoc.cli import main

PINNED = {
    ("mat",): "0f9f2527e5a50d180c0f5f1af8d29dba7cc76bd1840287db38ed565b0796d694",
    ("mat", "--post"): "e2bc308061d9ab680dcd7bf92d0ebf85f648053b17ae341296ac47de10df10aa",
    ("mat", "--store-probs"): "d62d1df1185a364c3391797199bfbb8feb43383db47ee367555ccfef47ec3f27",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags", sorted(PINNED))
def test_mat_association_bytes_are_pinned(pin_scenes, tmp_path, monkeypatch, flags, threads):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    out = tmp_path / "pred.ndjson"
    method, *extra = flags
    assert main(["associate", "--method", method, *extra, "--scenes", pin_scenes, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[flags]
