"""Pinned bytes of the association and reachability reports `eval` writes.

The digests were recorded from the implementation that kept a boolean
verdict per threshold for every ground-truth path, added it into the counts
path by path, and ran the greedy endpoint matching on the scene's own graph.
Any later speedup of the metric walk must reproduce them bit for bit, for
one worker and for forked workers.
"""

from __future__ import annotations

import hashlib

import pytest

from mapassoc.cli import main

PINNED = {
    (("hmm",), "association"): "f82b0f5a6dc9e78af087eb40889629dc7996678988ad269934786c18cd2a7b2a",
    (("hmm",), "reachability"): "c08a39b12e4f0242a7ffd677e540075e71c3ffc17cb7e347e7e5371eb48b7cf0",
    (("knn",), "association"): "05fcc3aa279ab69a5c191c90b8f33f6ed26fd5063bfc982992a70fcd3c8321a7",
    (("knn",), "reachability"): "31018beebaac47d63d1f746de94b17c5ba4a2d4e1ed123d11892f9f0cb87051f",
    (("mat", "--post"), "association"): "beb6dd79002133f01deefa12e35e674398a4d364f23db17027aefc24daff8c06",
    (("mat", "--post"), "reachability"): "99aa39c4ac8e9a85ce5282e03b8b2222dd422dcf0d5a00204d8752c724c01980",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags", sorted({flags for flags, _ in PINNED}))
def test_metric_report_bytes_are_pinned(pin_scenes, tmp_path, monkeypatch, flags, threads):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    pred = tmp_path / "pred.ndjson"
    method, *extra = flags
    assert main(["associate", "--method", method, *extra, "--scenes", pin_scenes, "--out", str(pred)]) == 0
    for metric in ("association", "reachability"):
        report = tmp_path / f"{metric}.json"
        assert main(["eval", "--metric", metric, "--pred", str(pred), "--scenes", pin_scenes, "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED[flags, metric]
