"""Canonical scene/association serialization and the weights container."""

from __future__ import annotations

import gc
import hashlib
import io as pyio
import json
import sys

import numpy as np
import pytest

from mapassoc.assocmatrix import AssocMatrix
from mapassoc.baselines import distance_assoc_matrix, knn_associate
from mapassoc.errors import ConfigError, IntegrityError, InvalidGeometryError, TopologyError, ValidationError
from mapassoc.geometry import Point2
from mapassoc.io import (
    ASSOC_VERSION,
    SCENE_VERSION,
    WEIGHTS_MAGIC,
    AssocRecord,
    assoc_from_doc,
    assoc_to_doc,
    dumps_scene,
    load_weights,
    loads_scene,
    read_assocs,
    read_scene,
    read_scenes,
    save_weights,
    scene_from_doc,
    scene_to_doc,
    write_assocs,
    write_scene,
    write_scenes,
)
from mapassoc.mat.config import desk_config
from mapassoc.mat.weights import init_weights, validate_weights
from mapassoc.scenegen import GenConfig, generate_scene

GOLDEN_BYTES = 6406
GOLDEN_SHA256 = "71446c7473c87500e8b7ce725c4cfbc8633323e0a1c918dee2a412a760c3ac03"


# ---------------------------------------------------------------------------
# scenes


def test_scene_roundtrip_is_structurally_identical(tiny, grid42, tmp_path):
    for i, scene in enumerate((tiny, grid42)):
        path = str(tmp_path / f"s{i}.json")
        write_scene(scene, path)
        assert read_scene(path) == scene


def test_scene_serialization_is_canonical(tiny):
    text = dumps_scene(tiny)
    assert text.endswith("\n")
    assert dumps_scene(tiny) == text
    # re-reading and re-writing changes nothing
    assert dumps_scene(scene_from_doc(json.loads(text))) == text
    # canonical form has no whitespace and sorted keys
    body = text.rstrip("\n")
    assert ": " not in body and ", " not in body
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_scene_doc_key_order_does_not_matter(tiny):
    doc = json.loads(dumps_scene(tiny))
    shuffled = dict(reversed(list(doc.items())))
    assert scene_from_doc(shuffled) == tiny


def test_scene_doc_version_and_field_errors(tiny):
    doc = scene_to_doc(tiny)
    bad = dict(doc, version="99")
    with pytest.raises(ValidationError, match="version"):
        scene_from_doc(bad)
    missing = {k: v for k, v in doc.items() if k != "sd"}
    with pytest.raises(ValidationError, match="sd"):
        scene_from_doc(missing)


def test_scene_doc_bad_edge_names_the_id(tiny):
    doc = json.loads(dumps_scene(tiny))
    doc["sd"]["edges"] = [[999, 1000]]
    with pytest.raises(TopologyError, match="references missing id 999"):
        scene_from_doc(doc)


def test_scene_doc_bad_point_is_reported(tiny):
    doc = json.loads(dumps_scene(tiny))
    doc["sd"]["roads"][0]["points"][0] = [1.0]
    with pytest.raises(ValidationError):
        scene_from_doc(doc)


@pytest.mark.parametrize("graph,key,label", [("sd", "roads", "road"), ("hd", "boundaries", "boundary")])
@pytest.mark.parametrize("bad", [[1.0], [True, 0.0], [0.0, None], "xy", [np.float32(1.0), 0.0]])
def test_scene_doc_bad_polyline_point_message(grid42, graph, key, label, bad):
    doc = json.loads(dumps_scene(grid42))
    owner = doc[graph][key][1]
    owner["points"][1] = bad
    with pytest.raises(ValidationError) as info:
        scene_from_doc(doc, "line 7")
    assert str(info.value) == f"line 7.{graph}: {label} {owner['id']} point 1: expected [x, y], got {bad!r}"


@pytest.mark.parametrize("graph,key", [("sd", "roads"), ("hd", "boundaries")])
def test_scene_doc_accepts_tuple_and_numpy_float_points(grid42, graph, key):
    doc = json.loads(dumps_scene(grid42))
    points = doc[graph][key][0]["points"]
    points[0] = tuple(points[0])
    points[1] = [np.float64(points[1][0]), int(points[1][1]) if points[1][1].is_integer() else points[1][1]]
    assert scene_from_doc(doc) == grid42


def test_scene_doc_centerline_vectors(grid42):
    doc = json.loads(dumps_scene(grid42))
    c = doc["hd"]["centerlines"][1]
    c["p1"], c["p2"] = tuple(c["p1"]), [np.float64(v) for v in c["p2"]]
    scene = scene_from_doc(doc)
    assert scene == grid42
    assert all(type(v.vector.p1) is Point2 and type(v.vector.p2) is Point2 for v in scene.hd.centerlines)
    c["p2"] = list(c["p1"])
    with pytest.raises(InvalidGeometryError) as info:
        scene_from_doc(doc)
    assert str(info.value) == f"scene.hd: centerline {c['id']}: degenerate vector at {Point2(*map(float, c['p1']))}"


def test_scene_doc_gt_must_reference_centerlines(tiny):
    doc = json.loads(dumps_scene(tiny))
    doc["gt"]["777"] = 0
    with pytest.raises(ValidationError, match="777"):
        scene_from_doc(doc)


def test_golden_scene_bytes_are_pinned():
    text = dumps_scene(generate_scene(GenConfig(seed=42)))
    raw = text.encode("utf-8")
    assert len(raw) == GOLDEN_BYTES
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256


def test_golden_scene_structure_counts(grid42):
    assert len(grid42.sd.roads) == 12
    assert len(grid42.sd.edges) == 16
    assert len(grid42.hd.centerlines) == 64
    assert len(grid42.hd.edges) == 63
    assert len(grid42.hd.boundaries) == 16
    assert len(grid42.gt.labels) == 64


def test_scenes_ndjson_roundtrip(tmp_path):
    scenes = [generate_scene(GenConfig(seed=s)) for s in range(3)]
    path = str(tmp_path / "scenes.ndjson")
    write_scenes(scenes, path)
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 3
    assert read_scenes(path) == scenes


def test_scenes_ndjson_reports_bad_line_number(tmp_path):
    path = str(tmp_path / "scenes.ndjson")
    good = dumps_scene(generate_scene(GenConfig(seed=0))).rstrip("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good + "\n{broken\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_scenes(path)


def test_scene_read_runs_no_collection_and_keeps_the_collector_setting(grid42):
    line = dumps_scene(grid42)
    inside = []  # the generation of each collection that starts inside loads_scene

    def record(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is loads_scene.__code__:
                inside.append(info["generation"])
            frame = frame.f_back

    gc.callbacks.append(record)
    try:
        assert gc.isenabled()
        assert loads_scene(line) == grid42
        with pytest.raises(ValidationError):
            loads_scene(line.replace('"points"', '"pts"', 1))
        assert gc.isenabled() and inside == []
        gc.disable()
        try:
            assert loads_scene(line) == grid42
            assert not gc.isenabled()
        finally:
            gc.enable()
    finally:
        gc.callbacks.remove(record)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_readers_reject_non_finite_constants(tmp_path, grid42, constant):
    # json.loads accepts these literals; canonical JSON cannot write them back
    line = dumps_scene(grid42).rstrip("\n")
    x = json.dumps(scene_to_doc(grid42)["hd"]["boundaries"][0]["points"][0][0])
    bad_scene = line.replace(f"[{x},", f"[{constant},", 1)
    assert bad_scene != line
    path = tmp_path / "scenes.ndjson"
    path.write_text(line + "\n" + bad_scene + "\n")
    with pytest.raises(ValidationError, match=f"line 2: non-finite number {constant}"):
        read_scenes(str(path))
    rec = AssocRecord(method="knn", scene_ref="s", assoc=knn_associate(grid42))
    doc = assoc_to_doc(rec)
    doc["decode_meta"] = {"score": 0.5}
    bad_assoc = json.dumps(doc).replace("0.5", constant)
    with pytest.raises(ValidationError, match="non-finite number"):
        read_assocs(pyio.StringIO(bad_assoc + "\n"))


def test_weights_manifest_rejects_non_finite_constant():
    buf = pyio.BytesIO()
    save_weights({"a": np.ones(2, dtype=np.float32)}, buf)
    data = buf.getvalue()
    assert b'"total_bytes":8' in data
    with pytest.raises(ValidationError, match="manifest: non-finite number NaN"):
        load_weights(pyio.BytesIO(data.replace(b'"total_bytes":8', b'"total_bytes":NaN')))


@pytest.mark.parametrize(
    "manifest, message",
    [(b'{"tensors":[],"total_bytes":NaN}', "manifest: non-finite number NaN"),
     (b"[" * 100_000, "manifest: maximum recursion depth exceeded")],
    ids=["non-finite", "nested past the recursion limit"],
)
def test_weights_manifest_faults_are_integrity_errors(manifest, message):
    with pytest.raises(IntegrityError, match=message):
        load_weights(pyio.BytesIO(WEIGHTS_MAGIC + manifest + b"\n"))


def test_meta_number_overflowing_to_infinity_is_rejected(tmp_path, tiny):
    # 1e999 is a valid JSON number that parses to inf; canonical JSON cannot
    # write it back, so the reader refuses it instead of write_scenes crashing
    doc = scene_to_doc(tiny)
    doc["meta"]["note"] = "@@"
    path = tmp_path / "scenes.ndjson"
    path.write_text(dumps_scene(tiny) + json.dumps(doc).replace('"@@"', "1e999") + "\n")
    with pytest.raises(ValidationError, match="line 2: meta cannot be written as canonical JSON"):
        read_scenes(str(path))
    with pytest.raises(ValidationError, match="meta"):
        scene_from_doc(json.loads(json.dumps(doc).replace('"@@"', "1e999")))


@pytest.mark.parametrize("reader", [read_scenes, read_scene, read_assocs])
def test_readers_reject_non_utf8_bytes_naming_the_file(tmp_path, tiny, reader):
    path = tmp_path / "bad.ndjson"
    path.write_bytes(b"\xff\xfe" + dumps_scene(tiny).encode("utf-8"))
    with pytest.raises(ValidationError, match=f"{path}: not UTF-8 text"):
        reader(str(path))
    with pytest.raises(ValidationError, match="<stream>: not UTF-8 text"):
        reader(pyio.BytesIO(path.read_bytes()))


def test_weights_manifest_rejects_non_utf8_bytes():
    buf = pyio.BytesIO()
    save_weights({"a": np.ones(2, dtype=np.float32)}, buf)
    data = buf.getvalue().replace(b'"tensors"', b'"\xff\xfensors"')
    with pytest.raises(IntegrityError, match="manifest: not UTF-8 text"):
        load_weights(pyio.BytesIO(data))


def test_scene_file_like_roundtrip(tiny):
    buf = pyio.BytesIO()
    write_scene(tiny, buf)
    buf.seek(0)
    assert read_scene(buf) == tiny


# ---------------------------------------------------------------------------
# association records


def test_assoc_record_roundtrip(tmp_path, grid42):
    amat = distance_assoc_matrix(grid42)
    records = [
        AssocRecord(method="knn", scene_ref="s0", assoc=knn_associate(grid42)),
        AssocRecord(method="hmm+beam", scene_ref="s1", assoc=grid42.gt, probs=amat),
    ]
    path = str(tmp_path / "assoc.ndjson")
    write_assocs(records, path)
    back = read_assocs(path)
    assert back[0] == records[0]
    assert back[1].method == "hmm+beam"
    assert back[1].assoc == grid42.gt
    assert back[1].probs.centerline_ids == amat.centerline_ids
    assert back[1].probs.road_ids == amat.road_ids
    np.testing.assert_array_equal(back[1].probs.probs, amat.probs)  # bitwise


def test_assoc_doc_version_guard(grid42):
    doc = assoc_to_doc(AssocRecord(method="knn", scene_ref="x", assoc=knn_associate(grid42)))
    assert doc["version"] == ASSOC_VERSION
    with pytest.raises(ValidationError, match="version"):
        assoc_from_doc(dict(doc, version="0"))


def test_assoc_doc_rejects_malformed_labels(grid42):
    doc = assoc_to_doc(AssocRecord(method="knn", scene_ref="x", assoc=knn_associate(grid42)))
    doc["labels"] = {"ten": 0}
    with pytest.raises(ValidationError):
        assoc_from_doc(doc)



@pytest.mark.parametrize(
    "labels, message",
    [({"ten": 0}, "non-integer centerline key 'ten'"), ({"0": True}, "centerline 0: road id must be an integer")],
)
def test_gt_and_assoc_labels_report_the_same_faults(tmp_path, tiny, labels, message):
    scene_doc = dict(scene_to_doc(tiny), gt=labels)
    assoc_doc = dict(assoc_to_doc(AssocRecord(method="knn", scene_ref="x", assoc=knn_associate(tiny))), labels=labels)
    for doc, reader, field in ((scene_doc, read_scenes, "gt"), (assoc_doc, read_assocs, "labels")):
        path = tmp_path / f"{field}.ndjson"
        path.write_text("\n" + json.dumps(doc) + "\n", encoding="utf-8")  # the blank line 1 is skipped
        with pytest.raises(ValidationError) as exc:
            reader(str(path))
        assert str(exc.value) == f"line 2.{field}: {message}"


# ---------------------------------------------------------------------------
# weights container


def test_weights_roundtrip_bitwise(tmp_path):
    cfg = desk_config()
    w = init_weights(cfg, seed=7)
    path = str(tmp_path / "w.mapw")
    save_weights(w, path)
    back = load_weights(path, cfg)
    assert set(back) == set(w)
    for name in w:
        np.testing.assert_array_equal(back[name], w[name])
        assert back[name].dtype == np.float32
    with open(path, "rb") as fh:
        assert fh.read(len(WEIGHTS_MAGIC)) == WEIGHTS_MAGIC


def test_weights_load_without_config_skips_model_check(tmp_path):
    w = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
    path = str(tmp_path / "w.mapw")
    save_weights(w, path)
    back = load_weights(path)
    np.testing.assert_array_equal(back["a"], w["a"])


def test_weights_reject_non_float32():
    with pytest.raises(ConfigError):
        save_weights({"a": np.zeros(3, dtype=np.float64)}, pyio.BytesIO())


def test_weights_truncated_blob_fails_integrity(tmp_path):
    path = str(tmp_path / "w.mapw")
    save_weights({"a": np.ones(8, dtype=np.float32)}, path)
    with open(path, "rb") as fh:
        data = fh.read()
    with pytest.raises(IntegrityError):
        load_weights(pyio.BytesIO(data[:-4]))


def test_weights_bad_magic(tmp_path):
    with pytest.raises(IntegrityError, match="magic"):
        load_weights(pyio.BytesIO(b"NOPE1\n" + b"\x00" * 32))


def test_weights_shape_tamper_reports_config_mismatch(tmp_path):
    cfg = desk_config()
    w = init_weights(cfg, seed=0)
    path = str(tmp_path / "w.mapw")
    save_weights(w, path)
    with open(path, "rb") as fh:
        data = fh.read()
    head_end = data.index(b"\n", len(WEIGHTS_MAGIC)) + 1
    manifest = json.loads(data[len(WEIGHTS_MAGIC):head_end])
    # grow one declared dimension so the manifest disagrees with the config
    target = next(t for t in manifest["tensors"] if t["name"] == "embed.fc2.weight")
    target["shape"] = [target["shape"][0] + 1, target["shape"][1]]
    tampered = (
        WEIGHTS_MAGIC
        + json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        + data[head_end:]
    )
    with pytest.raises(ConfigError, match="embed.fc2.weight"):
        load_weights(pyio.BytesIO(tampered), cfg)
    # without the config the mismatch surfaces as a broken tiling instead
    with pytest.raises(IntegrityError):
        load_weights(pyio.BytesIO(tampered))


@pytest.mark.parametrize(
    "fault, line",
    [
        ("missing", "missing tensor stage1.block0.pa.q.bias (96,)"),
        ("extra", "unexpected tensor stage9.extra.weight"),
        ("wrong shape", "embed.fc2.weight: shape (49, 48), expected (48, 48)"),
    ],
)
def test_weights_problems_read_the_same_loaded_or_in_memory(fault, line):
    cfg = desk_config()
    w = init_weights(cfg, seed=0)
    if fault == "missing":
        del w["stage1.block0.pa.q.bias"]
    elif fault == "extra":
        w["stage9.extra.weight"] = np.zeros((2, 2), dtype=np.float32)
    else:
        w["embed.fc2.weight"] = np.zeros((49, 48), dtype=np.float32)
    with pytest.raises(ConfigError) as direct:
        validate_weights(w, cfg)
    buf = pyio.BytesIO()
    save_weights(w, buf)
    buf.seek(0)
    with pytest.raises(ConfigError) as loaded:
        load_weights(buf, cfg)
    assert str(loaded.value) == str(direct.value)
    assert str(direct.value).splitlines() == ["weights do not match the model config:", f"  {line}"]


@pytest.mark.parametrize("with_config", [False, True])
def test_weights_non_list_shape_is_an_integrity_error(with_config):
    cfg = desk_config()
    buf = pyio.BytesIO()
    save_weights(init_weights(cfg, seed=0), buf)
    data = buf.getvalue()
    head_end = data.index(b"\n", len(WEIGHTS_MAGIC)) + 1
    manifest = json.loads(data[len(WEIGHTS_MAGIC):head_end])
    manifest["tensors"][0]["shape"] = 5
    tampered = WEIGHTS_MAGIC + json.dumps(manifest).encode() + b"\n" + data[head_end:]
    with pytest.raises(IntegrityError, match="tensor entry 0: missing name or shape"):
        load_weights(pyio.BytesIO(tampered), cfg if with_config else None)


def test_weights_file_like_roundtrip():
    w = {"x.weight": np.float32(np.random.default_rng(0).standard_normal((4, 4)))}
    buf = pyio.BytesIO()
    save_weights(w, buf)
    buf.seek(0)
    back = load_weights(buf)
    np.testing.assert_array_equal(back["x.weight"], w["x.weight"])
