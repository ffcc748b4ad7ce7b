"""One reader for every JSON document, and one helper that names where a fault is.

`io.parse_object` reads scene and association lines, config and report
files and the weights manifest: malformed text, a value that is not an
object, and text nested past the recursion limit each raise a
ValidationError naming where the text came from. `errors.located` prefixes a
fault with its place: a container line, a record's matrix, or `--pred` for
the association file of `eval`. A property test feeds mutated association
records through `eval --pred` and mutated weights manifests through
`associate --method mat --weights`; neither command generates, so each must
exit 0 or 2, never raise.
"""

from __future__ import annotations

import copy
import io as _io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import tiny_scene
from test_fields import BIG, NEG_BIG, NOT_UTF8, OTHER_TYPES, _mutant, _run

from mapassoc.baselines import distance_assoc_matrix, knn_associate
from mapassoc.cli import main
from mapassoc.errors import ConfigError, IntegrityError, LabelError, ValidationError, located
from mapassoc.io import (
    WEIGHTS_MAGIC,
    AssocRecord,
    assoc_to_doc,
    dumps_scene,
    parse_json,
    parse_object,
    read_assocs,
    save_weights,
)
from mapassoc.mat import desk_config, init_weights

# stands for text nested 100,000 deep, far past the recursion limit
DEEP = "<nested>"
NESTED = b"[" * 100_000


def _line(doc) -> bytes:
    """`doc` as one JSON line, each stand-in replaced by the raw text it stands for."""
    data = json.dumps(doc).encode("utf-8")
    for stand_in, raw in ((BIG, b"1e999"), (NEG_BIG, b"-1e999"), (DEEP, NESTED)):
        data = data.replace(b'"' + stand_in.encode() + b'"', raw)
    return data.replace(NOT_UTF8.encode(), b"\xff") + b"\n"


# built in memory at import, so that hypothesis can draw mutants of the record and of the manifest:
# the tiny scene, and the record `associate --method knn --store-probs` writes for it
_TINY = tiny_scene()
RECORD = assoc_to_doc(AssocRecord("knn", "tiny", knn_associate(_TINY), distance_assoc_matrix(_TINY)))
_weights = _io.BytesIO()
save_weights(init_weights(desk_config(), seed=0), _weights)
MANIFEST_LINE, BLOB = _weights.getvalue()[len(WEIGHTS_MAGIC):].split(b"\n", 1)
MANIFEST = json.loads(MANIFEST_LINE)
SCENE = dumps_scene(_TINY).encode()


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> dict:
    """The paths of a scene container holding the tiny scene twice, and of its knn records.

    Two scenes, so that MAPASSOC_THREADS=2 forks a worker.
    """
    tmp = tmp_path_factory.mktemp("documents")
    (tmp / "scenes.ndjson").write_bytes(SCENE * 2)
    (tmp / "knn.ndjson").write_bytes(_line(RECORD) * 2)
    return {"scenes.ndjson": str(tmp / "scenes.ndjson"), "knn.ndjson": str(tmp / "knn.ndjson")}


# ---------------------------------------------------------------------------
# the reader and the helper


@pytest.mark.parametrize("text, error, message", [
    ("{x", ValidationError, "doc: malformed JSON: Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)"),
    ("[1]", ValidationError, "doc: expected a JSON object, got list"),
    ("7", IntegrityError, "doc: expected a JSON object, got int"),
    ("null", IntegrityError, "doc: expected a JSON object, got NoneType"),
])
def test_parse_object_names_where_for_malformed_text_or_another_value(text, error, message):
    with pytest.raises(error) as exc:
        parse_object(text, "doc", error=error)
    assert type(exc.value) is error and str(exc.value) == message


def test_parse_object_returns_the_object():
    assert parse_object('{"a": [1, 2.5]}', "doc") == {"a": [1, 2.5]}


def test_parse_json_refuses_nesting_past_the_recursion_limit():
    with pytest.raises(ValidationError, match=r"^doc: maximum recursion depth exceeded"):
        parse_json(NESTED.decode(), "doc")


def test_located_prefixes_a_fault_keeping_its_type():
    with pytest.raises(LabelError) as exc, located("line 3"):
        raise LabelError("empty lane path")
    assert type(exc.value) is LabelError and str(exc.value) == "line 3: empty lane path"
    with pytest.raises(KeyError), located("line 3"):  # not a deliberate fault: passes through as it is
        raise KeyError("x")
    with located("line 3"):
        pass


# ---------------------------------------------------------------------------
# text nested past the recursion limit, in every document the CLI reads


def _nested_argv(chain, tmp, kind) -> tuple:
    """The argv that reads a document of `kind` nested 100,000 deep, and the start of its error."""
    bad = str(Path(tmp, "bad"))
    out = str(Path(tmp, "out"))
    scenes = chain["scenes.ndjson"]
    if kind == "scene line":
        Path(bad).write_bytes(SCENE + NESTED + b"\n")
        return ["associate", "--method", "knn", "--scenes", bad, "--out", out], "error: line 2: "
    if kind == "association line":
        Path(bad).write_bytes(_line(RECORD) + NESTED + b"\n")
        argv = ["eval", "--metric", "association", "--pred", bad, "--scenes", scenes, "--report", out]
        return argv, "error: --pred: line 2: "
    if kind == "manifest":
        Path(bad).write_bytes(WEIGHTS_MAGIC + NESTED + b"\n")
        argv = ["associate", "--method", "mat", "--weights", bad, "--scenes", scenes, "--out", out]
        return argv, f"error: weights container {bad}: manifest: "
    Path(bad).write_bytes(NESTED)
    if kind == "gen config":
        return ["gen", "--config", bad, "--out", out], f"error: config {bad}: "
    if kind == "model config":
        argv = ["associate", "--method", "mat", "--model-config", bad, "--scenes", scenes, "--out", out]
        return argv, f"error: model config {bad}: "
    return ["report", "--reports", bad, "--csv", out], f"error: report {bad}: "


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", ["scene line", "association line", "gen config", "model config", "report",
                                  "manifest"])
def test_text_nested_past_the_recursion_limit_exits_2_naming_where(
    chain, tmp_path, capsys, monkeypatch, threads, kind
):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    argv, where = _nested_argv(chain, tmp_path, kind)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(where) and "maximum recursion depth exceeded" in err


# ---------------------------------------------------------------------------
# eval names the association file, and a record's line for a fault in its matrix


def _edit_first_record(tmp_path, edit) -> str:
    doc = copy.deepcopy(RECORD)
    edit(doc)
    path = tmp_path / "edited.ndjson"
    path.write_bytes(_line(doc) + _line(RECORD))
    return str(path)


def _set_first_row_cell(doc):
    doc["probs"]["rows"][0][0] = 5.0


def _reverse_road_ids(doc):
    doc["probs"]["road_ids"].reverse()


@pytest.mark.parametrize("edit, message", [
    (_set_first_row_cell, "probabilities must lie in [0, 1]"),
    (_reverse_road_ids, "road ids must be strictly ascending"),
])
def test_a_fault_in_a_records_matrix_names_its_line(chain, tmp_path, capsys, edit, message):
    pred = _edit_first_record(tmp_path, edit)
    with pytest.raises(ConfigError) as exc:
        read_assocs(pred)
    assert str(exc.value) == f"line 1.probs: {message}"
    rc = main(["eval", "--metric", "association", "--pred", pred, "--scenes", chain["scenes.ndjson"],
               "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --pred: line 1.probs: {message}\n"


@pytest.mark.parametrize("ids", ["centerline_ids", "road_ids"])
def test_an_id_past_the_int_range_in_a_records_matrix_names_its_line(tmp_path, ids):
    pred = _edit_first_record(tmp_path, lambda doc: doc["probs"][ids].__setitem__(0, BIG))
    with pytest.raises(ValidationError, match=r"^line 1\.probs: cannot convert float infinity to integer$"):
        read_assocs(pred)


def test_eval_says_which_file_a_record_fault_is_in(chain, tmp_path, capsys):
    scenes, pred = chain["scenes.ndjson"], chain["knn.ndjson"]
    bad = tmp_path / "bad.ndjson"
    for path in (scenes, pred):
        lines = Path(path).read_text().splitlines(keepends=True)
        bad.write_text(lines[0].replace("{", '{"x":Infinity,', 1) + "".join(lines[1:]))
        argv = ["eval", "--metric", "association", "--report", str(tmp_path / "r.json"),
                "--pred", str(bad) if path == pred else pred, "--scenes", str(bad) if path == scenes else scenes]
        assert main(argv) == 2
        where = "--pred: line 1" if path == pred else "line 1"
        assert capsys.readouterr().err == f"error: {where}: non-finite number Infinity is not allowed\n"


# ---------------------------------------------------------------------------
# mutated association records and weights manifests through the CLI

RECORD_FIELDS = ("version", "method", "scene_ref", "labels", "decode_meta", "probs")
PROBS_FIELDS = ("road_ids", "centerline_ids", "rows")
MANIFEST_FIELDS = ("tensors", "total_bytes")
TENSOR_FIELDS = ("name", "shape", "dtype", "offset")
MEMBERS = (*OTHER_TYPES, BIG, NEG_BIG, NOT_UTF8)


def _member(draw, items) -> None:
    """Replace one member of a list, or one value of an object, in place, by a copy of a shared member."""
    if isinstance(items, list) and items:
        items[draw(st.integers(0, len(items) - 1))] = copy.deepcopy(draw(st.sampled_from(MEMBERS)))
    elif isinstance(items, dict) and items:
        items[draw(st.sampled_from(sorted(items)))] = copy.deepcopy(draw(st.sampled_from(MEMBERS)))


@st.composite
def record_docs(draw, record: dict) -> dict:
    doc = copy.deepcopy(record)
    for _ in range(draw(st.integers(1, 2))):
        probs = doc.get("probs")
        where = draw(st.sampled_from(("record", "probs", "labels", "member")))
        if where == "labels" and isinstance(doc.get("labels"), dict):
            _member(draw, doc["labels"])
        elif where in ("probs", "member") and isinstance(probs, dict):
            if where == "probs":
                _mutant(draw, probs, PROBS_FIELDS)
            else:  # one id, one row, or one cell of a row
                items = probs.get(draw(st.sampled_from(PROBS_FIELDS)))
                if draw(st.booleans()) and isinstance(items, list) and items and isinstance(items[0], list):
                    items = items[0]
                _member(draw, items)
        else:
            _mutant(draw, doc, RECORD_FIELDS)
    return doc


@st.composite
def manifest_docs(draw, manifest: dict) -> dict:
    doc = copy.deepcopy(manifest)
    for _ in range(draw(st.integers(1, 2))):
        tensors = doc.get("tensors")
        where = draw(st.sampled_from(("manifest", "entry", "shape")))
        if where == "manifest" or not isinstance(tensors, list) or not tensors:
            _mutant(draw, doc, MANIFEST_FIELDS)
            continue
        entry = tensors[draw(st.integers(0, len(tensors) - 1))]
        if where == "entry" and isinstance(entry, dict):
            _mutant(draw, entry, TENSOR_FIELDS)
        elif isinstance(entry, dict):
            _member(draw, entry.get("shape"))
    return doc


@pytest.mark.parametrize("threads", ["1", "2"])
@given(doc=record_docs(RECORD))
@example(doc=dict(RECORD, labels=DEEP))
@example(doc=dict(RECORD, probs=dict(RECORD["probs"], centerline_ids=[BIG])))
@settings(max_examples=100, deadline=None)
def test_mutated_assoc_record_exits_0_or_2(chain, threads, doc):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"MAPASSOC_THREADS": threads}):
        pred = Path(tmp, "pred.ndjson")
        pred.write_bytes(_line(doc) + _line(RECORD))
        argv = ["eval", "--metric", "association", "--pred", str(pred), "--scenes", chain["scenes.ndjson"],
                "--report", str(Path(tmp, "r.json"))]
        assert _run(argv) in (0, 2)


@pytest.mark.parametrize("threads", ["1", "2"])
@given(doc=manifest_docs(MANIFEST))
@example(doc=dict(MANIFEST, tensors=DEEP))
@settings(max_examples=50, deadline=None)
def test_mutated_weights_manifest_exits_0_or_2(chain, threads, doc):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"MAPASSOC_THREADS": threads}):
        weights = Path(tmp, "w.mapw")
        weights.write_bytes(WEIGHTS_MAGIC + _line(doc) + BLOB)
        argv = ["associate", "--method", "mat", "--weights", str(weights), "--scenes", chain["scenes.ndjson"],
                "--out", str(Path(tmp, "p.ndjson"))]
        assert _run(argv) in (0, 2)
