"""Scene, association, and weights persistence.

Scenes and association records travel as canonical JSON documents: sorted
keys, compact separators, elements sorted by id, floats written in Python's
shortest round-trip decimal form.  Equal values therefore serialize to
identical bytes, which makes files diff, hash, and cache cleanly.  Multi-
scene containers are newline-delimited, one document per line, so large
benchmark suites stream without being held in memory as a single parse.

Weights use a small self-describing binary container: a magic line, one
canonical JSON manifest line listing every tensor (name, shape, dtype,
byte offset), then a single contiguous float32 little-endian blob.

Readers reject rather than repair: any malformed field raises before a
partially constructed value can escape, and the error names the offending
element or tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .assocmatrix import AssocMatrix
from .errors import ConfigError, IntegrityError, ValidationError
from .geometry import (
    Association,
    Boundary,
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    validate_scene,
)

SCENE_VERSION = "1"
ASSOC_VERSION = "1"
WEIGHTS_MAGIC = b"MAPW1\n"


def _canonical(doc) -> str:
    # allow_nan=False: a non-finite number has no canonical JSON spelling.
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _read_bytes(source: Union[str, IO]) -> bytes:
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    with open(source, "rb") as fh:
        return fh.read()


def _source_name(source: Union[str, IO]) -> str:
    if hasattr(source, "read"):
        return str(getattr(source, "name", "<stream>"))
    return str(source)


def decode_utf8(data: bytes, where: str, error: type = ValidationError) -> str:
    """`data` as UTF-8 text; raises `error` (a ValidationError) naming `where`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_text(source: Union[str, IO]) -> str:
    return decode_utf8(_read_bytes(source), _source_name(source))


def _write_bytes(dest: Union[str, IO], data: bytes) -> None:
    if hasattr(dest, "write"):
        try:
            dest.write(data)
        except TypeError:  # text-mode handle
            dest.write(data.decode("utf-8"))
        return
    with open(dest, "wb") as fh:
        fh.write(data)


def parse_json(text: str, where: str):
    """`json.loads` without the NaN, Infinity and -Infinity extensions.

    Canonical JSON has no spelling for a non-finite number, so a reader
    refuses one with a ValidationError naming `where`. Malformed text still
    raises json.JSONDecodeError for the caller to word.
    """

    def reject(name):
        raise ValidationError(f"{where}: non-finite number {name} is not allowed")

    return json.loads(text, parse_constant=reject)


def _parse_line(text: str, where: str) -> dict:
    try:
        doc = parse_json(text, where)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: malformed JSON at column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _point(value, where: str) -> Point2:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ValidationError(f"{where}: expected [x, y], got {value!r}")
    return Point2(float(value[0]), float(value[1]))


_JSON_NUMBERS = frozenset((int, float))


def _points(values: list, owner: str) -> tuple:
    """The points of one polyline; an error names `owner` and the point's index.

    A JSON [x, y] pair of plain numbers passes a quick exact-type check;
    anything else (a tuple, a numpy float, a bool, a bad value) goes through
    `_point`, so the accepted inputs and the messages are `_point`'s. The
    error location is built only on that path.
    """
    out = []
    for j, p in enumerate(values):
        if type(p) is list and len(p) == 2 and type(p[0]) in _JSON_NUMBERS and type(p[1]) in _JSON_NUMBERS:
            out.append(Point2(float(p[0]), float(p[1])))
        else:
            out.append(_point(p, f"{owner} point {j}"))
    return tuple(out)


def _ident(obj, where: str) -> int:
    v = obj.get("id") if isinstance(obj, dict) else None
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{where}: missing or non-integer id")
    return v


def _edges(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of [a, b] pairs")
    out = []
    for i, e in enumerate(value):
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise ValidationError(f"{where}[{i}]: expected an [a, b] id pair, got {e!r}")
        out.append((e[0], e[1]))
    return tuple(out)


def _labels(doc: dict, where: str) -> dict:
    """A `{centerline id: road id}` map from its JSON object form."""
    labels = {}
    for k, v in doc.items():
        try:
            cl = int(k)
        except ValueError:
            raise ValidationError(f"{where}: non-integer centerline key {k!r}") from None
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{where}: centerline {k}: road id must be an integer")
        labels[cl] = v
    return labels


def _read_lines(source: Union[str, IO], from_doc) -> list:
    """`from_doc(doc, where)` for every non-blank line of a newline-delimited container."""
    text = _read_text(source)
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        out.append(from_doc(_parse_line(line, where), where))
    return out


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# scenes


def scene_to_doc(scene: Scene) -> dict:
    """Plain-JSON document for a scene; inverse of scene_from_doc."""
    # graphs hold elements and edges in canonical sorted order already
    sd = {
        "roads": [{"id": r.id, "points": [[p.x, p.y] for p in r.points]} for r in scene.sd.roads],
        "edges": [list(e) for e in scene.sd.edges],
    }
    hd = {
        "centerlines": [
            {"id": c.id, "p1": [c.vector.p1.x, c.vector.p1.y], "p2": [c.vector.p2.x, c.vector.p2.y]}
            for c in scene.hd.centerlines
        ],
        "edges": [list(e) for e in scene.hd.edges],
        "boundaries": [
            {"id": b.id, "points": [[p.x, p.y] for p in b.points]} for b in scene.hd.boundaries
        ],
    }
    gt = None
    if scene.gt is not None:
        gt = {str(cl): int(rid) for cl, rid in scene.gt.labels.items()}
    return {"version": SCENE_VERSION, "meta": scene.meta, "sd": sd, "hd": hd, "gt": gt}


def scene_from_doc(doc: dict, where: str = "scene") -> Scene:
    """Rebuild and fully validate a Scene from its document form."""
    version = _field(doc, "version", where)
    if version != SCENE_VERSION:
        raise ValidationError(f"{where}: unsupported scene file version {version!r}")
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValidationError(f"{where}: meta must be an object")
    try:
        _canonical(meta)  # e.g. 1e999 parses to inf, which has no JSON spelling
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: meta cannot be written as canonical JSON: {exc}") from None

    sd_doc = _field(doc, "sd", where)
    if not isinstance(sd_doc, dict):
        raise ValidationError(f"{where}: sd must be an object")
    roads = []
    for i, r in enumerate(_field(sd_doc, "roads", f"{where}.sd")):
        rid = _ident(r, f"{where}.sd.roads[{i}]")
        pts = _field(r, "points", f"{where}.sd.roads[{i}] (road {rid})")
        if not isinstance(pts, list):
            raise ValidationError(f"{where}.sd: road {rid}: points must be a list")
        roads.append(Road(id=rid, points=_points(pts, f"{where}.sd: road {rid}")))
    sd = SdGraph(roads=tuple(roads), edges=_edges(_field(sd_doc, "edges", f"{where}.sd"), f"{where}.sd.edges"))

    hd_doc = _field(doc, "hd", where)
    if not isinstance(hd_doc, dict):
        raise ValidationError(f"{where}: hd must be an object")
    cls = []
    for i, c in enumerate(_field(hd_doc, "centerlines", f"{where}.hd")):
        cid = _ident(c, f"{where}.hd.centerlines[{i}]")
        p1 = _point(_field(c, "p1", f"{where}.hd: centerline {cid}"), f"{where}.hd: centerline {cid} p1")
        p2 = _point(_field(c, "p2", f"{where}.hd: centerline {cid}"), f"{where}.hd: centerline {cid} p2")
        cls.append(Centerline(id=cid, vector=DirVec.from_points(p1, p2)))
    bounds = []
    for i, b in enumerate(hd_doc.get("boundaries") or ()):
        bid = _ident(b, f"{where}.hd.boundaries[{i}]")
        pts = _field(b, "points", f"{where}.hd: boundary {bid}")
        if not isinstance(pts, list):
            raise ValidationError(f"{where}.hd: boundary {bid}: points must be a list")
        bounds.append(Boundary(id=bid, points=_points(pts, f"{where}.hd: boundary {bid}")))
    hd = HdGraph(
        centerlines=tuple(cls),
        edges=_edges(_field(hd_doc, "edges", f"{where}.hd"), f"{where}.hd.edges"),
        boundaries=tuple(bounds),
    )

    gt_doc = doc.get("gt")
    gt = None
    if gt_doc is not None:
        if not isinstance(gt_doc, dict):
            raise ValidationError(f"{where}: gt must be an object or null")
        gt = Association(labels=_labels(gt_doc, f"{where}.gt"))

    return validate_scene(Scene(sd=sd, hd=hd, gt=gt, meta=meta))


def dumps_scene(scene: Scene) -> str:
    return _canonical(scene_to_doc(scene))


def write_scene(scene: Scene, dest: Union[str, IO]) -> None:
    """Write one scene as a canonical single-line JSON document."""
    _write_bytes(dest, dumps_scene(scene).encode("utf-8"))


def read_scene(source: Union[str, IO]) -> Scene:
    """Read and validate a single-scene file."""
    text = _read_text(source)
    return scene_from_doc(_parse_line(text, "scene"), "scene")


def write_scenes(scenes, dest: Union[str, IO]) -> None:
    """Write scenes as a newline-delimited container, one document per line."""
    data = "".join(dumps_scene(s) for s in scenes)
    _write_bytes(dest, data.encode("utf-8"))


def read_scenes(source: Union[str, IO]) -> list:
    """Read every scene from a newline-delimited container, in file order."""
    return _read_lines(source, scene_from_doc)


# ---------------------------------------------------------------------------
# association records


@dataclass(frozen=True)
class AssocRecord:
    """One association result tied to the scene it was computed on.

    scene_ref is an opaque identifier (by convention the scene meta's
    scene_id); probs is the full matrix when the producer kept it.
    """

    method: str
    scene_ref: str
    assoc: Association
    probs: Union[AssocMatrix, None] = None


def assoc_to_doc(rec: AssocRecord) -> dict:
    doc = {
        "version": ASSOC_VERSION,
        "method": rec.method,
        "scene_ref": rec.scene_ref,
        "labels": {str(cl): int(rid) for cl, rid in rec.assoc.labels.items()},
    }
    if rec.assoc.meta:
        doc["decode_meta"] = rec.assoc.meta
    if rec.probs is not None:
        doc["probs"] = {
            "road_ids": list(rec.probs.road_ids),
            "centerline_ids": list(rec.probs.centerline_ids),
            "rows": [[float(v) for v in row] for row in rec.probs.probs],
        }
    return doc


def assoc_from_doc(doc: dict, where: str = "assoc") -> AssocRecord:
    version = _field(doc, "version", where)
    if version != ASSOC_VERSION:
        raise ValidationError(f"{where}: unsupported association file version {version!r}")
    method = _field(doc, "method", where)
    scene_ref = _field(doc, "scene_ref", where)
    if not isinstance(method, str) or not isinstance(scene_ref, str):
        raise ValidationError(f"{where}: method and scene_ref must be strings")
    labels_doc = _field(doc, "labels", where)
    if not isinstance(labels_doc, dict):
        raise ValidationError(f"{where}: labels must be an object")
    labels = _labels(labels_doc, f"{where}.labels")
    meta = doc.get("decode_meta") or {}
    if not isinstance(meta, dict):
        raise ValidationError(f"{where}: decode_meta must be an object")

    probs = None
    probs_doc = doc.get("probs")
    if probs_doc is not None:
        if not isinstance(probs_doc, dict):
            raise ValidationError(f"{where}: probs must be an object")
        try:
            rows = np.asarray(_field(probs_doc, "rows", f"{where}.probs"), dtype=np.float32)
            probs = AssocMatrix(
                probs=rows,
                centerline_ids=tuple(_field(probs_doc, "centerline_ids", f"{where}.probs")),
                road_ids=tuple(_field(probs_doc, "road_ids", f"{where}.probs")),
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}.probs: {exc}") from exc
    return AssocRecord(method=method, scene_ref=scene_ref, assoc=Association(labels=labels, meta=meta), probs=probs)


def write_assocs(records, dest: Union[str, IO]) -> None:
    """Write association records as a newline-delimited container."""
    data = "".join(_canonical(assoc_to_doc(r)) for r in records)
    _write_bytes(dest, data.encode("utf-8"))


def read_assocs(source: Union[str, IO]) -> list:
    """Read every association record from a newline-delimited container, in file order."""
    return _read_lines(source, assoc_from_doc)


# ---------------------------------------------------------------------------
# weights


def save_weights(weights: dict, dest: Union[str, IO]) -> None:
    """Write a tensor dict as magic + manifest line + contiguous blob.

    Tensors are laid out sorted by name so the container is a pure
    function of the mapping, independent of dict insertion order.
    """
    entries = []
    blobs = []
    offset = 0
    for name in sorted(weights):
        arr = weights[name]
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float32:
            raise ConfigError(f"tensor {name!r}: expected a float32 array")
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "<f4", "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    manifest = _canonical({"tensors": entries, "total_bytes": offset})
    _write_bytes(dest, WEIGHTS_MAGIC + manifest.encode("utf-8") + b"".join(blobs))


def load_weights(source: Union[str, IO], cfg=None) -> dict:
    """Read a weights container; validate against cfg when one is given.

    Raises IntegrityError for a damaged container (bad magic, malformed
    manifest, tensors that do not tile the blob, truncation) and, via
    validate_weights, ConfigError listing every name/shape discrepancy
    against the model configuration.
    """
    data = _read_bytes(source)
    if not data.startswith(WEIGHTS_MAGIC):
        raise IntegrityError("not a weights container: bad magic")
    body = data[len(WEIGHTS_MAGIC):]
    nl = body.find(b"\n")
    if nl < 0:
        raise IntegrityError("weights container: manifest line missing")
    where = f"weights container {_source_name(source)}: manifest"
    try:
        manifest = parse_json(decode_utf8(body[:nl], where, IntegrityError), where)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"weights container: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IntegrityError("weights container: manifest must be an object")
    tensors = manifest.get("tensors")
    total = manifest.get("total_bytes")
    if not isinstance(tensors, list) or not isinstance(total, int) or isinstance(total, bool):
        raise IntegrityError("weights container: manifest needs tensors list and total_bytes")

    blob = body[nl + 1:]
    if len(blob) < total:
        raise IntegrityError(f"weights container: blob truncated: expected {total} bytes, got {len(blob)}")

    if cfg is not None:
        # check declared names and shapes against the model configuration
        # before trusting manifest offsets, so an edited shape reports as a
        # config mismatch naming the tensor rather than a broken tiling
        from .mat.weights import weight_spec

        spec = dict(weight_spec(cfg))
        declared = {
            t.get("name"): tuple(t.get("shape") or ())
            for t in tensors
            if isinstance(t, dict) and isinstance(t.get("name"), str)
        }
        problems = []
        for name, shape in spec.items():
            if name not in declared:
                problems.append(f"missing tensor {name!r}")
            elif declared[name] != shape:
                problems.append(f"tensor {name!r}: shape {list(declared[name])}, expected {list(shape)}")
        for name in declared:
            if name not in spec:
                problems.append(f"unexpected tensor {name!r}")
        if problems:
            raise ConfigError("weights do not match the model configuration: " + "; ".join(problems))

    weights = {}
    expect_offset = 0
    for i, t in enumerate(tensors):
        if not isinstance(t, dict):
            raise IntegrityError(f"weights container: tensor entry {i} must be an object")
        name = t.get("name")
        shape = t.get("shape")
        if not isinstance(name, str) or not isinstance(shape, list):
            raise IntegrityError(f"weights container: tensor entry {i}: missing name or shape")
        if t.get("dtype") != "<f4":
            raise IntegrityError(f"tensor {name!r}: unsupported dtype {t.get('dtype')!r}")
        if name in weights:
            raise IntegrityError(f"tensor {name!r}: duplicated in manifest")
        if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape):
            raise IntegrityError(f"tensor {name!r}: invalid shape {shape!r}")
        size = 4 * int(np.prod(shape, dtype=np.int64))
        # tensors must tile the blob exactly; an edited shape breaks the tiling
        if t.get("offset") != expect_offset:
            raise IntegrityError(
                f"tensor {name!r}: offset {t.get('offset')!r} does not follow the preceding tensor (expected {expect_offset})"
            )
        if expect_offset + size > total:
            raise IntegrityError(f"tensor {name!r}: extends past total_bytes")
        flat = np.frombuffer(blob, dtype="<f4", count=size // 4, offset=expect_offset)
        weights[name] = np.asarray(flat, dtype=np.float32).reshape(shape).copy()
        expect_offset += size
    if expect_offset != total:
        raise IntegrityError(f"weights container: tensors cover {expect_offset} bytes, manifest says {total}")

    if cfg is not None:
        from .mat.weights import validate_weights

        validate_weights(weights, cfg)
    return weights
