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
element or tensor. Every document, whether a container line, a config, a
report or a weights manifest, is read by `parse_object`: one JSON object or a
ValidationError naming where the text came from.

The scene reader checks only what JSON holds, in one batch per element
class: exact types over each list, and reductions over the flattened
coordinates for finiteness and the crop extents. It builds the scene through
`geometry`, which owns every element and graph rule. A document that fails a
check or a rule is re-read element by element through the checking
constructors and `validate_scene`, which raise the first fault in document
order with a message that names it.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from operator import itemgetter
from typing import IO, Union

import numpy as np

from .assocmatrix import AssocMatrix
from .errors import ConfigError, IntegrityError, MapAssocError, ValidationError, located
from .fields import _shown, fits
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
    _coords_within,
    crop_extents,
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


def parse_json(text: str, where: str, finite: bool = False, error: type = ValidationError):
    """`json.loads` without the NaN, Infinity and -Infinity extensions.

    Canonical JSON has no spelling for a non-finite number, so a reader
    refuses one with `error` (a ValidationError) naming `where`; with
    `finite`, also a number that overflows a float, such as 1e999 (the scene
    reader checks that per element). So is an int literal past Python's
    digit limit (4300 by default) and text nested past the recursion limit.
    Malformed text still raises JSONDecodeError.
    """

    def reject(name):
        raise error(f"{where}: non-finite number {name} is not allowed")

    def finite_float(literal):
        return float(literal) if isfinite(float(literal)) else reject(literal)

    try:
        return json.loads(text, parse_constant=reject, parse_float=finite_float if finite else None)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # past the digit or recursion limit; drop the advice to raise it
        raise error(f"{where}: {str(exc).partition(';')[0]}") from None


def parse_object(text: str, where: str, finite: bool = False, error: type = ValidationError) -> dict:
    """The JSON object `text` holds, through `parse_json`.

    Malformed text, or a value that is not an object, raises `error` (a
    ValidationError) naming `where`.
    """
    try:
        doc = parse_json(text, where, finite, error)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _point(value, where: str) -> Point2:
    if not fits(value, tuple[float, float]):
        raise ValidationError(f"{where}: expected [x, y], got {_shown(value)}")
    return Point2(float(value[0]), float(value[1]))


def _points(values: list, owner: str) -> tuple:
    """The points of one polyline; an error names `owner` and the point's index."""
    return tuple(_point(p, f"{owner} point {j}") for j, p in enumerate(values))


def _ident(obj, where: str) -> int:
    v = obj.get("id") if isinstance(obj, dict) else None
    if not fits(v, int):
        raise ValidationError(f"{where}: missing or non-integer id")
    return v


def _edges(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of [a, b] pairs")
    out = []
    for i, e in enumerate(value):
        if not fits(e, tuple[int, int]):
            raise ValidationError(f"{where}[{i}]: expected an [a, b] id pair, got {_shown(e)}")
        out.append((e[0], e[1]))
    return tuple(out)


def _labels(doc: dict, where: str) -> dict:
    """A `{centerline id: road id}` map from its JSON object form."""
    labels = {}
    for k, v in doc.items():
        try:
            cl = int(k)
        except ValueError:
            raise ValidationError(f"{where}: non-integer centerline key {_shown(k)}") from None
        if type(v) is not int and not fits(v, int):  # exact type first: this runs per label per record
            raise ValidationError(f"{where}: centerline {k}: road id must be an integer")
        labels[cl] = v
    return labels


def numbered_lines(source: Union[str, IO]) -> list:
    """`(where, line)` for every non-blank line of a newline-delimited container.

    `where` is "line N", N counting from 1 over all lines, blank ones included.
    """
    text = _read_text(source)
    return [(f"line {n}", line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return doc[key]


def _list_field(doc: dict, key: str, where: str, optional: bool = False) -> list:
    """The element list `doc[key]`; an optional one may be missing or falsy (no elements)."""
    value = (doc.get(key) or []) if optional else _field(doc, key, where)
    if not isinstance(value, list):
        raise ValidationError(f"{where}: {key} must be a list")
    return value


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
    """Rebuild and fully validate a Scene from its document form.

    A document the batch checks refuse (see the module docstring) is re-read
    element by element, which raises its first fault in document order or,
    for an int or numpy coordinate or a tuple point, returns the same scene.
    """
    version = _field(doc, "version", where)
    if version != SCENE_VERSION:
        raise ValidationError(f"{where}: unsupported scene file version {_shown(version)}")
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValidationError(f"{where}: meta must be an object")
    try:
        _canonical(meta)  # e.g. 1e999 parses to inf, which has no JSON spelling
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: meta cannot be written as canonical JSON: {exc}") from None
    with located(where):
        sd_half, hd_half = crop_extents(meta)
    scene = _scene_in_batches(doc, meta, sd_half, hd_half)
    return scene if scene is not None else _scene_per_element(doc, meta, where)


_ID = itemgetter("id")
_DICT, _LIST, _INT, _FLOAT, _STR, _TWO = {dict}, {list}, {int}, {float}, {str}, {2}


def _records(elements, *keys):
    """The id column and the `keys` columns of a list of JSON objects, each
    with an int id and every key, or None."""
    if type(elements) is not list or not set(map(type, elements)) <= _DICT:
        return None
    try:
        ids = list(map(_ID, elements))
        if not set(map(type, ids)) <= _INT:
            return None
        return (ids, *(list(map(itemgetter(k), elements)) for k in keys))
    except KeyError:
        return None


def _coords(points: list):
    """The flat coordinates of a list of [x, y] float lists, or None."""
    if not set(map(type, points)) <= _LIST or not set(map(len, points)) <= _TWO:
        return None
    coords = list(chain.from_iterable(points))
    return coords if set(map(type, coords)) <= _FLOAT else None


def _polylines(elements, half):
    """The ids and point lists of {"id", "points"} objects, or None unless
    every point is a finite [x, y] float pair inside the crop half-extents `half`."""
    rec = _records(elements, "points")
    if rec is None or not set(map(type, rec[1])) <= _LIST:
        return None
    coords = _coords(list(chain.from_iterable(rec[1])))
    return rec if coords is not None and _coords_within(coords, half) else None


def _centerlines(elements, half):
    """The ids and endpoint columns of {"id", "p1", "p2"} objects, or None unless
    every endpoint is a finite [x, y] float pair inside the crop half-extents `half`."""
    rec = _records(elements, "p1", "p2")
    if rec is None:
        return None
    coords = _coords(rec[1] + rec[2])
    return rec if coords is not None and _coords_within(coords, half) else None


def _edge_pairs(edges):
    """The (a, b) pairs of a list of [int, int] lists, or None."""
    if type(edges) is not list or not set(map(type, edges)) <= _LIST or not set(map(len, edges)) <= _TWO:
        return None
    if not set(map(type, chain.from_iterable(edges))) <= _INT:
        return None
    return tuple(map(tuple, edges))


def _scene_in_batches(doc: dict, meta: dict, sd_half, hd_half):
    """The scene of `doc`, or None when a batch check or a geometry builder fails."""
    sd_doc, hd_doc = doc.get("sd"), doc.get("hd")
    if type(sd_doc) is not dict or type(hd_doc) is not dict:
        return None
    roads = _polylines(sd_doc.get("roads"), sd_half)
    cls = _centerlines(hd_doc.get("centerlines"), hd_half)
    bounds = _polylines(hd_doc.get("boundaries") or [], hd_half)
    sd_edges, hd_edges = _edge_pairs(sd_doc.get("edges")), _edge_pairs(hd_doc.get("edges"))
    if roads is None or cls is None or bounds is None or sd_edges is None or hd_edges is None:
        return None
    gt = doc.get("gt")
    if gt is not None:
        if type(gt) is not dict or not set(map(type, gt)) <= _STR or not set(map(type, gt.values())) <= _INT:
            return None
        try:
            labels = dict(zip(map(int, gt), gt.values()))
        except ValueError:
            return None
        if labels.keys() != set(cls[0]) or not set(roads[0]).issuperset(labels.values()):
            return None
        gt = Association(labels=labels)
    try:
        sd = SdGraph(roads=Road.many(*roads), edges=sd_edges)
        hd = HdGraph(centerlines=Centerline.many(*cls), edges=hd_edges, boundaries=Boundary.many(*bounds))
        hd.depths  # raises on a lane cycle
    except MapAssocError:
        return None
    return Scene(sd=sd, hd=hd, gt=gt, meta=meta)


def _scene_per_element(doc: dict, meta: dict, where: str) -> Scene:
    """The scene of `doc` through the checking constructors, element by element."""
    sd_doc = _field(doc, "sd", where)
    if not isinstance(sd_doc, dict):
        raise ValidationError(f"{where}: sd must be an object")
    roads = []
    for i, r in enumerate(_list_field(sd_doc, "roads", f"{where}.sd")):
        rid = _ident(r, f"{where}.sd.roads[{i}]")
        pts = _field(r, "points", f"{where}.sd.roads[{i}] (road {rid})")
        if not isinstance(pts, list):
            raise ValidationError(f"{where}.sd: road {rid}: points must be a list")
        points = _points(pts, f"{where}.sd: road {rid}")
        with located(f"{where}.sd"):
            roads.append(Road(id=rid, points=points))
    sd_edges = _edges(_field(sd_doc, "edges", f"{where}.sd"), f"{where}.sd.edges")
    with located(f"{where}.sd"):
        sd = SdGraph(roads=tuple(roads), edges=sd_edges)

    hd_doc = _field(doc, "hd", where)
    if not isinstance(hd_doc, dict):
        raise ValidationError(f"{where}: hd must be an object")
    cls = []
    for i, c in enumerate(_list_field(hd_doc, "centerlines", f"{where}.hd")):
        cid = _ident(c, f"{where}.hd.centerlines[{i}]")
        p1 = _point(_field(c, "p1", f"{where}.hd: centerline {cid}"), f"{where}.hd: centerline {cid} p1")
        p2 = _point(_field(c, "p2", f"{where}.hd: centerline {cid}"), f"{where}.hd: centerline {cid} p2")
        with located(f"{where}.hd: centerline {cid}"):
            vector = DirVec(p1, p2)
        cls.append(Centerline(id=cid, vector=vector))
    bounds = []
    for i, b in enumerate(_list_field(hd_doc, "boundaries", f"{where}.hd", optional=True)):
        bid = _ident(b, f"{where}.hd.boundaries[{i}]")
        pts = _field(b, "points", f"{where}.hd: boundary {bid}")
        if not isinstance(pts, list):
            raise ValidationError(f"{where}.hd: boundary {bid}: points must be a list")
        points = _points(pts, f"{where}.hd: boundary {bid}")
        with located(f"{where}.hd"):
            bounds.append(Boundary(id=bid, points=points))
    hd_edges = _edges(_field(hd_doc, "edges", f"{where}.hd"), f"{where}.hd.edges")
    with located(f"{where}.hd"):
        hd = HdGraph(centerlines=tuple(cls), edges=hd_edges, boundaries=tuple(bounds))

    gt_doc = doc.get("gt")
    gt = None
    if gt_doc is not None:
        if not isinstance(gt_doc, dict):
            raise ValidationError(f"{where}: gt must be an object or null")
        gt = Association(labels=_labels(gt_doc, f"{where}.gt"))

    with located(where):
        return validate_scene(Scene(sd=sd, hd=hd, gt=gt, meta=meta))


def dumps_scene(scene: Scene) -> str:
    return _canonical(scene_to_doc(scene))


def write_scene(scene: Scene, dest: Union[str, IO]) -> None:
    """Write one scene as a canonical single-line JSON document."""
    _write_bytes(dest, dumps_scene(scene).encode("utf-8"))


def loads_scene(text: str, where: str = "scene") -> Scene:
    """Parse and validate one scene document; inverse of dumps_scene. The
    cyclic collector is paused meanwhile: the thousands of lists a document
    parses into would set off dozens of collections per scene, now and then a
    full one over the whole heap, and reference counting frees them all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return scene_from_doc(parse_object(text, where), where)
    finally:
        if enabled:
            gc.enable()


def read_scene(source: Union[str, IO]) -> Scene:
    """Read and validate a single-scene file."""
    return loads_scene(_read_text(source))


def write_lines(lines, dest: Union[str, IO]) -> None:
    """Write a newline-delimited container from canonical document lines, each
    ending in a newline (`dumps_scene` gives them for scenes)."""
    _write_bytes(dest, "".join(lines).encode("utf-8"))


def write_scenes(scenes, dest: Union[str, IO]) -> None:
    """Write scenes as a newline-delimited container, one document per line."""
    write_lines(map(dumps_scene, scenes), dest)


def read_scenes(source: Union[str, IO]) -> list:
    """Read every scene from a newline-delimited container, in file order."""
    return [loads_scene(line, where) for where, line in numbered_lines(source)]


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
        raise ValidationError(f"{where}: unsupported association file version {_shown(version)}")
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
            centerline_ids = tuple(_field(probs_doc, "centerline_ids", f"{where}.probs"))
            road_ids = tuple(_field(probs_doc, "road_ids", f"{where}.probs"))
            with located(f"{where}.probs"):
                probs = AssocMatrix(probs=rows, centerline_ids=centerline_ids, road_ids=road_ids)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an inf id or a row value past float
            raise ValidationError(f"{where}.probs: {exc}") from exc
    return AssocRecord(method=method, scene_ref=scene_ref, assoc=Association(labels=labels, meta=meta), probs=probs)


def write_assocs(records, dest: Union[str, IO]) -> None:
    """Write association records as a newline-delimited container."""
    write_lines((_canonical(assoc_to_doc(r)) for r in records), dest)


def read_assocs(source: Union[str, IO]) -> list:
    """Read every association record from a newline-delimited container, in file order."""
    return [assoc_from_doc(parse_object(line, where), where) for where, line in numbered_lines(source)]


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
    manifest, tensors that do not tile the blob, truncation) and, with a
    config, ConfigError listing every discrepancy `mat.weights` finds: the
    declared names and shapes are checked before the offsets are trusted,
    the loaded tensors by validate_weights.
    """
    data = _read_bytes(source)
    if not data.startswith(WEIGHTS_MAGIC):
        raise IntegrityError("not a weights container: bad magic")
    body = data[len(WEIGHTS_MAGIC):]
    nl = body.find(b"\n")
    if nl < 0:
        raise IntegrityError("weights container: manifest line missing")
    where = f"weights container {_source_name(source)}: manifest"
    manifest = parse_object(decode_utf8(body[:nl], where, IntegrityError), where, error=IntegrityError)
    tensors = manifest.get("tensors")
    total = manifest.get("total_bytes")
    if not isinstance(tensors, list) or not fits(total, int):
        raise IntegrityError("weights container: manifest needs tensors list and total_bytes")

    blob = body[nl + 1:]
    if len(blob) < total:
        raise IntegrityError(f"weights container: blob truncated: expected {total} bytes, got {len(blob)}")

    shapes = {}
    for i, t in enumerate(tensors):
        if not isinstance(t, dict):
            raise IntegrityError(f"weights container: tensor entry {i} must be an object")
        name = t.get("name")
        shape = t.get("shape")
        if not isinstance(name, str) or not isinstance(shape, list):
            raise IntegrityError(f"weights container: tensor entry {i}: missing name or shape")
        if t.get("dtype") != "<f4":
            raise IntegrityError(f"tensor {_shown(name)}: unsupported dtype {_shown(t.get('dtype'))}")
        if name in shapes:
            raise IntegrityError(f"tensor {_shown(name)}: duplicated in manifest")
        if not fits(shape, tuple[int, ...]) or min(shape, default=0) < 0:
            raise IntegrityError(f"tensor {_shown(name)}: invalid shape {_shown(shape)}")
        shapes[name] = tuple(shape)
    if cfg is not None:
        # check declared names and shapes against the model configuration
        # before trusting manifest offsets, so an edited shape reports as a
        # config mismatch naming the tensor rather than a broken tiling
        from .mat.weights import raise_problems, spec_problems, validate_weights

        raise_problems(spec_problems(shapes, cfg))

    weights = {}
    expect_offset = 0
    for t, (name, shape) in zip(tensors, shapes.items()):
        size = 4 * int(np.prod(shape, dtype=np.int64))
        # tensors must tile the blob exactly; an edited shape breaks the tiling
        if t.get("offset") != expect_offset:
            raise IntegrityError(
                f"tensor {_shown(name)}: offset {_shown(t.get('offset'))} does not follow the preceding tensor (expected {expect_offset})"
            )
        if expect_offset + size > total:
            raise IntegrityError(f"tensor {name!r}: extends past total_bytes")
        flat = np.frombuffer(blob, dtype="<f4", count=size // 4, offset=expect_offset)
        weights[name] = np.asarray(flat, dtype=np.float32).reshape(shape).copy()
        expect_offset += size
    if expect_offset != total:
        raise IntegrityError(f"weights container: tensors cover {expect_offset} bytes, manifest says {total}")

    if cfg is not None:
        validate_weights(weights, cfg)
    return weights
