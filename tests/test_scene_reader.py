"""The batch scene reader against the element-by-element reference reader.

`io.scene_from_doc` checks each element class of a document in one batch and
builds its objects without the constructor checks. These tests pin that
down from both sides: on mutated documents it must return what the
reference reader in `oracles.py` returns, or raise the same exception with
the same message; and the objects it builds unchecked must behave like
constructed ones.
"""

from __future__ import annotations

import copy
import io as pyio
import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mapassoc.io as mio
from mapassoc.geometry import Point2
from mapassoc.io import dumps_scene, read_scene, scene_from_doc, scene_to_doc
from mapassoc.scenegen import AugConfig, GenConfig, PerturbConfig, augment_scene, generate_scene, perturb_scene
from oracles import scene_from_doc_reference

LAYOUTS = ("grid", "radial", "random-planar")


@lru_cache(maxsize=None)
def _scene(layout: str, seed: int, noisy: bool):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    if noisy:  # oversegmented centerlines get ids out of document order
        noise = PerturbConfig(gps_shift=1.0, dropout_rate=0.1, jitter_sigma=0.2, oversegment_rate=0.3, seed=seed)
        scene = augment_scene(perturb_scene(scene, noise), AugConfig(seed=seed))
    return scene


@lru_cache(maxsize=None)
def _base_docs() -> tuple:
    return tuple(dumps_scene(_scene(layout, 0, noisy)) for layout in LAYOUTS for noisy in (False, True))


# ---------------------------------------------------------------------------
# document mutations


def _nodes(value, path=()):
    """(path, value) for every node of a JSON-like tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, (*path, k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _nodes(v, (*path, i))


def _set(doc, path, value):
    *head, last = path
    parent = _get(doc, head)
    if isinstance(parent, tuple):  # a point `tuple_pair` made: rebuild it around the value
        _set(doc, head, tuple(value if i == last else v for i, v in enumerate(parent)))
    else:
        parent[last] = value


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _pick(draw, items):
    items = list(items)
    return draw(st.sampled_from(items)) if items else None


def _elements(doc, draw):
    """A drawn (graph, key) element list of the document that exists and is non-empty."""
    choices = [
        (g, k)
        for g, k in (("sd", "roads"), ("hd", "centerlines"), ("hd", "boundaries"))
        if isinstance(doc.get(g), dict) and isinstance(doc[g].get(k), list) and doc[g][k]
    ]
    return _pick(draw, choices)


SWAPS = [None, True, False, 0, 7, -1, 2.5, "x", "", [], [1.0], [1.0, 2.0], [1, 2], {}, {"id": 1}]


def drop_field(draw, doc):
    dicts = [p for p, v in _nodes(doc) if isinstance(v, dict) and v]
    path = _pick(draw, dicts)
    if path is not None:
        node = _get(doc, path)
        del node[draw(st.sampled_from(sorted(node, key=str)))]


def swap_type(draw, doc):
    path = _pick(draw, (p for p, _ in _nodes(doc) if p))
    if path is not None:
        _set(doc, path, copy.deepcopy(draw(st.sampled_from(SWAPS))))


def number_kind(draw, doc):
    """Bools, ints, numpy floats, overflowed literals, -0.0 in place of a float."""
    path = _pick(draw, (p for p, v in _nodes(doc) if type(v) is float and math.isfinite(v)))
    if path is None:
        return
    v = _get(doc, path)
    kind = draw(st.sampled_from(["bool", "int", "np", "inf", "-inf", "negzero"]))
    if kind == "bool":
        v = v > 0
    elif kind == "int":
        v = math.floor(v)
    elif kind == "np":
        v = np.float64(v)
    elif kind == "negzero":
        v = -0.0 if v == 0 else -v
    else:
        v = math.inf if kind == "inf" else -math.inf  # what the literal 1e999 parses to
    _set(doc, path, v)


def tuple_pair(draw, doc):
    path = _pick(draw, (p for p, v in _nodes(doc) if p and isinstance(v, list) and len(v) == 2))
    if path is not None:
        _set(doc, path, tuple(_get(doc, path)))


def repeat_point(draw, doc):
    """A repeated point in a polyline, also as an equal -0.0/0.0 pair."""
    where = _elements(doc, draw)
    if where is None or where[1] == "centerlines":
        return
    el = draw(st.sampled_from(doc[where[0]][where[1]]))
    pts = el.get("points") if isinstance(el, dict) else None
    if not isinstance(pts, list) or not pts:
        return
    j = draw(st.integers(0, len(pts) - 1))
    if draw(st.booleans()):
        pts.insert(j, copy.deepcopy(pts[j]))
    else:
        pts[j] = [0.0, -0.0]
        pts.insert(j, [-0.0, 0.0])


def zero_length(draw, doc):
    cls = doc.get("hd", {}).get("centerlines") if isinstance(doc.get("hd"), dict) else None
    if isinstance(cls, list) and cls and isinstance(cls[0], dict):
        c = draw(st.sampled_from(cls))
        if isinstance(c, dict) and "p1" in c:
            c["p2"] = copy.deepcopy(c["p1"])


def duplicate_id(draw, doc):
    where = _elements(doc, draw)
    if where is not None:
        items = doc[where[0]][where[1]]
        a, b = draw(st.integers(0, len(items) - 1)), draw(st.integers(0, len(items) - 1))
        if isinstance(items[a], dict) and isinstance(items[b], dict) and "id" in items[b]:
            items[a]["id"] = items[b]["id"]


def edge(draw, doc):
    """Self-loop, dangling, reversed (cyclic), duplicate or shuffled edges."""
    graph = draw(st.sampled_from(["sd", "hd"]))
    edges = doc.get(graph, {}).get("edges") if isinstance(doc.get(graph), dict) else None
    if not isinstance(edges, list) or not edges or not isinstance(edges[0], list):
        return
    a, b = copy.deepcopy(draw(st.sampled_from(edges)))[:2] if len(edges[0]) >= 2 else (0, 0)
    kind = draw(st.sampled_from(["self", "dangling", "reverse", "duplicate", "shuffle"]))
    if kind == "shuffle":
        random.Random(draw(st.integers(0, 99))).shuffle(edges)
    else:
        edges.append({"self": [a, a], "dangling": [a, 99999], "reverse": [b, a], "duplicate": [a, b]}[kind])


def gt_fault(draw, doc):
    gt = doc.get("gt")
    if not isinstance(gt, dict) or not gt:
        return
    key = draw(st.sampled_from(sorted(gt, key=str)))
    kind = draw(st.sampled_from(["gap", "bad road", "missing centerline", "bad key", "bool"]))
    if kind == "gap":
        del gt[key]
    elif kind == "bad road":
        gt[key] = 99999
    elif kind == "missing centerline":
        gt["99999"] = gt[key]
    elif kind == "bad key":
        gt["x"] = gt[key]
    else:
        gt[key] = True


def crop_edge(draw, doc):
    """A coordinate exactly at the crop extent + 1e-6, or one ulp beyond it."""
    crop = doc.get("meta", {}).get("crop") if isinstance(doc.get("meta"), dict) else None
    where = _elements(doc, draw)
    if not isinstance(crop, dict) or where is None:
        return
    half = crop.get("sd" if where[0] == "sd" else "hd")
    if not isinstance(half, list) or len(half) != 2 or not all(type(v) in (int, float) for v in half):
        return
    el = draw(st.sampled_from(doc[where[0]][where[1]]))
    if not isinstance(el, dict):
        return
    keys = [k for k in ("points", "p1", "p2") if k in el]
    if not keys:
        return
    key = draw(st.sampled_from(keys))
    point = el[key] if key != "points" else (draw(st.sampled_from(el[key])) if el[key] else None)
    if not isinstance(point, list) or len(point) != 2:
        return
    axis = draw(st.integers(0, 1))
    edge_value = float(half[axis]) + 1e-6
    if draw(st.booleans()):
        edge_value = math.nextafter(edge_value, math.inf)
    point[axis] = edge_value if draw(st.booleans()) else -edge_value


def boundaries(draw, doc):
    hd = doc.get("hd")
    if isinstance(hd, dict):
        kind = draw(st.sampled_from(["empty", "missing", "null"]))
        if kind == "missing":
            hd.pop("boundaries", None)
        else:
            hd["boundaries"] = [] if kind == "empty" else None


CROPS = [
    "ab", 5, None, [True, 2], {}, {"hd": "ab"}, {"hd": [1]}, {"sd": [True, 2.0]}, {"sd": [-1.0, 2.0]},
    {"sd": [1, 2]}, {"hd": [0.0, 0.0]}, {"hd": [1e308, 1e308]}, {"sd": None}, {"extra": 1},
]


def crop_meta(draw, doc):
    meta = doc.get("meta")
    if isinstance(meta, dict):
        meta["crop"] = copy.deepcopy(draw(st.sampled_from(CROPS)))


def shuffle_elements(draw, doc):
    where = _elements(doc, draw)
    if where is not None:
        random.Random(draw(st.integers(0, 99))).shuffle(doc[where[0]][where[1]])


MUTATIONS = [
    drop_field, swap_type, number_kind, tuple_pair, repeat_point, zero_length, duplicate_id,
    edge, gt_fault, crop_edge, boundaries, crop_meta, shuffle_elements,
]


@st.composite
def mutated_docs(draw):
    doc = json.loads(draw(st.sampled_from(_base_docs())))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(draw, doc)
    return doc


def _outcome(read, doc):
    """(scene, canonical bytes) read from a copy of `doc`, or (exception type, message)."""
    try:
        scene = read(copy.deepcopy(doc), "line 3")
    except Exception as exc:  # the type and the message are what is compared
        return type(exc), str(exc)
    return scene, dumps_scene(scene)


@given(mutated_docs())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(doc={"version": "1", "sd": {"roads": 5, "edges": []}, "hd": {"centerlines": [], "edges": []}})
def test_reader_matches_reference_on_mutated_documents(doc):
    assert _outcome(scene_from_doc, doc) == _outcome(scene_from_doc_reference, doc)


def _edit(doc, edit: str) -> bool:
    """Apply one named single-value edit to a base document; True if the edit keeps it valid."""
    road, cl = doc["sd"]["roads"][0], doc["hd"]["centerlines"][0]
    ex = float(doc["meta"]["crop"]["hd"][0]) + 1e-6
    if edit == "int coordinate":
        road["points"][0][0] = math.trunc(road["points"][0][0])  # toward 0 stays in the crop
    elif edit == "numpy coordinate":
        cl["p1"][1] = np.float64(cl["p1"][1])
    elif edit == "tuple point":
        road["points"][1] = tuple(road["points"][1])
    elif edit == "bool coordinate":
        cl["p2"][0] = True
        return False
    elif edit == "overflowed coordinate":
        road["points"][0][1] = math.inf
        return False
    elif edit == "at the crop slack":
        cl["p1"][0] = -ex
    elif edit == "one ulp beyond the crop slack":
        cl["p2"][0] = math.nextafter(ex, math.inf)
        return False
    elif edit == "repeated signed zeros":
        road["points"][:2] = [[0.0, -0.0], [-0.0, 0.0]]
        return False
    elif edit == "signed zero":
        road["points"][0] = [-0.0, road["points"][0][1]]
    elif edit == "zero-length centerline":
        cl["p2"] = [v if v else -v for v in cl["p1"]]
        return False
    return True


EDITS = [
    "int coordinate", "numpy coordinate", "tuple point", "bool coordinate", "overflowed coordinate",
    "at the crop slack", "one ulp beyond the crop slack", "repeated signed zeros", "signed zero",
    "zero-length centerline",
]


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("base", range(2 * len(LAYOUTS)))
def test_reader_matches_reference_on_edge_values(base, edit):
    doc = json.loads(_base_docs()[base])
    valid = _edit(doc, edit)
    got = _outcome(scene_from_doc, doc)
    assert got == _outcome(scene_from_doc_reference, doc)
    assert not isinstance(got[0], type) if valid else isinstance(got[0], type)


def test_reference_agrees_on_every_base_document():
    for text in _base_docs():
        doc = json.loads(text)
        assert dumps_scene(scene_from_doc(doc)) == dumps_scene(scene_from_doc_reference(doc)) == text


# ---------------------------------------------------------------------------
# unchecked objects


def _no_element_walk(*args):
    raise AssertionError("a canonical document failed a batch check")


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_reader_objects_behave_like_constructed_ones(monkeypatch, layout, seed, noisy):
    built = _scene(layout, seed, noisy)
    doc = scene_to_doc(built)
    monkeypatch.setattr(mio, "_scene_per_element", _no_element_walk)
    read = scene_from_doc(json.loads(json.dumps(doc)))
    assert read_scene(pyio.StringIO(dumps_scene(built))) == read == built

    vectors = [(a.vector, b.vector) for a, b in zip(read.hd.centerlines, built.hd.centerlines)]
    pairs = [(read.sd, built.sd), (read.hd, built.hd), *vectors]
    for name in ("roads", "centerlines", "boundaries"):
        graph = "sd" if name == "roads" else "hd"
        pairs += zip(getattr(getattr(read, graph), name), getattr(getattr(built, graph), name), strict=True)
    for a, b in pairs:
        assert type(a) is type(b) and a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == b
    assert pickle.loads(pickle.dumps(read)) == built

    for a, b in zip(read.sd.roads, built.sd.roads):
        assert a.vectors == b.vectors and a.length == b.length
    for a, b in zip(read.hd.boundaries, built.hd.boundaries):
        assert a.vectors == b.vectors
    for graph in ("sd", "hd"):
        assert getattr(read, graph).depths == getattr(built, graph).depths
        assert getattr(read, graph).paths == getattr(built, graph).paths

    points = [p for r in read.sd.roads for p in r.points] + [p for b in read.hd.boundaries for p in b.points]
    points += [p for c in read.hd.centerlines for p in (c.vector.p1, c.vector.p2)]
    assert all(type(p) is Point2 for p in points)

    frozen = [
        (read, "meta"), (read.sd, "edges"), (read.hd, "centerlines"), (read.sd.roads[0], "points"),
        (read.hd.centerlines[0], "id"), (read.hd.centerlines[0].vector, "theta"),
    ]
    if read.hd.boundaries:
        frozen.append((read.hd.boundaries[0], "id"))
    for obj, field in frozen:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, None)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ["shuffled elements", "unsorted edges", "repeated edges"])
def test_out_of_order_documents_read_as_the_canonical_scene(layout, noisy, order):
    built = _scene(layout, 0, noisy)
    doc = scene_to_doc(built)
    rng = random.Random(7)
    if order == "shuffled elements":
        for graph, key in (("sd", "roads"), ("hd", "centerlines"), ("hd", "boundaries")):
            rng.shuffle(doc[graph][key])
    else:
        for graph in ("sd", "hd"):
            edges = doc[graph]["edges"]
            if order == "repeated edges":
                edges += edges[: len(edges) // 2 + 1]
            rng.shuffle(edges)
    read = scene_from_doc(json.loads(json.dumps(doc)))
    assert read == built
    assert dumps_scene(read) == dumps_scene(built)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ["shuffled elements", "unsorted edges", "repeated edges"])
def test_out_of_order_documents_stay_on_the_batch_path(monkeypatch, layout, noisy, order):
    built = _scene(layout, 0, noisy)
    doc = scene_to_doc(built)
    rng = random.Random(11)
    if order == "shuffled elements":
        for graph, key in (("sd", "roads"), ("hd", "centerlines"), ("hd", "boundaries")):
            rng.shuffle(doc[graph][key])
    else:
        for graph in ("sd", "hd"):
            edges = doc[graph]["edges"]
            if order == "repeated edges":
                edges += edges[: len(edges) // 2 + 1]
            rng.shuffle(edges)
    monkeypatch.setattr(mio, "_scene_per_element", _no_element_walk)
    read = scene_from_doc(json.loads(json.dumps(doc)))
    assert read == built
    assert dumps_scene(read) == dumps_scene(built)
