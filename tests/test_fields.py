"""Field annotations own what a config or JSON value may be.

`mapassoc.fields` enforces the rule; every config class calls `check_fields`
first in `__post_init__`. A property test feeds mutated `gen --config` and
`--model-config` documents through the CLI, which must exit 0, 2 or 3, never
raise. A guard keeps hand-written type checks from growing back.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import tempfile
import types
from pathlib import Path
from typing import Optional, Union
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_config_fields import CONFIG_CLASSES, _trees

from mapassoc.cli import main
from mapassoc.errors import ConfigError
from mapassoc.fields import check_fields, conform, fits
from mapassoc.mat import ModelConfig, StageSpec
from mapassoc.metrics import DEFAULT_THRESHOLDS, MetricConfig
from mapassoc.scenegen import AugConfig, GenConfig, PerturbConfig

# ---------------------------------------------------------------------------
# the rules


@pytest.mark.parametrize("value, hint, want", [
    (3, int, 3),
    (3, float, 3),
    (2.5, float, 2.5),
    (np.float64(2.5), float, np.float64(2.5)),
    (math.inf, float, math.inf),
    (True, bool, True),
    ("a", str, "a"),
    (None, Optional[int], None),
    ([1, 2], tuple[int, int], (1, 2)),
    ((1.5, 2), tuple[float, float], (1.5, 2)),
    ([], tuple[float, ...], ()),
    ([[0, None]], tuple[tuple[float, Optional[float]], ...], ((0, None),)),
    (1.0, Union[tuple[float, float], float], 1.0),
    ([1, 48, 4], StageSpec, StageSpec(1, 48, 4)),
])
def test_conform_accepts(value, hint, want):
    got = conform(value, hint)
    assert got == want and type(got) is type(want)
    if isinstance(want, tuple):
        assert list(map(type, got)) == list(map(type, want))  # no int turned into a float


@pytest.mark.parametrize("value, hint", [
    (True, int),
    (False, float),
    (1, bool),
    (2.0, int),
    ("2", int),
    (None, float),
    (b"x", str),
    ([1], tuple[int, int]),
    ([1, 2, 3], tuple[int, int]),
    ("ab", tuple[str, str]),
    ({"a": 1}, tuple[int, ...]),
    ([1, True], tuple[int, ...]),
    ([1, 48], StageSpec),
    (5, StageSpec),
    ("a", Union[tuple[float, float], float]),
    pytest.param(10**400, float, id="int-above-float-max"),
    pytest.param(-10**400, float, id="int-below-float-min"),
])
def test_conform_rejects(value, hint):
    with pytest.raises(TypeError):
        conform(value, hint)
    assert not fits(value, hint)


def test_check_fields_stores_tuples_and_names_the_field():
    cfg = ModelConfig(stages=[[1, 12, 1]], attention_order=["path", "spatial"], patch_size=4)
    assert cfg.stages == (StageSpec(1, 12, 1),) and cfg.attention_order == ("path", "spatial")
    check_fields(cfg)  # a checked object passes again unchanged
    with pytest.raises(ConfigError, match=r"^patch_size: expected int, got '8'$"):
        ModelConfig(patch_size="8")
    with pytest.raises(ConfigError, match=r"^stages: channels: expected int"):
        ModelConfig(stages=[[1, "48", 4]])
    with pytest.raises(ConfigError, match=r"^sd_extent: expected tuple\[float, float\], got 5$"):
        GenConfig(sd_extent=5)


def test_tuple_hints_fit_where_an_alias_passes_for_a_type():
    # Before Python 3.11, isinstance(tuple[float, float], type) is True; the
    # stand-in below answers that way on every version.
    def isinstance_310(obj, cls):
        return (cls is type and type(obj) is types.GenericAlias) or isinstance(obj, cls)

    with mock.patch("mapassoc.fields.isinstance", isinstance_310, create=True):
        assert conform([1.5, 2], tuple[float, float]) == (1.5, 2)
        assert conform([[1, 48, 4]], tuple[StageSpec, ...]) == (StageSpec(1, 48, 4),)
        with pytest.raises(TypeError, match=r"^expected tuple\[int, int\], got 5$"):
            conform(5, tuple[int, int])
        assert MetricConfig().thresholds == DEFAULT_THRESHOLDS and GenConfig().sd_extent == (75.0, 75.0)


def test_metric_config_keeps_thresholds_and_buckets_as_floats():
    cfg = MetricConfig(thresholds=(1,), length_buckets=((0, 5), (5, math.inf)))
    assert cfg.thresholds == (1.0,) and type(cfg.thresholds[0]) is float
    assert all(type(v) is float for b in cfg.length_buckets for v in b)


def test_config_documents_refuse_a_number_out_of_the_float_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"perturb": {"jitter_sigma": 1e999}}')
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "s.ndjson")]) == 2
    assert "non-finite number 1e999 is not allowed" in capsys.readouterr().err


def test_config_documents_refuse_an_int_out_of_the_float_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"perturb": {"jitter_sigma": 1%s}}' % ("0" * 400))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "s.ndjson")]) == 2
    assert "error: perturb config: jitter_sigma: expected float, got 1000" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda: GenConfig(seed=-1),
    lambda: PerturbConfig(seed=-1),
    lambda: AugConfig(seed=-1),
    lambda: AugConfig(grid_sample=(0, 0, 0)),
    lambda: AugConfig(grid_sample=(0.1, 0.1, -1.0)),
])
def test_range_checks_follow_the_type_check(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("flag", [
    ["gen", "--seed", "-1"],
    ["gen", "--count", "-3"],
    ["associate", "--method", "mat", "--init-seed", "-1"],
    ["associate", "--method", "mat", "--curve-seed", "x"],
])
def test_negative_seed_or_count_exits_2_naming_the_flag(tmp_path, capsys, flag):
    args = [*flag, "--out", str(tmp_path / "out.ndjson")]
    if flag[0] == "associate":
        args += ["--scenes", str(tmp_path / "absent.ndjson")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"argument {flag[-2]}: expected a non-negative integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the config surface through the CLI

GEN_DOC = {
    "gen": {"layout": "grid", "lanes_per_road": [1, 1], "hd_extent": [12.0, 24.0], "grid_rows": 2, "seed": 0},
    "perturb": {"gps_shift": [0.5, 0.0], "dropout_rate": 0.1, "jitter_sigma": 0.1, "seed": 1},
    "augment": {"scale_range": [1.0, 1.0], "grid_sample": [0.1, 0.1, 0.2], "seed": 2},
}
SECTIONS = {"gen": GenConfig, "perturb": PerturbConfig, "augment": AugConfig}
MODEL_DOC = {
    "stages": [[1, 12, 1], [1, 24, 2]], "patch_size": 4, "curve": "z", "attention_order": ["path", "spatial"],
    "mlp_ratio": 2, "rope_base": 100.0, "pooling": "max",
}
# Size fields get only small ints: nothing bounds them, so a large one can
# exhaust memory instead of failing.
SIZE_FIELDS = {"grid_rows", "grid_cols", "radial_arms", "random_roads", "lanes_per_road", "mlp_ratio", "stages"}
# stand-ins for what json.dumps cannot write
BIG, NEG_BIG, NOT_UTF8 = "<1e999>", "<-1e999>", "<not utf-8>"
OTHER_TYPES = ("x", None, {}, [], True, False, 0, 2, -1, 1.5, [1.0], [1, 2, 3, 4], [[1, 2]], [[1, 12, 1]])


def _mutant(draw, doc: dict, names) -> None:
    """Change one field of `doc` in place, by one of the mutations under test."""
    name = draw(st.sampled_from(sorted(names)))
    old = doc.get(name)
    kind = draw(st.sampled_from(("drop", "type", "bool", "length", "arity", "big", "not_utf8")))
    if kind == "drop":
        doc.pop(name, None)
    elif kind == "type":
        doc[name] = draw(st.sampled_from(OTHER_TYPES))
    elif kind == "bool":
        doc[name] = draw(st.booleans())
    elif kind == "length":
        items = old if isinstance(old, list) and old else [1.0, 1.0]
        doc[name] = draw(st.sampled_from((items[:-1], items + items[-1:])))
    elif kind == "arity":
        doc["stages"] = draw(st.sampled_from(([[1, 12]], [[1, 12, 1, 1]], [[1]], [], [[]], [[1, 12, 1], 5])))
    elif kind == "big" and name not in SIZE_FIELDS:
        doc[name] = draw(st.sampled_from((BIG, NEG_BIG)))
    elif kind == "not_utf8":
        doc[name] = NOT_UTF8


@st.composite
def gen_docs(draw) -> dict:
    doc = {k: dict(v) for k, v in GEN_DOC.items()}
    for _ in range(draw(st.integers(1, 2))):
        section = draw(st.sampled_from(sorted(SECTIONS)))
        _mutant(draw, doc[section], {f for f in SECTIONS[section].__dataclass_fields__})
    return doc


@st.composite
def model_docs(draw) -> dict:
    doc = dict(MODEL_DOC)
    for _ in range(draw(st.integers(1, 2))):
        _mutant(draw, doc, ModelConfig.__dataclass_fields__)
    return doc


def _write(path: Path, doc: dict) -> str:
    data = json.dumps(doc).encode("utf-8")
    for stand_in, raw in ((BIG, b"1e999"), (NEG_BIG, b"-1e999")):
        data = data.replace(b'"' + stand_in.encode() + b'"', raw)
    path.write_bytes(data.replace(NOT_UTF8.encode(), b"\xff"))
    return str(path)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("surface") / "scenes.ndjson")
    assert _run(["gen", "--config", _write(Path(out + ".json"), GEN_DOC), "--count", "2", "--out", out]) == 0
    return out


@pytest.mark.parametrize("threads", ["1", "2"])
@given(doc=gen_docs())
@example(doc=dict(GEN_DOC, augment={"jitter_sigma": BIG}))
@example(doc=dict(GEN_DOC, gen={"junction_radius": NEG_BIG}))
@settings(max_examples=100, deadline=None)
def test_mutated_gen_config_exits_0_2_or_3(threads, doc):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"MAPASSOC_THREADS": threads}):
        cfg = _write(Path(tmp, "cfg.json"), doc)
        assert _run(["gen", "--config", cfg, "--count", "2", "--out", str(Path(tmp, "s.ndjson"))]) in (0, 2, 3)


@pytest.mark.parametrize("threads", ["1", "2"])
@given(doc=model_docs())
@settings(max_examples=50, deadline=None)
def test_mutated_model_config_exits_0_2_or_3(scenes, threads, doc):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"MAPASSOC_THREADS": threads}):
        mc = _write(Path(tmp, "mc.json"), doc)
        argv = ["associate", "--method", "mat", "--post", "--model-config", mc,
                "--scenes", scenes, "--out", str(Path(tmp, "p.ndjson"))]
        assert _run(argv) in (0, 2, 3)


# ---------------------------------------------------------------------------
# one owner: no config class checks types by hand


def _post_inits() -> dict:
    """{class name: its __post_init__ FunctionDef} for every config class."""
    out = {}
    for tree in _trees().values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES:
                out[cls.name] = next(
                    (f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"), None
                )
    return out


def _calls(node, name: str) -> list:
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
    ]


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_post_init_checks_fields_first(cls):
    fn = _post_inits()[cls]
    assert fn is not None, f"{cls} has no __post_init__"
    first = fn.body[0]
    assert isinstance(first, ast.Expr) and ast.unparse(first) == "check_fields(self)", (
        f"{cls}.__post_init__ must begin with check_fields(self)"
    )


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_post_init_holds_no_type_check(cls):
    assert not _calls(_post_inits()[cls], "isinstance"), f"{cls}.__post_init__ checks a type by hand"


def test_guard_catches_a_hand_written_type_check():
    src = (
        "class GenConfig:\n"
        "    def __post_init__(self):\n"
        "        if not isinstance(self.seed, int):\n"
        "            raise ValueError\n"
    )
    fn = ast.parse(src).body[0].body[0]
    assert _calls(fn, "isinstance") and ast.unparse(fn.body[0]) != "check_fields(self)"
