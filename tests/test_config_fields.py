"""Every field of a config dataclass is read somewhere outside its own class.

A field nothing reads is a setting that changes nothing: a config file can
set it and get no effect and no warning. The scan matches attribute names,
not types, so a same-named attribute of another object can hide a dead
field, but a field it reports is never read.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mapassoc"

CONFIG_CLASSES = (
    "ModelConfig", "StageSpec", "DecoderConfig",
    "MetricConfig", "GenConfig", "PerturbConfig", "AugConfig",
)


@lru_cache(maxsize=None)
def _trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}


def _attribute_reads(node) -> Counter:
    """How often each name is read as `x.name` under `node`."""
    return Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def unread_fields(trees: dict) -> dict:
    """{class name: fields never read outside the class} for each config class in `trees`."""
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    out = {}
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES:
                outside = reads - _attribute_reads(cls)
                out[cls.name] = [
                    stmt.target.id for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and not outside[stmt.target.id]
                ]
    return out


def test_every_config_class_is_found():
    assert sorted(unread_fields(_trees())) == sorted(CONFIG_CLASSES)


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_no_config_field_is_dead(cls):
    assert unread_fields(_trees())[cls] == []


def test_a_dead_field_is_caught():
    trees = dict(_trees())
    config = SRC / "mat" / "config.py"
    text = config.read_text(encoding="utf-8").replace(
        "    grid_R: int = field(default=DEFAULT_GRID_R, metadata=at_least(1))\n",
        "    grid_R: int = field(default=DEFAULT_GRID_R, metadata=at_least(1))\n    alpha: float = 1.0\n",
        1,
    )
    assert text != config.read_text(encoding="utf-8")
    trees[config] = ast.parse(text)
    assert unread_fields(trees)["ModelConfig"] == ["alpha"]
