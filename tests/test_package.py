"""The package's public names and its imports.

`__all__` of `mapassoc` and `mapassoc.mat` lists every public name in the
package namespace that is not a submodule, and nothing else. No module under
`src/mapassoc` imports a name it never uses: a name in the module's `__all__`
is a re-export, and an import kept only as a module attribute (one that a
tool patches) is marked `# noqa: F401` followed by the reason. The names
README lists as gone (the training losses, `init_token`, `AssocMatrix.row`)
stay gone.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mapassoc
import mapassoc.assocmatrix
import mapassoc.decoder
import mapassoc.mat

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mapassoc"

# a noqa mark counts only with a reason after it
KEPT = re.compile(r"#\s*noqa:\s*F401\s+\S")


def _exported(tree: ast.Module) -> set:
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each name `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(KEPT.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                out.append(f"line {node.lineno}: {name}")
    return out


@pytest.mark.parametrize("package", [mapassoc, mapassoc.mat], ids=lambda m: m.__name__)
def test_all_lists_every_public_name(package):
    public = {
        name for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public - set(package.__all__)) == []
    assert sorted(set(package.__all__) - public) == []


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix()
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from .io import kept  # noqa: F401  a tool patches it\n"
        "from .geometry import exported, used, unused\n"
        "import numpy.linalg\n"
        "__all__ = ['exported']\n"
        "print(used, numpy)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: json", "line 5: unused"]


def test_importing_the_cli_does_not_load_scipy():
    # scipy is imported only where the transformer's GELU runs
    src = str(SRC.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    code = "import sys, mapassoc.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_attribute_the_bench_tracer_patches_resolves():
    # bench/tracer.py wraps module attributes by name, and a missing one raises
    # AttributeError: install every patch, then put the originals back
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._patched)
        assert patched
        assert all(getattr(owner, leaf).__wrapped__ is original for owner, leaf, original in patched)
    finally:
        t.restore()
    assert all(getattr(owner, leaf) is original for owner, leaf, original in patched)


# The training losses are not part of the toolkit; README lists these names as gone.
LOSS_NAMES = ("collapse_repeats", "with_blank", "ctc_log_likelihood", "ctc_loss", "path_targets", "compute_loss")


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_the_training_losses_are_not_exported(name):
    for package in (mapassoc, mapassoc.mat):
        assert not hasattr(package, name)
        assert name not in package.__all__


def test_the_loss_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("mapassoc.mat.loss")


@pytest.mark.parametrize("owner, name", [
    (mapassoc.decoder, "init_token"),
    (mapassoc.assocmatrix.AssocMatrix, "row"),
], ids=["decoder.init_token", "AssocMatrix.row"])
def test_the_unused_row_readers_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in mapassoc.__all__
