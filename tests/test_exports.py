"""The exported surface: every name resolves, every package export is
reached, every private module-level name is used, and the benchmark's layer
tracer still finds what it wraps.

A stale ``__all__`` entry breaks only ``from gibbslab import *``, which
nothing else in the suite runs, so it is checked here directly.
"""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import gibbslab

MODULES = ["gibbslab"] + [
    f"gibbslab.{info.name}" for info in pkgutil.iter_modules(gibbslab.__path__)
]

REPO = Path(__file__).resolve().parent.parent
SOURCES = Path(gibbslab.__file__).resolve().parent
PERFBENCH = REPO / "perfbench"

# Package exports that no other module and no benchmark file names, each
# with the reason it stays exported.
ALLOWED_UNREACHED = {
    "decompose": "the paper's Bohr decomposition primitive, library API",
    "oft_eval": "the paper's filtered jump operator, library API",
    "FILTER_SQUARED_MASS": "the factor pi that delocalised_limit_gamma carries",
    "PHI_LIBRARY": "the profile names that weight.phi_name accepts",
    "resolve_phi": "turns a profile name or callable into the profile every weight function reads",
    "generator_action": "the superoperator action GeneratorBundle.apply runs",
    "Trajectory": "return type of evolve",
    "choi_matrix": "the reshuffle that every choi_* function reads",
    "named_potential": "the potential key of a line model config",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, (name, missing)


def _home_module(name: str) -> str | None:
    for info in pkgutil.iter_modules(gibbslab.__path__):
        module = importlib.import_module(f"gibbslab.{info.name}")
        if name in getattr(module, "__all__", ()):
            return info.name
    return None


def test_every_package_export_is_reached():
    """A name in ``gibbslab.__all__`` is named by another package module or
    by a benchmark file, or is allow-listed above with its reason."""
    texts = {
        path.stem: path.read_text(encoding="utf-8")
        for path in SOURCES.glob("*.py")
        if path.stem != "__init__"
    }
    bench = "".join(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))
    unreached = []
    for name in gibbslab.__all__:
        home = _home_module(name)
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        users = [stem for stem, text in texts.items() if stem != home and pattern.search(text)]
        if not users and not pattern.search(bench):
            unreached.append(name)
    assert sorted(unreached) == sorted(ALLOWED_UNREACHED)


def _private_definitions(path: Path) -> list[str]:
    """Private (single-underscore) functions, classes and constants defined
    at the top level of a module, once per binding."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_used():
    """Each private top-level name in ``src/gibbslab`` appears as a name
    token (not in a comment or string) in the package or a benchmark file
    beyond its own definitions; tests alone do not keep code alive."""
    sources = sorted(SOURCES.glob("*.py"))
    tokens = collections.Counter()
    for path in sources + sorted(PERFBENCH.glob("*.py")):
        with path.open("rb") as handle:
            tokens.update(
                tok.string
                for tok in tokenize.tokenize(handle.readline)
                if tok.type == tokenize.NAME
            )
    unused = []
    for path in sources:
        definitions = collections.Counter(_private_definitions(path))
        unused += [
            f"{path.stem}.{name}"
            for name, count in definitions.items()
            if tokens[name] <= count
        ]
    assert not unused


def test_layer_tracer_finds_every_function_it_wraps():
    """``perfbench/run.py --trace`` wraps these names; a removed or renamed
    one would fail there, not in the suite."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = tracing._layer_functions()
    assert layers
    for fn, name in layers:
        assert callable(fn)
        assert callable(name) or isinstance(name, str)
