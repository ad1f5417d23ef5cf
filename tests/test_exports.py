"""The exported surface: every name resolves; every package export, module
export, method and property is reached; every private module-level name is
used; every dataclass field is read; every module imports only the layers
above it; and the benchmark's layer tracer still finds what it wraps.
Tests alone keep nothing alive.

A stale ``__all__`` entry breaks only ``from gibbslab import *``, which
nothing else in the suite runs, so it is checked here directly.
"""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
import json
import pkgutil
import tokenize
from pathlib import Path

import pytest
import scipy.integrate

import gibbslab
import gibbslab.cli
import gibbslab.evolution
import gibbslab.generators
import gibbslab.models
import gibbslab.weights

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
}

# Module exports that nothing in the package or a benchmark file names.
ALLOWED_UNREACHED_MODULE_EXPORTS = {
    "bohr.decompose": ALLOWED_UNREACHED["decompose"],
    "oft.oft_eval": ALLOWED_UNREACHED["oft_eval"],
    "cli.decode_matrix": "the reader of --export-bundle files, library API",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, (name, missing)


def _home_module(name: str) -> str:
    """The module that defines ``name`` at its top level, ``gibbslab`` for
    the package root; an import is not a definition, so a re-exported name
    is at home where it is defined, whether or not that module exports it."""
    for path in SOURCES.glob("*.py"):
        if name in _definitions(path):
            return "gibbslab" if path.stem == "__init__" else path.stem
    raise AssertionError(f"{name!r} is defined in no package module")


def _name_tokens(path: Path) -> list[str]:
    """The name tokens of a file (no comments, no strings), with ``.`` kept
    so that attribute access can be told apart."""
    with path.open("rb") as handle:
        return [
            tok.string
            for tok in tokenize.tokenize(handle.readline)
            if tok.type == tokenize.NAME or tok.string == "."
        ]


def _name_counts(paths: list[Path]) -> collections.Counter:
    """How often each name token (not in a comment or string) occurs in
    ``paths``."""
    counts = collections.Counter()
    for path in paths:
        counts.update(tok for tok in _name_tokens(path) if tok != ".")
    return counts


def _uses(tokens: list[str], name: str, home: str) -> bool:
    """Whether ``tokens`` use ``name``: bare, or as ``<home>.name`` or
    ``gibbslab.name``; an attribute of any other object, or a ``def`` or
    ``class`` of the same name, is not a use."""
    for k, tok in enumerate(tokens):
        if tok != name:
            continue
        before = tokens[k - 1] if k else ""
        if before == ".":
            if k >= 2 and tokens[k - 2] in (home, "gibbslab"):
                return True
        elif before not in ("def", "class"):
            return True
    return False


def _unreached(names) -> list[str]:
    """The ``names`` that no package module other than their home and no
    benchmark file uses."""
    files = {
        path: path.stem
        for path in SOURCES.glob("*.py")
        if path.stem != "__init__"
    }
    files.update({path: None for path in PERFBENCH.glob("*.py")})
    tokens = {path: _name_tokens(path) for path in files}
    unreached = []
    for name in names:
        home = _home_module(name)
        if not any(
            _uses(tokens[path], name, home) for path, stem in files.items() if stem != home
        ):
            unreached.append(name)
    return unreached


def test_every_package_export_is_reached():
    """A name in ``gibbslab.__all__`` is used by another package module or
    by a benchmark file, or is allow-listed above with its reason."""
    assert sorted(_unreached(gibbslab.__all__)) == sorted(ALLOWED_UNREACHED)


def test_a_name_read_only_in_its_own_module_is_unreached():
    """The uses inside a name's home never count, also when no module's
    ``__all__`` lists it: ``oft._CROSS_CHECK_TOL`` is read in ``oft`` alone,
    so it is reported, and the errors and the version are at home in
    ``errors`` and the package root."""
    assert _unreached(["_CROSS_CHECK_TOL"]) == ["_CROSS_CHECK_TOL"]
    assert _home_module("ValidationError") == "errors"
    assert _home_module("__version__") == "gibbslab"


def _definitions(path: Path) -> list[str]:
    """The functions, classes and constants defined at the top level of a
    module, once per binding."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_every_private_name_is_used():
    """Each private top-level name in ``src/gibbslab`` appears as a name
    token (not in a comment or string) in the package or a benchmark file
    beyond its own definitions; tests alone do not keep code alive."""
    sources = sorted(SOURCES.glob("*.py"))
    tokens = _name_counts(sources + sorted(PERFBENCH.glob("*.py")))
    unused = []
    for path in sources:
        definitions = collections.Counter(_definitions(path))
        unused += [
            f"{path.stem}.{name}"
            for name, count in definitions.items()
            if name.startswith("_") and not name.startswith("__") and tokens[name] <= count
        ]
    assert not unused


def test_every_module_export_is_reached():
    """Each name in a module's ``__all__`` appears as a name token (not in a
    comment or string) in the package or a benchmark file beyond its own
    definitions, or is allow-listed above with its reason.  The re-exports
    of ``gibbslab/__init__.py`` do not count as uses."""
    sources = sorted(path for path in SOURCES.glob("*.py") if path.stem != "__init__")
    tokens = _name_counts(sources + sorted(PERFBENCH.glob("*.py")))
    unreached = []
    for path in sources:
        definitions = collections.Counter(_definitions(path))
        module = importlib.import_module(f"gibbslab.{path.stem}")
        unreached += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if tokens[name] <= definitions[name]
        ]
    assert sorted(unreached) == sorted(ALLOWED_UNREACHED_MODULE_EXPORTS)


def _record_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """The dataclasses and ``NamedTuple`` classes defined in a module."""
    def names(nodes):
        for node in nodes:
            node = node.func if isinstance(node, ast.Call) else node
            yield node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and ("dataclass" in names(node.decorator_list) or "NamedTuple" in names(node.bases))
    ]


def _attributes_read() -> set[str]:
    """The attribute names loaded (an ``ast.Attribute`` in load context, or
    ``getattr`` with a constant name) anywhere in the package or a benchmark
    file."""
    read = set()
    for path in sorted(SOURCES.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return read


def test_every_dataclass_field_is_read():
    """Each field of a dataclass or ``NamedTuple`` in ``src/gibbslab`` is
    loaded as an attribute, or through ``getattr`` with a constant name,
    somewhere in the package or a benchmark file; a field that is written
    on every build and never read is dead state, and tests alone do not
    keep it alive."""
    read = _attributes_read()
    unread = [
        f"{cls.name}.{item.target.id}"
        for path in sorted(SOURCES.glob("*.py"))
        for cls in _record_classes(ast.parse(path.read_text(encoding="utf-8")))
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    ]
    assert not unread


def test_every_method_and_property_is_reached():
    """Each method or property (dunders aside) of a class in
    ``src/gibbslab`` is loaded as an attribute, or through ``getattr`` with
    a constant name, somewhere in the package or a benchmark file; tests
    alone do not keep it alive.  Names are matched, not owners, so a
    generic name such as ``dim`` or ``size`` passes when an attribute of
    that name is read on any object."""
    read = _attributes_read()
    unreached = [
        f"{path.stem}.{cls.name}.{item.name}"
        for path in sorted(SOURCES.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read
    ]
    assert not unreached


def test_every_keyword_only_parameter_is_passed():
    """Each keyword-only parameter of a public top-level function in
    ``src/gibbslab`` is passed by name in some call in the package or a
    benchmark file; a setting that no caller sets is dead surface."""
    passed = set()
    for path in sorted(SOURCES.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((callee, kw.arg) for kw in node.keywords if kw.arg)
    unpassed = [
        f"{path.stem}.{node.name}({arg.arg}=)"
        for path in sorted(SOURCES.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
        if (node.name, arg.arg) not in passed
    ]
    assert not unpassed


def test_each_module_imports_only_the_layers_above_it():
    """Each ``from .x import`` of a module, at any depth, names a module
    listed above it in the package docstring's layering.  The one exception
    is evolution's ``TYPE_CHECKING`` import of generators, which the
    docstring names; cli's ``from . import __version__`` reads the package
    itself."""
    layering = gibbslab.__doc__.split("Layering")[1].splitlines()
    order = [line.split()[0] for line in layering if " -- " in line]
    modules = sorted(path for path in SOURCES.glob("*.py") if path.stem != "__init__")
    assert sorted(order) == [path.stem for path in modules]
    upward = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        type_checking = {
            id(node)
            for block in ast.walk(tree)
            if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
            for node in ast.walk(block)
        }
        upward += [
            (path.stem, node.module, id(node) in type_checking)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            and order.index(node.module) >= order.index(path.stem)
        ]
    assert upward == [("evolution", "generators", True)]


@pytest.fixture(scope="module")
def tracing():
    """``perfbench/tracing.py``, imported from its file as ``run.py`` imports it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_names_only_functions_that_exist(tracing):
    """``perfbench/run.py --trace 1`` wraps each function ``_layer_functions``
    lists, and ``expm`` by its name in ``gibbslab.evolution``: deleting or
    renaming one fails here, in the suite, not in the benchmark."""
    layers = tracing._layer_functions()
    assert layers
    for fn, name in layers:
        assert callable(fn)
        assert callable(name) or isinstance(name, str)
    assert callable(gibbslab.evolution.expm)


def test_layer_tracer_finds_every_function_it_wraps(tmp_path, tracing):
    """An installed tracer records a fresh evolution's spans; a one-rung
    sweep's single Bohr clustering (made by the model's frame), two builds
    and one time-kernel mass; and a selftest's three model builds; and puts
    every original back when it is removed."""
    modules = [importlib.import_module(name) for name in MODULES] + [scipy.integrate]
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    with tracer.installed():
        model = gibbslab.models.qubit_model()
        weight = gibbslab.weights.balanced_gamma("gaussian", 1.0)
        bundle = gibbslab.generators.localised_generator(model, weight, 1.0)
        state = gibbslab.evolution.random_density_matrix(2, seed=0)
        gibbslab.evolution.evolve(bundle, state, (0.0, 1.0))
    names = {span[0] for span in tracer.spans}
    assert {"evolution.evolve", "evolution.expm"} <= names

    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"model": {"name": "line", "n_grid": 16},
                                  "run": {"sigma_sweep": [0.5]}}))
    sweep = tracing.Tracer()
    with sweep.installed():
        code = gibbslab.cli.main(["sweep-sigma", "--config", str(config),
                                  "--report", str(tmp_path / "r.json"),
                                  "--out", str(tmp_path / "rows.csv")])
    assert code == 0
    counts = collections.Counter(span[0] for span in sweep.spans)
    assert counts["bohr.spectrum"] == 1
    assert counts["generators.assembly"] == 2
    assert counts["weights.time_domain"] == 1

    selftest = tracing.Tracer()
    with selftest.installed():
        code = gibbslab.cli.main(["selftest", "--report", str(tmp_path / "selftest.json")])
    assert code == 0
    counts = collections.Counter(span[0] for span in selftest.spans)
    assert counts["models.build"] == 3
    for module, attributes in zip(modules, before):
        moved = [key for key, value in attributes.items() if vars(module).get(key) is not value]
        assert not moved, (module.__name__, moved)
