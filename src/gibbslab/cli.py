"""Command-line laboratory: configs, check reports, and file formats.

Four subcommands drive the library:

``verify-stationarity``
    Assemble the configured generator and run its invariant checks
    (stationarity on the Gibbs density, trace functional, hermiticity
    preservation, drift dissipativity, dual-path agreement).

``sweep-sigma``
    Assemble the filtered generator across a decreasing bandwidth ladder
    and tabulate the distance to the unfiltered limit, the coherent-term
    norm, the time-kernel mass, and the stationarity residual.

``evolve``
    Propagate an initial state and tabulate per-snapshot health columns.

``selftest``
    Run a fixed battery of cross-checks, including a deliberate fault
    injection that must be caught.

Conventions shared by all commands: configs are JSON with a
``schema_version`` and unknown keys rejected at every level; reports echo
the fully normalised config, the seed it ran with included, so a run can
be reproduced from its own output; every check line carries a ``margin``,
the share of its tolerance the value uses, and passes exactly when that
margin is a number no greater than 1; CSV artifacts carry ``#``-prefixed
metadata lines, 17-significant-digit floats, LF line endings, and no
timestamps, so identical inputs produce identical bytes (modulo the
version metadata line).  Exit codes:
0 all checks passed, 1 at least one check failed, 2 usage or config
error (a config file that is not UTF-8 text or nests too deeply to read,
a section that is not a JSON object, a value that is not a number
where one belongs, a negative seed, or an output, report or export path
that cannot be written, included), 4 a numerical guard fired (an
overlap table disagreed with its batched Gauss-Legendre cross-check, that
quadrature failed, a step exponential of an evolution was not finite, or
a model's generator and jumps would not fit in the host's physical
memory),
5 the program crashed (any other exception; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np
import scipy

from . import __version__
from .errors import NumericalGuardError, ValidationError
from .evolution import (
    CHOI_MAX_DIM,
    _time_grid,
    choi_min_eigenvalue,
    contraction_report,
    evolve,
    random_density_matrix,
    semigroup_defect,
)
from .generators import (
    GeneratorBundle,
    _require_assembly_path,
    coherent_calibration_report,
    davies_generator,
    davies_limit_report,
    dual_path_residual,
    effective_drift_abscissa,
    hermiticity_preservation_defect,
    localised_generator,
    stationarity_report,
    trace_functional_defect,
)
from .models import (
    Model,
    config_number,
    model_from_config,
    oscillator_model,
    qubit_model,
    random_model,
)
from .weights import (
    COHERENT_L1_LIMIT,
    _require_table_bandwidth,
    balanced_gamma,
    coherent_time_kernel_l1,
    kms_gamma,
    resolve_phi,
    unshifted_gamma,
)

__all__ = [
    "EXIT_CHECK_FAILURE",
    "EXIT_CRASH",
    "EXIT_NUMERICAL_GUARD",
    "EXIT_OK",
    "EXIT_USAGE",
    "SCHEMA_VERSION",
    "build_generator",
    "decode_matrix",
    "export_bundle",
    "format_float",
    "main",
    "normalised_config",
    "render_csv",
    "render_report",
]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL_GUARD = 4
EXIT_CRASH = 5

# Weight kind -> the generator family it feeds: the filtered weights the
# localised generator, the detailed-balance weights the unfiltered one.
_WEIGHT_FAMILIES = {
    "balanced": "localised",
    "unshifted": "localised",
    "glauber": "davies",
    "metropolis": "davies",
}
_GENERATOR_KINDS = ("davies", "localised")
_OUTPUT_FORMATS = ("csv", "json")
_INITIAL_STATES = ("excited", "ground", "gibbs", "maximally_mixed", "random")

_DEFAULT_TIMES = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
_DEFAULT_SWEEP = (1.0, 0.5, 0.25, 0.125)

_DEFAULT_TOLERANCES = {
    "stationarity": 1e-9,
    "davies_stationarity": 1e-12,
    "negative_control": 1e-4,
    "trace_functional": 1e-12,
    "hermiticity_preservation": 1e-12,
    "drift_abscissa": 1e-10,
    "dual_path": 1e-8,
    "final_gibbs_distance": 1e-6,
    "trace_deviation": 1e-10,
    "min_eigenvalue": 1e-9,
    "choi_min_eigenvalue": 1e-8,
}


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------


def _reject_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(
            f"unknown keys in {context}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _as_positive_float(value, context: str) -> float:
    x = config_number(value, context)
    if x <= 0.0:
        raise ValidationError(f"{context} must be positive, got {x!r}")
    return x


def _as_bandwidth(value, context: str) -> float:
    return _require_table_bandwidth(config_number(value, context), context)


def _as_seed(value, context: str) -> int:
    """A seed: ``np.random.default_rng`` takes non-negative integers only."""
    seed = config_number(value, context, int)
    if seed < 0:
        raise ValidationError(f"{context} must be a non-negative integer, got {value!r}")
    return seed


def _section(mapping: dict, key: str, context: str) -> dict:
    """A copy of the object ``mapping[key]``: empty when the key is missing
    or ``null``; any other value that is not an object is rejected."""
    value = mapping.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{context} must be a JSON object, got {value!r}")
    return dict(value)


def _run_list(run: dict, key: str, default, read) -> list:
    """The entries of the list ``run[key]`` (``default`` when the key is
    missing), each read by ``read(entry, context)``."""
    values = run.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"run.{key} must be a list, got {values!r}")
    return [read(v, f"run.{key} entry") for v in values]


def normalised_config(config: dict | None, command: str) -> dict:
    """Validate a config mapping and fill defaults; idempotent.

    Unknown keys anywhere in the tree are rejected, ``schema_version`` must
    match, every section is an object (a missing or ``null`` one is its
    defaults), and all tolerances must be positive; ``model`` need only be
    an object with a string ``name``, as the command's one model build
    validates the rest.  The returned mapping is plain JSON data (no arrays,
    no callables) and normalising it again returns an equal mapping.
    """
    cfg = _section({"config": config}, "config", "config")
    _reject_unknown(
        cfg, {"schema_version", "model", "weight", "generator", "run", "output"}, "config"
    )
    version = cfg.get("schema_version", SCHEMA_VERSION)
    # Compared as an integer: ``true == 1`` and ``1.0 == 1`` in Python, but
    # neither is a schema version, as a boolean is nowhere read as a number.
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )

    model = {"name": "qubit"} if cfg.get("model") is None else _section(cfg, "model", "model")
    if not isinstance(model.get("name"), str):
        raise ValidationError(f"model must have a string 'name', got {model!r}")

    weight = _section(cfg, "weight", "weight")
    _reject_unknown(weight, {"kind", "phi_name", "sigma"}, "weight")
    weight.setdefault("kind", "balanced")
    if weight["kind"] not in _WEIGHT_FAMILIES:
        raise ValidationError(
            f"unknown weight kind {weight['kind']!r}; known: {list(_WEIGHT_FAMILIES)}"
        )
    family = _WEIGHT_FAMILIES[weight["kind"]]
    if family == "localised":
        resolve_phi(weight.setdefault("phi_name", "gaussian"))
        weight["sigma"] = _as_bandwidth(weight.get("sigma", 1.0), "weight.sigma")
    else:
        for key in ("phi_name", "sigma"):
            if key in weight:
                raise ValidationError(
                    f"weight.{key} is only meaningful for filtered weights, "
                    f"not {weight['kind']!r}"
                )

    generator = _section(cfg, "generator", "generator")
    _reject_unknown(generator, {"kind", "path"}, "generator")
    generator.setdefault("kind", family)
    if generator["kind"] not in _GENERATOR_KINDS:
        raise ValidationError(
            f"unknown generator kind {generator['kind']!r}; known: {list(_GENERATOR_KINDS)}"
        )
    if generator["kind"] == "localised":
        _require_assembly_path(generator.setdefault("path", "bohr_sum"))
    elif "path" in generator:
        raise ValidationError("generator.path applies to the filtered family only")
    if family != generator["kind"]:
        needs = (
            "filtered generator needs a filtered"
            if generator["kind"] == "localised"
            else "unfiltered generator needs a detailed-balance"
        )
        kinds = " or ".join(repr(k) for k, f in _WEIGHT_FAMILIES.items() if f == generator["kind"])
        raise ValidationError(f"the {needs} weight (kind {kinds})")

    run = _section(cfg, "run", "run")
    _reject_unknown(
        run, {"times", "sigma_sweep", "seeds", "tolerances", "initial_state"}, "run"
    )
    if command == "evolve" or "times" in run:
        run["times"] = _run_list(run, "times", _DEFAULT_TIMES, config_number)
        _time_grid(run["times"], "run.times")
    if command == "sweep-sigma" or "sigma_sweep" in run:
        sweep = _run_list(run, "sigma_sweep", _DEFAULT_SWEEP, _as_bandwidth)
        if not sweep or any(b >= a for a, b in zip(sweep[:-1], sweep[1:])):
            raise ValidationError("run.sigma_sweep must be non-empty, strictly decreasing")
        run["sigma_sweep"] = sweep
    run["seeds"] = _run_list(run, "seeds", [2024], _as_seed)
    if len(run["seeds"]) != 1:
        raise ValidationError(
            "run.seeds must be a list of exactly one integer; every command reads one seed"
        )
    tolerances = _section(run, "tolerances", "run.tolerances")
    _reject_unknown(tolerances, set(_DEFAULT_TOLERANCES), "run.tolerances")
    for key, value in tolerances.items():
        tolerances[key] = _as_positive_float(value, f"run.tolerances.{key}")
    run["tolerances"] = tolerances
    initial = run.get("initial_state", "excited")
    if initial not in _INITIAL_STATES:
        raise ValidationError(
            f"unknown run.initial_state {initial!r}; known: {list(_INITIAL_STATES)}"
        )
    run["initial_state"] = initial

    output = _section(cfg, "output", "output")
    _reject_unknown(output, {"format", "path"}, "output")
    if not isinstance(output.get("path", ""), (str, type(None))):
        raise ValidationError(f"output.path must be a string, got {output['path']!r}")
    output.setdefault("format", "csv")
    if output["format"] not in _OUTPUT_FORMATS:
        raise ValidationError(
            f"unknown output format {output['format']!r}; known: {list(_OUTPUT_FORMATS)}"
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "weight": weight,
        "generator": generator,
        "run": run,
        "output": output,
    }


def _tolerances(config: dict) -> dict:
    """Every tolerance of a normalised config: its own, else the default."""
    return {**_DEFAULT_TOLERANCES, **config["run"]["tolerances"]}


def build_weight(config: dict):
    """Weight function described by a normalised config."""
    w = config["weight"]
    if _WEIGHT_FAMILIES[w["kind"]] == "davies":
        return kms_gamma(w["kind"])
    if w["kind"] == "unshifted":
        return unshifted_gamma(w["phi_name"], w["sigma"])
    return balanced_gamma(w["phi_name"], w["sigma"])


def build_generator(config: dict, model: Model | None = None) -> GeneratorBundle:
    """Assemble the generator described by a normalised config, on ``model``
    when it is given (the config's model, already built)."""
    if model is None:
        model = model_from_config(config["model"])
    weight = build_weight(config)
    if config["generator"]["kind"] == "davies":
        return davies_generator(model, weight)
    return localised_generator(
        model, weight, config["weight"]["sigma"], path=config["generator"]["path"]
    )


# ---------------------------------------------------------------------------
# Checks and reports
# ---------------------------------------------------------------------------


def _check(name: str, value: float, tolerance: float, mode: str) -> dict:
    """One pass/fail line.  Modes: ``upper`` passes when value <= tolerance,
    ``lower`` when value >= tolerance, ``floor`` when value >= -tolerance.

    Its ``margin`` is the share of the tolerance the value uses:
    value / tolerance (upper), -value / tolerance (floor) or tolerance /
    value (lower; ``None`` when the value is not positive), a ratio past
    the largest double reading as that double.  Division rounds
    monotonically, and the quotient of two doubles rounds to 1 only when
    they are equal, so the line passes exactly when its margin is a number
    no greater than 1; ``1 / margin`` is the factor by which the tolerance
    could shrink before the line failed.
    """
    value, tolerance = float(value), float(tolerance)
    if mode == "lower":
        margin = tolerance / value if value > 0.0 else None
    else:
        margin = (value if mode == "upper" else -value) / tolerance
    if margin is not None and math.isinf(margin):
        margin = math.copysign(sys.float_info.max, margin)
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "mode": mode,
        "margin": margin,
        "pass": margin is not None and margin <= 1.0,
    }


# The checks of an assembled generator, each once: name -> (measure, tolerance
# key, mode), where ``measure(bundle, seed)`` is the checked value.  The
# measures look their functions up in this module when they run, so wrappers
# installed on its attributes (the benchmark's layer tracer) see every call.
_BUNDLE_CHECKS = {
    "stationarity_residual": (
        lambda bundle, seed: stationarity_report(bundle), "stationarity", "upper"
    ),
    "negative_control_residual": (
        lambda bundle, seed: stationarity_report(bundle), "negative_control", "lower"
    ),
    "trace_functional": (
        lambda bundle, seed: trace_functional_defect(bundle), "trace_functional", "upper"
    ),
    "hermiticity_preservation": (
        lambda bundle, seed: hermiticity_preservation_defect(bundle, seed=seed),
        "hermiticity_preservation",
        "upper",
    ),
    "drift_abscissa": (
        lambda bundle, seed: effective_drift_abscissa(bundle), "drift_abscissa", "upper"
    ),
    "dual_path": (lambda bundle, seed: dual_path_residual(bundle), "dual_path", "upper"),
}


def _bundle_check(
    name: str, bundle: GeneratorBundle, seed: int, tolerances: dict, label: str | None = None
) -> dict:
    """The table's check ``name`` on ``bundle``, reported as ``label``
    (default ``name``).  The unfiltered generator is exact, so its
    stationarity is held to ``davies_stationarity`` instead."""
    measure, key, mode = _BUNDLE_CHECKS[name]
    if key == "stationarity" and bundle.kind == "davies":
        key = "davies_stationarity"
    return _check(label or name, measure(bundle, seed), tolerances[key], mode)


def _environment(seed: int) -> dict:
    """Versions, the seed and the BLAS thread settings the process sees
    (``null`` when unset): the thread count can move the last bits of
    LAPACK results such as ``overlap_min_eigenvalue``."""
    return {
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "seed": int(seed),
    }


def render_report(report: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, LF."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def format_float(x: float) -> str:
    """17 significant digits: round-trips every IEEE double exactly."""
    return f"{float(x):.17g}"


def render_csv(columns: list[str], rows: list[list], metadata: dict) -> str:
    """CSV with ``#`` metadata lines, 17-digit floats, LF endings.

    Identical inputs render identical bytes; the only line that changes
    between package versions is the version metadata line.
    """
    lines = [f"# gibbslab_version={__version__}"]
    for key in sorted(metadata):
        lines.append(f"# {key}={metadata[key]}")
    lines.append(",".join(columns))
    for row in rows:
        cells = [
            format_float(cell) if isinstance(cell, float) else str(cell) for cell in row
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc


def _data_artifact(columns: list[str], rows: list[list], metadata: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(columns, rows, metadata)
    return render_report(
        {"metadata": dict(metadata), "columns": columns, "rows": rows}
    )


# ---------------------------------------------------------------------------
# Bundle export
# ---------------------------------------------------------------------------


def _encode_matrix(matrix: np.ndarray, data: str) -> tuple[dict, str]:
    """A matrix payload whose ``data`` field holds the placeholder string
    ``data``, and the base64 text that replaces it."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    header = {"dtype": "complex128", "shape": list(m.shape), "order": "C", "data": data}
    return header, base64.b64encode(m.tobytes()).decode("ascii")


def decode_matrix(payload: dict) -> np.ndarray:
    """Inverse of the bundle matrix encoding."""
    if payload.get("dtype") != "complex128" or payload.get("order") != "C":
        raise ValidationError(f"unsupported matrix payload header: {payload.keys()}")
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype=np.complex128).reshape(payload["shape"]).copy()


def _scalar_diagnostics(bundle: GeneratorBundle) -> dict:
    """The bundle's diagnostics that are JSON scalars."""
    return {
        k: v for k, v in bundle.diagnostics.items() if isinstance(v, (int, float, bool, str))
    }


def export_bundle(bundle: GeneratorBundle, path: str) -> None:
    """Serialise an assembled generator to JSON (metadata + matrix payloads)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": bundle.kind,
        "assembly_path": bundle.assembly_path,
        "model_id": bundle.model.model_id,
        "dim": bundle.dim,
        "sigma": bundle.weight.sigma,
        "weight": {
            "kind": bundle.weight.kind,
            "phi_name": bundle.weight.phi_name,
            "sigma": bundle.weight.sigma,
        },
        "matrices": {},
        "diagnostics": _scalar_diagnostics(bundle),
    }
    payloads = {}
    for name, matrix in (
        ("hamiltonian", bundle.model.hamiltonian),
        ("coherent_matrix", bundle.coherent_matrix),
        ("superoperator", bundle.superoperator),
    ):
        doc["matrices"][name], payloads[name] = _encode_matrix(matrix, name)
    # Base64 needs no JSON escaping, so each payload is spliced in place of
    # its placeholder rather than run through the escaper.  Keys are sorted,
    # so past the top-level "matrices" key the placeholders follow in name
    # order, each the first "data" value after the one before it.
    head, key, tail = render_report(doc).partition('\n  "matrices": {')
    parts = [head, key]
    for name in sorted(payloads):
        before, _, tail = tail.partition(f'"data": "{name}"')
        parts += [before, '"data": "', payloads[name], '"']
    parts.append(tail)
    _write_text(path, "".join(parts))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _timing(started: float, stages: dict | None) -> dict:
    """The report's non-deterministic ``timing`` section."""
    timing = {"elapsed_seconds": round(time.perf_counter() - started, 6)}
    if stages:
        timing["stages"] = {k: round(v, 6) for k, v in stages.items()}
    return timing


def _finish(args, config: dict | None, seed: int, started: float, result: tuple) -> int:
    """Write a command's ``result`` and return its exit code.

    ``result`` is ``(checks, data, stages, artifact)``: the check lines, the
    report's ``data`` section, the timed stages, and the data table's text
    (``None`` for a command without one).  The artifact goes to ``--out``,
    else ``output.path``, else stdout, before the report goes to
    ``--report``.
    """
    checks, data, stages, artifact = result
    if artifact is not None:
        _write_text(args.out or config["output"].get("path"), artifact)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
        "environment": _environment(seed),
        "timing": _timing(started, stages),
    }
    if data:
        report["data"] = data
    _write_text(args.report, render_report(report))
    return EXIT_OK if report["overall_pass"] else EXIT_CHECK_FAILURE


def _model_with_frame(config: dict) -> tuple[Model, dict]:
    """The config's model with its spectral frame (eigensystem, Bohr
    clustering, eigenbasis jumps) computed, and ``{"frame_s": seconds}``
    spent on the frame."""
    model = model_from_config(config["model"])
    mark = time.perf_counter()
    model.frame
    return model, {"frame_s": time.perf_counter() - mark}


def _framed_generator(config: dict) -> tuple[GeneratorBundle, dict]:
    """The config's generator, built once its model's frame is computed, and
    the stages ``frame_s`` and ``build_s`` (the rest of the build)."""
    mark = time.perf_counter()
    model, stages = _model_with_frame(config)
    bundle = build_generator(config, model)
    stages["build_s"] = time.perf_counter() - mark - stages["frame_s"]
    return bundle, stages


def cmd_verify_stationarity(config: dict, args, seed: int) -> tuple:
    """Invariant battery for one configured generator."""
    if args.negative_control:
        if config["generator"]["kind"] != "localised":
            raise ValidationError("--negative-control applies to the filtered generator only")
        # Written into the config, which the report echoes.
        config["weight"]["kind"] = "unshifted"

    # The checks follow from the config alone, so a bad --check name is
    # rejected before the build.  The unshifted control is not Gibbs-
    # stationary: it must fail stationarity, and it has no dual path.
    unshifted = config["weight"]["kind"] == "unshifted"
    skipped = {"stationarity_residual" if unshifted else "negative_control_residual"}
    if unshifted or config["generator"]["kind"] == "davies":
        skipped.add("dual_path")
    available = [name for name in _BUNDLE_CHECKS if name not in skipped]
    if args.check is not None and args.check not in available:
        raise ValidationError(f"unknown check {args.check!r}; available: {sorted(available)}")
    names = available if args.check is None else [args.check]

    bundle, stages = _framed_generator(config)
    tolerances = _tolerances(config)
    checks = []
    for name in names:
        mark = time.perf_counter()
        checks.append(_bundle_check(name, bundle, seed, tolerances))
        stages[f"{name}_s"] = time.perf_counter() - mark

    if args.export_bundle:
        # The export reads the original-basis superoperator: its one rotation
        # is timed here.
        mark = time.perf_counter()
        export_bundle(bundle, args.export_bundle)
        stages["export_bundle_s"] = time.perf_counter() - mark

    data = {
        "model_id": bundle.model.model_id,
        "generator_kind": bundle.kind,
        "diagnostics": _scalar_diagnostics(bundle),
    }
    return checks, data, stages, None


def _monotone_flags(rows: list[dict]) -> dict:
    """Directional health flags for a bandwidth ladder (>= 2 points)."""
    dist = [r["davies_distance_p1"] for r in rows]
    norm = [r["coherent_norm_B"] for r in rows]
    mass = [r["b1_l1"] for r in rows]
    non_increasing = lambda xs: all(b <= a * (1 + 1e-12) + 1e-300 for a, b in zip(xs[:-1], xs[1:]))
    non_decreasing = lambda xs: all(b >= a * (1 - 1e-12) - 1e-300 for a, b in zip(xs[:-1], xs[1:]))
    return {
        "davies_distance_p1_nonincreasing": bool(non_increasing(dist)),
        "coherent_norm_B_nonincreasing": bool(non_increasing(norm)),
        "b1_l1_nondecreasing": bool(non_decreasing(mass)),
    }


def cmd_sweep_sigma(config: dict, args, seed: int) -> tuple:
    """Bandwidth ladder: distance to the unfiltered limit per sigma."""
    if config["generator"]["kind"] != "localised":
        raise ValidationError("sweep-sigma applies to the filtered generator only")
    if config["weight"]["kind"] != "balanced":
        raise ValidationError("sweep-sigma requires the balanced weight")
    model, stages = _model_with_frame(config)
    sigmas = config["run"]["sigma_sweep"]
    phi = config["weight"]["phi_name"]

    mark = time.perf_counter()
    rows = davies_limit_report(model, phi, sigmas, seed=seed)["rows"]
    stages["ladder_s"] = time.perf_counter() - mark
    columns = ["sigma", "davies_distance_p1", "coherent_norm_B", "b1_l1", "stationarity_residual"]
    flags = _monotone_flags(rows) if len(rows) >= 2 else {}
    metadata = {
        "command": "sweep-sigma",
        "model": model.model_id,
        "phi_name": phi,
        "seed": seed,
        **{f"flag_{k}": str(v).lower() for k, v in sorted(flags.items())},
    }
    table = [[r[c] for c in columns] for r in rows]
    artifact = _data_artifact(columns, table, metadata, config["output"]["format"])
    checks = [
        _check(
            "stationarity_residual_max",
            max(r["stationarity_residual"] for r in rows),
            _tolerances(config)["stationarity"],
            "upper",
        )
    ]
    return checks, {"rows": rows, "flags": flags}, stages, artifact


def _initial_state(kind: str, bundle: GeneratorBundle, seed: int) -> np.ndarray:
    """The named initial state, from the bundle's eigensystem and cached
    Gibbs density."""
    system = bundle.system
    d = bundle.dim
    if kind == "excited":
        v = system.eigenvectors[:, -1]
        return np.outer(v, v.conj())
    if kind == "ground":
        v = system.eigenvectors[:, 0]
        return np.outer(v, v.conj())
    if kind == "gibbs":
        return bundle.gibbs_state
    if kind == "maximally_mixed":
        return np.eye(d, dtype=np.complex128) / d
    return random_density_matrix(d, seed=seed)


def cmd_evolve(config: dict, args, seed: int) -> tuple:
    """Propagate a state and tabulate per-snapshot health columns."""
    bundle, stages = _framed_generator(config)
    times = config["run"]["times"]
    rho0 = _initial_state(config["run"]["initial_state"], bundle, seed)
    mark = time.perf_counter()
    trajectory = evolve(bundle, rho0, times)
    stages["evolve_s"] = time.perf_counter() - mark

    diag = trajectory.diagnostics
    columns = ["t", "trace", "min_eig", "gibbs_distance"]
    traces = [float(np.trace(state).real) for state in trajectory.states]
    rows = zip(trajectory.times.tolist(), traces, diag["min_eigenvalue"], diag["gibbs_distance"])
    table = [list(row) for row in rows]
    metadata = {
        "command": "evolve",
        "model": bundle.model.model_id,
        "generator": bundle.kind,
        "initial_state": config["run"]["initial_state"],
        "seed": seed,
    }
    artifact = _data_artifact(columns, table, metadata, config["output"]["format"])
    tolerances = _tolerances(config)
    checks = [
        _check(
            "trace_deviation_max",
            max(diag["trace_deviation"]),
            tolerances["trace_deviation"],
            "upper",
        ),
        _check(
            "min_eigenvalue_worst",
            min(diag["min_eigenvalue"]),
            tolerances["min_eigenvalue"],
            "floor",
        ),
        _check(
            "final_gibbs_distance",
            diag["gibbs_distance"][-1],
            tolerances["final_gibbs_distance"],
            "upper",
        ),
    ]
    mark = time.perf_counter()
    if bundle.dim <= CHOI_MAX_DIM:
        t_choi = times[-1] if times[-1] > 0.0 else 1.0
        checks.append(
            _check(
                "choi_min_eigenvalue",
                choi_min_eigenvalue(bundle, t_choi),
                tolerances["choi_min_eigenvalue"],
                "floor",
            )
        )
    stages["choi_s"] = time.perf_counter() - mark
    data = {
        "n_snapshots": len(times),
        "final_time": times[-1],
        "step_exponentials": bundle.propagator.computed,
    }
    return checks, data, stages, artifact


# ---------------------------------------------------------------------------
# Selftest battery
# ---------------------------------------------------------------------------


def cmd_selftest(config: None, args, seed: int) -> tuple:
    """Fixed cross-check battery.  Its stages are the seconds spent in each
    check group (``davies_s``, ``filtered_s``, ``dual_path_s``,
    ``calibration_s``, ``evolution_s``), summed over the group's runs."""
    stages: dict[str, float] = {}

    @contextmanager
    def group(name: str):
        mark = time.perf_counter()
        yield
        stages[f"{name}_s"] = stages.get(f"{name}_s", 0.0) + time.perf_counter() - mark

    def bundle_check(name: str, bundle: GeneratorBundle, label: str | None = None) -> dict:
        return _bundle_check(name, bundle, seed, _DEFAULT_TOLERANCES, label)

    checks: list[dict] = []
    qubit = qubit_model()
    ladder = oscillator_model(6)
    dense = random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))

    with group("davies"):
        for model, kms_kind in ((qubit, "glauber"), (ladder, "metropolis")):
            bundle = davies_generator(model, kms_gamma(kms_kind))
            label = f"davies_stationarity_{model.model_id}_{kms_kind}"
            checks.append(bundle_check("stationarity_residual", bundle, label))

    with group("filtered"):
        for model, phi, sigma in ((qubit, "gaussian", 1.0), (dense, "sech", 0.7)):
            bundle = localised_generator(model, balanced_gamma(phi, sigma), sigma)
            if model is qubit:
                qubit_bundle = bundle  # reused by the evolution checks
            label = f"filtered_stationarity_{model.model_id}_{phi}"
            checks.append(bundle_check("stationarity_residual", bundle, label))

    with group("dual_path"):
        w_dense = balanced_gamma("gaussian", 0.9)
        clean = localised_generator(dense, w_dense, 0.9)
        checks.append(bundle_check("dual_path", clean, "dual_path_dense_model"))

        # Every off-diagonal sign of the coupling table flipped: the fault
        # the dual-path check must catch.
        coupling = clean.coupling
        corrupt = dataclasses.replace(clean, coupling=2.0 * np.diag(np.diag(coupling)) - coupling)
        checks.append(
            _check("fault_injection_detected", dual_path_residual(corrupt), 1e-3, "lower")
        )

    with group("filtered"):
        near = localised_generator(qubit, unshifted_gamma("gaussian", 1.0), 1.0)
        checks.append(bundle_check("negative_control_residual", near))

    with group("calibration"):
        calibration = coherent_calibration_report(clean)
        checks.append(
            _check(
                "coherent_orientation_agreement",
                calibration["relative_distance_outward"],
                1e-6,
                "upper",
            )
        )

        checks.append(
            _check(
                "coherent_l1_limit",
                abs(coherent_time_kernel_l1(0.0625) - COHERENT_L1_LIMIT),
                1e-3,
                "upper",
            )
        )

    with group("filtered"):
        for name in ("drift_abscissa", "trace_functional", "hermiticity_preservation"):
            checks.append(bundle_check(name, clean, f"{name}_dense_model"))

    with group("evolution"):
        excited = _initial_state("excited", qubit_bundle, seed)
        trajectory = evolve(qubit_bundle, excited, [0.0, 1.0, 20.0])
        checks.append(
            _check(
                "qubit_convergence_t20",
                trajectory.diagnostics["gibbs_distance"][-1],
                _DEFAULT_TOLERANCES["final_gibbs_distance"],
                "upper",
            )
        )
        checks.append(
            _check(
                "choi_min_eigenvalue_qubit_t1",
                choi_min_eigenvalue(qubit_bundle, 1.0),
                _DEFAULT_TOLERANCES["choi_min_eigenvalue"],
                "floor",
            )
        )
        checks.append(
            _check(
                "semigroup_split_qubit",
                semigroup_defect(qubit_bundle, 0.7, 1.3),
                1e-10,
                "upper",
            )
        )
        pairs = [
            (random_density_matrix(2, seed=seed + k), random_density_matrix(2, seed=seed + 50 + k))
            for k in range(3)
        ]
        report = contraction_report(qubit_bundle, pairs, [0.0, 0.5, 1.0, 2.0])
        checks.append(
            _check("contraction_worst_increase", report["worst_increase"], 1e-9, "upper")
        )
    return checks, None, stages, None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return normalised_config(None, command)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"config {path!r} nests too deeply to read") from exc
    return normalised_config(raw, command)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: ``parse_args`` keeps no state
    between calls, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Numerical laboratory for Gibbs-stationary quantum Markov generators.",
    )
    parser.add_argument("--version", action="version", version=f"gibbslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--report", help="write the run report here instead of stdout")

    p_verify = sub.add_parser(
        "verify-stationarity", help="invariant checks for one generator"
    )
    common(p_verify)
    p_verify.add_argument("--check", help="run a single named check")
    p_verify.add_argument(
        "--negative-control",
        action="store_true",
        help="build the unshifted control weight; its stationarity residual must be large",
    )
    p_verify.add_argument("--export-bundle", help="write the assembled generator here")

    p_sweep = sub.add_parser("sweep-sigma", help="bandwidth ladder toward the unfiltered limit")
    common(p_sweep)
    p_sweep.add_argument("--out", help="data table destination (default stdout)")

    p_evolve = sub.add_parser("evolve", help="propagate a state and tabulate diagnostics")
    common(p_evolve)
    p_evolve.add_argument("--out", help="trajectory table destination (default stdout)")

    p_self = sub.add_parser("selftest", help="fixed cross-check battery")
    p_self.add_argument("--seed", type=int, help="seed for the random probes")
    p_self.add_argument("--report", help="write the run report here instead of stdout")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        seed = args.seed
        if seed is not None:
            _as_seed(seed, "--seed")
        config = None if args.command == "selftest" else _load_config(args.config, args.command)
        if seed is None:
            seed = 2024 if config is None else config["run"]["seeds"][0]
        elif config is not None:
            # Written into the config, which the report echoes.
            config["run"]["seeds"] = [seed]
        # Each ``cmd_*`` returns the result that ``_finish`` writes.  It is
        # looked up when it runs, so a wrapper installed on the module
        # attribute is the command that runs.
        command = globals()["cmd_" + args.command.replace("-", "_")]
        started = time.perf_counter()
        result = command(config, args, seed)
        return _finish(args, config, seed, started, result)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_GUARD
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
