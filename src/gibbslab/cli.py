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
    injection that must be caught.  ``--tighten`` shrinks every tolerance
    to demonstrate which checks sit close to their bounds.

Conventions shared by all commands: configs are JSON with a
``schema_version`` and unknown keys rejected at every level; reports echo
the fully normalised config so a run can be reproduced from its own
output; CSV artifacts carry ``#``-prefixed metadata lines, 17-significant-
digit floats, LF line endings, and no timestamps, so identical inputs
produce identical bytes (modulo the version metadata line).  Exit codes:
0 all checks passed, 1 at least one check failed, 2 usage or config
error, 3 (selftest with ``--tighten``) only the expected tightened checks
failed, 4 a numerical guard fired (an overlap table disagreed with its
QUADPACK cross-check), 5 the program crashed (any other exception; the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import json
import math
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
    choi_min_eigenvalue,
    contraction_report,
    evolve,
    random_density_matrix,
    semigroup_defect,
)
from .generators import (
    GeneratorBundle,
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
from .models import Model, config_number, gibbs_state, model_from_config, random_model
from .weights import (
    COHERENT_L1_LIMIT,
    MAX_BANDWIDTH,
    balanced_gamma,
    coherent_time_kernel_l1,
    kms_gamma,
    unshifted_gamma,
)

__all__ = [
    "EXIT_CHECK_FAILURE",
    "EXIT_CRASH",
    "EXIT_EXPECTED_FAILURES",
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
EXIT_EXPECTED_FAILURES = 3
EXIT_NUMERICAL_GUARD = 4
EXIT_CRASH = 5

_WEIGHT_KINDS = ("balanced", "unshifted", "glauber", "metropolis")
_GENERATOR_KINDS = ("davies", "localised")
_ASSEMBLY_PATHS = ("bohr_sum", "omega_quadrature")
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
    sigma = _as_positive_float(value, context)
    if sigma > MAX_BANDWIDTH:
        raise ValidationError(
            f"{context} must be at most {MAX_BANDWIDTH:g}, got {sigma!r}; the "
            "smoothing rule does not resolve wider filters"
        )
    return sigma


def normalised_config(config: dict | None, command: str) -> dict:
    """Validate a config mapping and fill defaults; idempotent.

    Unknown keys anywhere in the tree are rejected, ``schema_version`` must
    match, and all tolerances must be positive.  The returned mapping is
    plain JSON data (no arrays, no callables) and normalising it again
    returns an equal mapping.
    """
    cfg = dict(config) if config else {}
    _reject_unknown(
        cfg, {"schema_version", "model", "weight", "generator", "run", "output"}, "config"
    )
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )

    model = dict(cfg.get("model") or {"name": "qubit"})
    if "name" not in model:
        raise ValidationError("model config requires a 'name'")
    model_from_config(model)  # full validation, including unknown-key rejection

    weight = dict(cfg.get("weight") or {})
    _reject_unknown(weight, {"kind", "phi_name", "sigma", "balance_broken"}, "weight")
    weight.setdefault("kind", "balanced")
    if weight["kind"] not in _WEIGHT_KINDS:
        raise ValidationError(
            f"unknown weight kind {weight['kind']!r}; known: {list(_WEIGHT_KINDS)}"
        )
    weight.setdefault("balance_broken", False)
    if not isinstance(weight["balance_broken"], bool):
        raise ValidationError("weight.balance_broken must be a boolean")
    if weight["kind"] in ("balanced", "unshifted"):
        weight.setdefault("phi_name", "gaussian")
        weight["sigma"] = _as_bandwidth(weight.get("sigma", 1.0), "weight.sigma")
    else:
        for key in ("phi_name", "sigma"):
            if key in weight:
                raise ValidationError(
                    f"weight.{key} is only meaningful for filtered weights, "
                    f"not {weight['kind']!r}"
                )
        if weight["balance_broken"]:
            raise ValidationError(
                "balance_broken applies to the filtered balanced weight only"
            )

    generator = dict(cfg.get("generator") or {})
    _reject_unknown(generator, {"kind", "path"}, "generator")
    generator.setdefault(
        "kind", "davies" if weight["kind"] in ("glauber", "metropolis") else "localised"
    )
    if generator["kind"] not in _GENERATOR_KINDS:
        raise ValidationError(
            f"unknown generator kind {generator['kind']!r}; known: {list(_GENERATOR_KINDS)}"
        )
    if generator["kind"] == "localised":
        generator.setdefault("path", "bohr_sum")
        if generator["path"] not in _ASSEMBLY_PATHS:
            raise ValidationError(
                f"unknown assembly path {generator['path']!r}; known: {list(_ASSEMBLY_PATHS)}"
            )
        if weight["kind"] not in ("balanced", "unshifted"):
            raise ValidationError(
                "the filtered generator needs a filtered weight "
                "(kind 'balanced' or 'unshifted')"
            )
    else:
        if "path" in generator:
            raise ValidationError("generator.path applies to the filtered family only")
        if weight["kind"] not in ("glauber", "metropolis"):
            raise ValidationError(
                "the unfiltered generator needs a detailed-balance weight "
                "(kind 'glauber' or 'metropolis')"
            )
        if weight["balance_broken"]:
            raise ValidationError(
                "balance_broken applies to the filtered balanced weight only"
            )

    run = dict(cfg.get("run") or {})
    _reject_unknown(
        run, {"times", "sigma_sweep", "seeds", "tolerances", "initial_state"}, "run"
    )
    if command == "evolve" or "times" in run:
        times = [config_number(t, "run.times entry") for t in run.get("times", _DEFAULT_TIMES)]
        if not times or any(t < 0.0 for t in times) or any(
            b <= a for a, b in zip(times[:-1], times[1:])
        ):
            raise ValidationError(
                "run.times must be non-empty, non-negative, strictly increasing"
            )
        run["times"] = times
    if command == "sweep-sigma" or "sigma_sweep" in run:
        sweep = [
            _as_bandwidth(s, "run.sigma_sweep entry")
            for s in run.get("sigma_sweep", _DEFAULT_SWEEP)
        ]
        if any(b >= a for a, b in zip(sweep[:-1], sweep[1:])):
            raise ValidationError("run.sigma_sweep must be strictly decreasing")
        run["sigma_sweep"] = sweep
    seeds = run.get("seeds", [2024])
    if not isinstance(seeds, list) or not seeds:
        raise ValidationError("run.seeds must be a non-empty list of integers")
    run["seeds"] = [config_number(s, "run.seeds entry", int) for s in seeds]
    tolerances = dict(run.get("tolerances") or {})
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

    output = dict(cfg.get("output") or {})
    _reject_unknown(output, {"format", "path"}, "output")
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


def _tolerance(config: dict, name: str) -> float:
    return config["run"]["tolerances"].get(name, _DEFAULT_TOLERANCES[name])


def build_weight(config: dict):
    """Weight function described by a normalised config."""
    w = config["weight"]
    if w["kind"] in ("glauber", "metropolis"):
        return kms_gamma(w["kind"])
    if w["kind"] == "unshifted" or w["balance_broken"]:
        return unshifted_gamma(w["phi_name"], w["sigma"])
    return balanced_gamma(w["phi_name"], w["sigma"])


def build_generator(config: dict) -> GeneratorBundle:
    """Assemble the generator described by a normalised config."""
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
    ``lower`` when value >= tolerance, ``floor`` when value >= -tolerance."""
    if mode == "upper":
        passed = value <= tolerance
    elif mode == "lower":
        passed = value >= tolerance
    elif mode == "floor":
        passed = value >= -tolerance
    else:
        raise ValidationError(f"unknown check mode {mode!r}")
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "mode": mode,
        "pass": bool(passed),
    }


def _environment(seed: int) -> dict:
    return {
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
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
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _data_artifact(columns: list[str], rows: list[list], metadata: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(columns, rows, metadata)
    return render_report(
        {"metadata": dict(metadata), "columns": columns, "rows": rows}
    )


# ---------------------------------------------------------------------------
# Bundle export
# ---------------------------------------------------------------------------


def _encode_matrix(matrix: np.ndarray) -> dict:
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    return {
        "dtype": "complex128",
        "shape": list(m.shape),
        "order": "C",
        "data": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def decode_matrix(payload: dict) -> np.ndarray:
    """Inverse of the bundle matrix encoding."""
    if payload.get("dtype") != "complex128" or payload.get("order") != "C":
        raise ValidationError(f"unsupported matrix payload header: {payload.keys()}")
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype=np.complex128).reshape(payload["shape"]).copy()


def export_bundle(bundle: GeneratorBundle, path: str) -> None:
    """Serialise an assembled generator to JSON (metadata + matrix payloads)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": bundle.kind,
        "assembly_path": bundle.assembly_path,
        "model_id": bundle.model.model_id,
        "dim": bundle.dim,
        "sigma": bundle.sigma,
        "weight": {
            "kind": bundle.weight.kind,
            "phi_name": bundle.weight.phi_name,
            "sigma": bundle.weight.sigma,
        },
        "matrices": {
            "hamiltonian": _encode_matrix(bundle.model.hamiltonian),
            "coherent_matrix": _encode_matrix(bundle.coherent_matrix),
            "superoperator": _encode_matrix(bundle.superoperator),
        },
        "diagnostics": {
            k: v
            for k, v in bundle.diagnostics.items()
            if isinstance(v, (int, float, bool, str))
        },
    }
    _write_text(path, render_report(doc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _timing(started: float, stages: dict | None) -> dict:
    """The report's non-deterministic ``timing`` section."""
    timing = {"elapsed_seconds": round(time.perf_counter() - started, 6)}
    if stages:
        timing["stages"] = {k: round(v, 6) for k, v in stages.items()}
    return timing


def _finish(
    command: str,
    config: dict | None,
    checks: list[dict],
    *,
    seed: int,
    started: float,
    data: dict | None = None,
    report_path: str | None = None,
    stages: dict | None = None,
    extra: dict | None = None,
) -> int:
    """Write the run report and return its exit code; ``data`` goes under
    the ``data`` key and ``extra`` at the top level."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
        "environment": _environment(seed),
        "timing": _timing(started, stages),
    }
    if data:
        report["data"] = data
    if extra:
        report.update(extra)
    _write_text(report_path, render_report(report))
    return EXIT_OK if report["overall_pass"] else EXIT_CHECK_FAILURE


def cmd_verify_stationarity(config: dict, args) -> int:
    """Invariant battery for one configured generator."""
    started = time.perf_counter()
    if args.negative_control:
        config = json.loads(json.dumps(config))
        config["weight"]["balance_broken"] = True
        config = normalised_config(config, "verify-stationarity")
    seed = args.seed if args.seed is not None else config["run"]["seeds"][0]
    kind = config["generator"]["kind"]
    broken = config["weight"]["balance_broken"] or config["weight"]["kind"] == "unshifted"

    # The checks follow from the config alone, so a bad --check name is
    # rejected before the build; each entry reads ``bundle`` when it runs.
    available: dict[str, callable] = {}
    if broken:
        available["negative_control_residual"] = lambda: _check(
            "negative_control_residual",
            stationarity_report(bundle),
            _tolerance(config, "negative_control"),
            "lower",
        )
    else:
        stat_tol = (
            _tolerance(config, "davies_stationarity")
            if kind == "davies"
            else _tolerance(config, "stationarity")
        )
        available["stationarity_residual"] = lambda: _check(
            "stationarity_residual",
            stationarity_report(bundle),
            stat_tol,
            "upper",
        )
    available["trace_functional"] = lambda: _check(
        "trace_functional",
        trace_functional_defect(bundle),
        _tolerance(config, "trace_functional"),
        "upper",
    )
    available["hermiticity_preservation"] = lambda: _check(
        "hermiticity_preservation",
        hermiticity_preservation_defect(bundle, seed=seed),
        _tolerance(config, "hermiticity_preservation"),
        "upper",
    )
    available["drift_abscissa"] = lambda: _check(
        "drift_abscissa",
        effective_drift_abscissa(bundle),
        _tolerance(config, "drift_abscissa"),
        "upper",
    )
    if kind == "localised" and not broken:
        available["dual_path"] = lambda: _check(
            "dual_path",
            dual_path_residual(bundle),
            _tolerance(config, "dual_path"),
            "upper",
        )

    if args.check is not None:
        if args.check not in available:
            raise ValidationError(
                f"unknown check {args.check!r}; available: {sorted(available)}"
            )
        names = [args.check]
    else:
        names = list(available)

    bundle = build_generator(config)
    stages = {"build_s": time.perf_counter() - started}
    checks = []
    for name in names:
        mark = time.perf_counter()
        checks.append(available[name]())
        stages[f"{name}_s"] = time.perf_counter() - mark

    if args.export_bundle:
        export_bundle(bundle, args.export_bundle)

    data = {
        "model_id": bundle.model.model_id,
        "generator_kind": bundle.kind,
        "diagnostics": {
            k: v
            for k, v in bundle.diagnostics.items()
            if isinstance(v, (int, float, bool, str))
        },
    }
    return _finish(
        "verify-stationarity",
        config,
        checks,
        seed=seed,
        started=started,
        data=data,
        report_path=args.report,
        stages=stages,
    )


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


def cmd_sweep_sigma(config: dict, args) -> int:
    """Bandwidth ladder: distance to the unfiltered limit per sigma."""
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else config["run"]["seeds"][0]
    if config["generator"]["kind"] != "localised":
        raise ValidationError("sweep-sigma applies to the filtered generator only")
    if config["weight"]["kind"] != "balanced" or config["weight"]["balance_broken"]:
        raise ValidationError("sweep-sigma requires the balanced weight")
    model = model_from_config(config["model"])
    sigmas = config["run"]["sigma_sweep"]
    phi = config["weight"]["phi_name"]

    rows = davies_limit_report(model, phi, sigmas, seed=seed)["rows"]
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
    _write_text(args.out or config["output"].get("path"), artifact)

    checks = [
        _check(
            "stationarity_residual_max",
            max(r["stationarity_residual"] for r in rows),
            _tolerance(config, "stationarity"),
            "upper",
        )
    ]
    data = {"rows": rows, "flags": flags}
    return _finish(
        "sweep-sigma", config, checks, seed=seed, started=started, data=data,
        report_path=args.report,
    )


def _initial_state(kind: str, model: Model, seed: int) -> np.ndarray:
    system = model.eigensystem()
    d = model.dim
    if kind == "excited":
        v = system.eigenvectors[:, -1]
        return np.outer(v, v.conj())
    if kind == "ground":
        v = system.eigenvectors[:, 0]
        return np.outer(v, v.conj())
    if kind == "gibbs":
        return gibbs_state(model)
    if kind == "maximally_mixed":
        return np.eye(d, dtype=np.complex128) / d
    return random_density_matrix(d, seed=seed)


def cmd_evolve(config: dict, args) -> int:
    """Propagate a state and tabulate per-snapshot health columns."""
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else config["run"]["seeds"][0]
    bundle = build_generator(config)
    stages = {"build_s": time.perf_counter() - started}
    model = bundle.model
    times = config["run"]["times"]
    rho0 = _initial_state(config["run"]["initial_state"], model, seed)
    mark = time.perf_counter()
    trajectory = evolve(bundle, rho0, times)
    stages["evolve_s"] = time.perf_counter() - mark

    columns = ["t", "trace", "min_eig", "gibbs_distance"]
    table = []
    for t, state, diag in zip(trajectory.times, trajectory.states, trajectory.diagnostics):
        table.append(
            [
                float(t),
                float(np.trace(state).real),
                diag["min_eigenvalue"],
                diag["gibbs_distance"],
            ]
        )
    metadata = {
        "command": "evolve",
        "model": model.model_id,
        "generator": bundle.kind,
        "initial_state": config["run"]["initial_state"],
        "seed": seed,
    }
    artifact = _data_artifact(columns, table, metadata, config["output"]["format"])
    _write_text(args.out or config["output"].get("path"), artifact)

    checks = [
        _check(
            "trace_deviation_max",
            max(d["trace_deviation"] for d in trajectory.diagnostics),
            _tolerance(config, "trace_deviation"),
            "upper",
        ),
        _check(
            "min_eigenvalue_worst",
            min(d["min_eigenvalue"] for d in trajectory.diagnostics),
            _tolerance(config, "min_eigenvalue"),
            "floor",
        ),
        _check(
            "final_gibbs_distance",
            trajectory.diagnostics[-1]["gibbs_distance"],
            _tolerance(config, "final_gibbs_distance"),
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
                _tolerance(config, "choi_min_eigenvalue"),
                "floor",
            )
        )
    stages["choi_s"] = time.perf_counter() - mark
    data = {
        "n_snapshots": len(times),
        "final_time": times[-1],
        "step_exponentials": bundle.propagator.computed,
    }
    return _finish(
        "evolve", config, checks, seed=seed, started=started, data=data,
        report_path=args.report, stages=stages,
    )


# ---------------------------------------------------------------------------
# Selftest battery
# ---------------------------------------------------------------------------


def _selftest_checks(seed: int, stages: dict) -> list[dict]:
    """The fixed battery; ``stages`` receives the seconds spent in each check
    group (``davies_s``, ``filtered_s``, ``dual_path_s``, ``calibration_s``,
    ``evolution_s``), summed over the group's runs."""
    from .models import oscillator_model, qubit_model

    @contextmanager
    def group(name: str):
        mark = time.perf_counter()
        yield
        stages[f"{name}_s"] = stages.get(f"{name}_s", 0.0) + time.perf_counter() - mark

    checks: list[dict] = []
    qubit = qubit_model()
    ladder = oscillator_model(6)
    dense = random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))

    with group("davies"):
        for model, kms_kind in ((qubit, "glauber"), (ladder, "metropolis")):
            bundle = davies_generator(model, kms_gamma(kms_kind))
            checks.append(
                _check(
                    f"davies_stationarity_{model.model_id}_{kms_kind}",
                    stationarity_report(bundle),
                    _DEFAULT_TOLERANCES["davies_stationarity"],
                    "upper",
                )
            )

    with group("filtered"):
        for model, phi, sigma in ((qubit, "gaussian", 1.0), (dense, "sech", 0.7)):
            bundle = localised_generator(model, balanced_gamma(phi, sigma), sigma)
            if model is qubit:
                qubit_bundle = bundle  # reused by the evolution checks
            checks.append(
                _check(
                    f"filtered_stationarity_{model.model_id}_{phi}",
                    stationarity_report(bundle),
                    _DEFAULT_TOLERANCES["stationarity"],
                    "upper",
                )
            )

    with group("dual_path"):
        w_dense = balanced_gamma("gaussian", 0.9)
        clean = localised_generator(dense, w_dense, 0.9)
        checks.append(
            _check(
                "dual_path_dense_model",
                dual_path_residual(clean),
                _DEFAULT_TOLERANCES["dual_path"],
                "upper",
            )
        )

        # Every off-diagonal sign of the coupling table flipped: the fault
        # the dual-path check must catch.
        coupling = clean.coupling
        corrupt = dataclasses.replace(clean, coupling=2.0 * np.diag(np.diag(coupling)) - coupling)
        checks.append(
            _check("fault_injection_detected", dual_path_residual(corrupt), 1e-3, "lower")
        )

    with group("filtered"):
        near = localised_generator(qubit, unshifted_gamma("gaussian", 1.0), 1.0)
        checks.append(
            _check(
                "negative_control_residual",
                stationarity_report(near),
                _DEFAULT_TOLERANCES["negative_control"],
                "lower",
            )
        )

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
        checks.append(
            _check(
                "drift_abscissa_dense_model",
                effective_drift_abscissa(clean),
                _DEFAULT_TOLERANCES["drift_abscissa"],
                "upper",
            )
        )
        checks.append(
            _check(
                "trace_functional_dense_model",
                trace_functional_defect(clean),
                _DEFAULT_TOLERANCES["trace_functional"],
                "upper",
            )
        )
        checks.append(
            _check(
                "hermiticity_preservation_dense_model",
                hermiticity_preservation_defect(clean, seed=seed),
                _DEFAULT_TOLERANCES["hermiticity_preservation"],
                "upper",
            )
        )

    with group("evolution"):
        excited = _initial_state("excited", qubit, seed)
        trajectory = evolve(qubit_bundle, excited, [0.0, 1.0, 20.0])
        checks.append(
            _check(
                "qubit_convergence_t20",
                trajectory.diagnostics[-1]["gibbs_distance"],
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
    return checks


def _tightened(check: dict, factor: float) -> dict:
    tightened = _check(
        check["name"], check["value"], check["tolerance"] / factor, check["mode"]
    )
    tightened["standard_tolerance"] = check["tolerance"]
    tightened["pass_at_standard"] = check["pass"]
    return tightened


def cmd_selftest(args) -> int:
    """Fixed cross-check battery; ``--tighten`` stresses the tolerances."""
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 2024
    factor = args.tighten
    if factor is not None and not (math.isfinite(factor) and factor > 1.0):
        raise ValidationError(f"--tighten expects a finite factor > 1, got {factor!r}")
    stages: dict[str, float] = {}
    checks = _selftest_checks(seed, stages)

    extra = None
    if factor is not None:
        checks = [_tightened(c, factor) for c in checks]
        extra = {
            "tighten_factor": factor,
            "expected_failures": [
                c["name"] for c in checks if not c["pass"] and c["pass_at_standard"]
            ],
        }
    code = _finish(
        "selftest", None, checks, seed=seed, started=started,
        report_path=args.report, stages=stages, extra=extra,
    )
    if code == EXIT_CHECK_FAILURE and factor is not None and all(
        c["pass"] or c["pass_at_standard"] for c in checks
    ):
        return EXIT_EXPECTED_FAILURES
    return code


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
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
    return normalised_config(raw, command)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Numerical laboratory for Gibbs-stationary quantum Markov generators.",
    )
    parser.add_argument("--version", action="version", version=f"gibbslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the first config seed")
        p.add_argument("--report", help="write the run report here instead of stdout")

    p_verify = sub.add_parser(
        "verify-stationarity", help="invariant checks for one generator"
    )
    common(p_verify)
    p_verify.add_argument("--check", help="run a single named check")
    p_verify.add_argument(
        "--negative-control",
        action="store_true",
        help="break the weight balance; the residual must then be large",
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
    p_self.add_argument(
        "--tighten",
        type=float,
        help="divide every tolerance by this factor to stress the battery",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(args)
        config = _load_config(args.config, args.command)
        if args.command == "verify-stationarity":
            return cmd_verify_stationarity(config, args)
        if args.command == "sweep-sigma":
            return cmd_sweep_sigma(config, args)
        if args.command == "evolve":
            return cmd_evolve(config, args)
        raise ValidationError(f"unknown command {args.command!r}")
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
