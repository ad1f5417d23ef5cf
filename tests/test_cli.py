"""Command-line interface: config validation, reports, exit codes.

Every invocation goes through ``main`` in-process; reports land in a tmp
directory and are parsed back as JSON or CSV.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gibbslab.bohr
import gibbslab.cli
import gibbslab.generators
import gibbslab.oft
import gibbslab.weights
from gibbslab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CRASH,
    EXIT_NUMERICAL_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    decode_matrix,
    export_bundle,
    format_float,
    main,
    normalised_config,
    render_report,
)
from gibbslab.errors import ValidationError
from gibbslab.evolution import evolve
from gibbslab.generators import localised_generator
from gibbslab.weights import MIN_BANDWIDTH, balanced_gamma
from gibbslab.models import model_from_config, qubit_model


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_RANDOM4 = {"name": "random", "dim": 4, "seed": 5, "spectrum": [1.0, 1.7, 3.1, 4.6]}


def qubit_config(**overrides):
    config = {
        "schema_version": SCHEMA_VERSION,
        "model": {"name": "qubit"},
        "weight": {"kind": "balanced", "phi_name": "gaussian", "sigma": 1.0},
    }
    config.update(overrides)
    return config


# ---------------------------------------------------------------------------
# Config normalisation
# ---------------------------------------------------------------------------


def test_normalised_config_is_idempotent():
    once = normalised_config(qubit_config(), "verify-stationarity")
    twice = normalised_config(once, "verify-stationarity")
    assert once == twice
    assert once["generator"]["kind"] == "localised"
    assert once["run"]["seeds"] == [2024]


def test_normalised_config_rejections():
    bad_cases = [
        qubit_config(schema_version=2),
        qubit_config(unknown_section=1),
        {"schema_version": 1, "model": {"name": "qubit"}, "weight": {"kind": "balanced", "phi_name": "gaussian", "sigma": -1.0}},
        {"schema_version": 1, "model": {"name": "qubit"}, "weight": {"kind": "glauber", "sigma": 1.0}},
        {"schema_version": 1, "model": {"name": "qubit"}, "weight": {"kind": "metropolis", "phi_name": "gaussian"}},
        qubit_config(run={"times": [1.0, 0.5]}),
        qubit_config(run={"sigma_sweep": [0.5, 1.0]}),
        qubit_config(run={"tolerances": {"stationarity": 0.0}}),
        qubit_config(run={"tolerances": {"mystery": 1.0}}),
        qubit_config(run={"seeds": []}),
        qubit_config(run={"seeds": [1, 2]}),
        qubit_config(output={"format": "xml"}),
        qubit_config(model="qubit"),
    ]
    for payload in bad_cases:
        with pytest.raises(ValidationError):
            normalised_config(payload, "verify-stationarity")


@pytest.mark.parametrize(
    "payload, key",
    [
        (qubit_config(weight={"kind": "balanced", "balance_broken": True}), "balance_broken"),
        (qubit_config(run={"seeds": [1, 2]}), "run.seeds"),
    ],
    ids=["balance-broken", "two-seeds"],
)
def test_retired_settings_exit_two_and_name_the_key(tmp_path, capsys, payload, key):
    """The unshifted control weight has one spelling, ``weight.kind:
    "unshifted"``, and every command reads one seed."""
    assert main(["verify-stationarity", "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_verify_passes_on_the_qubit(tmp_path, capsys):
    config = write_config(tmp_path, qubit_config())
    report_path = tmp_path / "report.json"
    code = main(["verify-stationarity", "--config", config, "--report", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["overall_pass"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"stationarity_residual", "trace_functional", "dual_path"} <= names
    assert report["config"]["generator"]["kind"] == "localised"
    assert report["environment"]["package_version"]


@pytest.mark.parametrize("path", ["bohr_sum", "omega_quadrature"])
def test_filtered_verify_builds_each_path_once(tmp_path, monkeypatch, path):
    """One generator build per verify: the dual-path check assembles only the
    other path's dissipator.  Only the bohr_sum dissipator reads the overlap
    table, so an omega_quadrature verify smooths the weight once more for it
    and a bohr_sum verify does not."""
    builds = []
    smoothing_calls = []
    build = gibbslab.generators.localised_generator
    smooth = gibbslab.weights.smoothed_weight_table

    def counting_build(*args, **kwargs):
        before = len(smoothing_calls)
        bundle = build(*args, **kwargs)
        builds.append((bundle.assembly_path, len(smoothing_calls) - before))
        return bundle

    def counting_smooth(*args, **kwargs):
        smoothing_calls.append(1)
        return smooth(*args, **kwargs)

    for module in (gibbslab.cli, gibbslab.generators):
        monkeypatch.setattr(module, "localised_generator", counting_build)
    for module in (gibbslab.weights, gibbslab.oft, gibbslab.generators):
        if getattr(module, "smoothed_weight_table", None) is smooth:
            monkeypatch.setattr(module, "smoothed_weight_table", counting_smooth)

    config = write_config(tmp_path, qubit_config(generator={"kind": "localised", "path": path}))
    code = main(["verify-stationarity", "--config", config, "--report", str(tmp_path / "r.json")])
    assert code == EXIT_OK
    assert builds == [(path, 1)]
    assert len(smoothing_calls) == (1 if path == "bohr_sum" else 2)


def test_verify_looks_its_check_functions_up_when_they_run(tmp_path, monkeypatch):
    """The benchmark's layer tracer wraps the check functions on the module
    attributes of ``gibbslab.cli``; the check table must reach the wrappers."""
    names = (
        "stationarity_report",
        "trace_functional_defect",
        "hermiticity_preservation_defect",
        "effective_drift_abscissa",
        "dual_path_residual",
    )
    calls = []
    for name in names:
        original = getattr(gibbslab.cli, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(gibbslab.cli, name, counting)
    config = write_config(tmp_path, qubit_config())
    assert main(["verify-stationarity", "--config", config, "--report", str(tmp_path / "r.json")]) == EXIT_OK
    assert calls == list(names)


def test_verify_report_times_each_check(tmp_path):
    config = write_config(tmp_path, qubit_config())
    report_path = tmp_path / "r.json"
    assert main(["verify-stationarity", "--config", config, "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    stages = report["timing"]["stages"]
    assert set(stages) == {"frame_s", "build_s"} | {
        f"{check['name']}_s" for check in report["checks"]
    }
    assert "dual_path_s" in stages
    assert all(v >= 0.0 for v in stages.values())
    code = main(
        ["verify-stationarity", "--config", config, "--check", "trace_functional",
         "--report", str(report_path)]
    )
    assert code == EXIT_OK
    assert set(json.loads(report_path.read_text())["timing"]["stages"]) == {
        "frame_s", "build_s", "trace_functional_s"
    }


def test_export_bundle_is_timed_as_its_own_stage(tmp_path):
    config = write_config(tmp_path, qubit_config())
    report_path = tmp_path / "r.json"
    code = main([
        "verify-stationarity", "--config", config, "--report", str(report_path),
        "--export-bundle", str(tmp_path / "bundle.json"),
    ])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    stages = report["timing"]["stages"]
    assert set(stages) == {"frame_s", "build_s", "export_bundle_s"} | {
        f"{check['name']}_s" for check in report["checks"]
    }
    assert stages["export_bundle_s"] >= 0.0


@pytest.fixture
def rotations(monkeypatch):
    """Counts the rotations of a superoperator to the original basis."""
    calls = []
    original = gibbslab.generators._rotate_superop

    def counting(*args):
        calls.append(args[0].eigenvalues.size)
        return original(*args)

    monkeypatch.setattr(gibbslab.generators, "_rotate_superop", counting)
    return calls


LINE16 = {"name": "line", "n_grid": 16}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-stationarity", {"model": LINE16}),
        (
            "verify-stationarity",
            {"model": LINE16, "generator": {"kind": "localised", "path": "omega_quadrature"}},
        ),
        ("sweep-sigma", {"model": LINE16, "run": {"sigma_sweep": [0.5]}}),
    ],
    ids=["verify", "verify-omega-quadrature", "sweep-one-rung"],
)
def test_checks_never_rotate_the_generator(tmp_path, rotations, command, payload):
    """The checks and the delocalisation report act in the eigenbasis: no
    build is rotated to the original basis unless its superoperator is read."""
    config = write_config(tmp_path, {"schema_version": SCHEMA_VERSION, **payload})
    argv = [command, "--config", config, "--report", str(tmp_path / "r.json")]
    if command == "sweep-sigma":
        argv += ["--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_OK
    assert rotations == []


def test_evolve_rotates_the_generator_once(tmp_path, rotations):
    payload = {"schema_version": SCHEMA_VERSION, "model": {"name": "oscillator", "dim": 6}}
    config = write_config(tmp_path, payload)
    argv = ["evolve", "--config", config, "--report", str(tmp_path / "r.json"),
            "--out", str(tmp_path / "t.csv")]
    assert main(argv) == EXIT_OK
    assert rotations == [6]


def test_superoperator_is_rotated_on_first_read_only(rotations):
    bundle = localised_generator(model_from_config(LINE16), balanced_gamma("gaussian", 1.0), 1.0)
    assert rotations == []
    first = bundle.superoperator
    assert bundle.superoperator is first
    assert rotations == [16]


def test_one_rung_sweep_computes_the_bohr_spectrum_once(tmp_path, monkeypatch):
    """The filtered rung and the delocalised limit read one spectral frame of
    their model: one Bohr clustering, wherever the name is looked up."""
    original = gibbslab.bohr.bohr_spectrum
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "gibbslab" or name.startswith("gibbslab."):
            if getattr(module, "bohr_spectrum", None) is original:
                monkeypatch.setattr(module, "bohr_spectrum", counting)
    payload = {"schema_version": SCHEMA_VERSION, "model": LINE16, "run": {"sigma_sweep": [0.5]}}
    argv = ["sweep-sigma", "--config", write_config(tmp_path, payload),
            "--report", str(tmp_path / "r.json"), "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


def test_verify_reports_the_cross_check_cost(tmp_path):
    config = write_config(tmp_path, qubit_config())
    report_path = tmp_path / "r.json"
    assert main(["verify-stationarity", "--config", config, "--report", str(report_path)]) == EXIT_OK
    diagnostics = json.loads(report_path.read_text())["data"]["diagnostics"]
    entries = diagnostics["overlap_cross_check_entries"]
    evaluations = diagnostics["overlap_cross_check_evaluations"]
    assert entries > 0 and evaluations > 0
    # The batched rule spends 48 nodes on each panel it evaluates, and
    # evaluates at most its panel cap of them for the whole table.
    assert evaluations <= 48 * gibbslab.oft._QUADRATURE_PANEL_CAP
    assert evaluations % 48 == 0
    assert diagnostics["overlap_cross_check_defect"] <= 1e-8
    assert diagnostics["overlap_smoothing_rule"] == "closed_form"


@pytest.mark.parametrize(
    "argv, payload, builder, later",
    [
        (["verify-stationarity"], {"model": LINE16}, "build_generator", "build_s"),
        (["sweep-sigma"], {"model": LINE16, "run": {"sigma_sweep": [0.5]}}, "davies_limit_report",
         "ladder_s"),
        (["evolve"], {"model": {"name": "oscillator", "dim": 6}}, "build_generator", "build_s"),
    ],
    ids=["verify", "sweep", "evolve"],
)
def test_frame_is_timed_before_the_build(tmp_path, monkeypatch, argv, payload, builder, later):
    """The model's spectral frame is computed before any generator is built
    and timed as its own stage; the next stage holds the rest."""
    framed = []
    original = getattr(gibbslab.cli, builder)

    def recording(config_or_model, *args, **kwargs):
        model = args[0] if builder == "build_generator" else config_or_model
        framed.append("frame" in vars(model))
        return original(config_or_model, *args, **kwargs)

    monkeypatch.setattr(gibbslab.cli, builder, recording)
    report_path = tmp_path / "r.json"
    config = write_config(tmp_path, {"schema_version": SCHEMA_VERSION, **payload})
    extra = ["--out", str(tmp_path / "rows.csv")] if argv != ["verify-stationarity"] else []
    assert main(argv + ["--config", config, "--report", str(report_path)] + extra) == EXIT_OK
    timing = json.loads(report_path.read_text())["timing"]
    assert framed == [True]
    assert timing["stages"]["frame_s"] > 0.0
    assert timing["stages"]["frame_s"] + timing["stages"][later] <= timing["elapsed_seconds"]


def test_verify_reports_the_sandwich_entries_it_computed(tmp_path):
    report_path = tmp_path / "r.json"
    for payload in (qubit_config(), qubit_config(weight={"kind": "metropolis"}, generator={"kind": "davies"})):
        assert main(["verify-stationarity", "--config", write_config(tmp_path, payload),
                     "--report", str(report_path)]) == EXIT_OK
        diagnostics = json.loads(report_path.read_text())["data"]["diagnostics"]
        assert 1 <= diagnostics["sandwich_live_entries"] <= 2**4


def test_verify_reports_the_omega_node_count(tmp_path):
    payload = qubit_config(generator={"kind": "localised", "path": "omega_quadrature"})
    config = write_config(tmp_path, payload)
    report_path = tmp_path / "r.json"
    assert main(["verify-stationarity", "--config", config, "--report", str(report_path)]) == EXIT_OK
    diagnostics = json.loads(report_path.read_text())["data"]["diagnostics"]
    assert diagnostics["omega_nodes"] >= 1


def test_verify_check_filter_and_failure_exit(tmp_path):
    config_payload = qubit_config(run={"tolerances": {"dual_path": 1e-30}})
    config = write_config(tmp_path, config_payload)
    report_path = tmp_path / "r.json"
    code = main(["verify-stationarity", "--config", config, "--check", "dual_path", "--report", str(report_path)])
    assert code == EXIT_CHECK_FAILURE
    report = json.loads(report_path.read_text())
    assert [check["name"] for check in report["checks"]] == ["dual_path"]
    assert report["overall_pass"] is False


def test_verify_negative_control_flips_the_meaning(tmp_path):
    config = write_config(tmp_path, qubit_config())
    report_path = tmp_path / "r.json"
    code = main([
        "verify-stationarity", "--config", config, "--negative-control",
        "--report", str(report_path),
    ])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    control = {c["name"]: c for c in report["checks"]}["negative_control_residual"]
    assert control["mode"] == "lower"
    assert control["value"] > 1e-4
    assert control["pass"] is True
    assert report["config"]["weight"] == {"kind": "unshifted", "phi_name": "gaussian", "sigma": 1.0}


def test_negative_control_of_an_unfiltered_config_exits_two(tmp_path, monkeypatch, capsys):
    builds = []
    monkeypatch.setattr(gibbslab.cli, "build_generator", lambda *a, **k: builds.append(a))
    config = write_config(tmp_path, qubit_config(weight={"kind": "glauber"}))
    assert main(["verify-stationarity", "--config", config, "--negative-control"]) == EXIT_USAGE
    assert "--negative-control" in capsys.readouterr().err
    assert builds == []


_ALWAYS = [
    ("trace_functional", "upper", 1e-12),
    ("hermiticity_preservation", "upper", 1e-12),
    ("drift_abscissa", "upper", 1e-10),
]


@pytest.mark.parametrize(
    "payload, extra, expected",
    [
        (
            qubit_config(weight={"kind": "glauber"}),
            [],
            [("stationarity_residual", "upper", 1e-12)] + _ALWAYS,
        ),
        (
            qubit_config(),
            [],
            [("stationarity_residual", "upper", 1e-9)] + _ALWAYS + [("dual_path", "upper", 1e-8)],
        ),
        (
            qubit_config(generator={"kind": "localised", "path": "omega_quadrature"}),
            [],
            [("stationarity_residual", "upper", 1e-9)] + _ALWAYS + [("dual_path", "upper", 1e-8)],
        ),
        (
            qubit_config(),
            ["--negative-control"],
            [("negative_control_residual", "lower", 1e-4)] + _ALWAYS,
        ),
    ],
    ids=["davies", "bohr_sum", "omega_quadrature", "negative-control"],
)
def test_verify_runs_the_checks_its_config_offers(tmp_path, payload, extra, expected):
    report_path = tmp_path / "r.json"
    argv = ["verify-stationarity", "--config", write_config(tmp_path, payload)]
    assert main(argv + extra + ["--report", str(report_path)]) == EXIT_OK
    checks = json.loads(report_path.read_text())["checks"]
    assert [(c["name"], c["mode"], c["tolerance"]) for c in checks] == expected


def test_usage_errors_exit_two(tmp_path, capsys):
    bad_config = write_config(tmp_path, qubit_config(schema_version=2))
    assert main(["verify-stationarity", "--config", bad_config]) == EXIT_USAGE
    capsys.readouterr()
    good = write_config(tmp_path, qubit_config())
    assert main(["verify-stationarity", "--config", good, "--check", "nonsense"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    missing = str(tmp_path / "missing.json")
    assert main(["verify-stationarity", "--config", missing]) == EXIT_USAGE


@pytest.mark.parametrize(
    "payload, extra, check",
    [
        (qubit_config(), [], "typo"),
        (qubit_config(weight={"kind": "glauber"}), [], "dual_path"),
        (qubit_config(), ["--negative-control"], "stationarity_residual"),
        (qubit_config(weight={"kind": "unshifted"}), [], "dual_path"),
    ],
    ids=["typo", "davies-dual-path", "negative-control", "unshifted"],
)
def test_unknown_check_exits_two_before_the_build(
    tmp_path, monkeypatch, capsys, payload, extra, check
):
    """The checks a config offers follow from the config, so a name it does
    not offer is rejected without assembling the generator."""
    builds = []
    monkeypatch.setattr(gibbslab.cli, "build_generator", lambda *a, **k: builds.append(a))
    argv = ["verify-stationarity", "--config", write_config(tmp_path, payload), "--check", check]
    assert main(argv + extra) == EXIT_USAGE
    assert f"unknown check {check!r}" in capsys.readouterr().err
    assert builds == []


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-stationarity", qubit_config(weight={"kind": "balanced", "sigma": 4.5})),
        ("sweep-sigma", qubit_config(run={"sigma_sweep": [5.0, 1.0]})),
        ("verify-stationarity", qubit_config(weight={"kind": "balanced", "sigma": 1e-300})),
    ],
    ids=["weight-sigma", "sweep-rung", "below-floor"],
)
def test_unresolvable_bandwidth_exits_two_before_any_build(
    tmp_path, monkeypatch, capsys, command, payload
):
    """The smoothing rule is wrong for sigma well above the weight's own
    width (gaussian qubit verify exits 4 at sigma = 4.5 without the bound),
    and below the floor the quadratures lose their nodes to rounding (at
    sigma = 1e-300 the table build divided by zero), so such configs are
    usage errors caught before anything is built."""
    builds = []
    for name in ("localised_generator", "davies_limit_report"):
        monkeypatch.setattr(gibbslab.cli, name, lambda *a, **k: builds.append(a))
    config = write_config(tmp_path, payload)
    assert main([command, "--config", config]) == EXIT_USAGE
    assert "must be in [1e-06, 3]" in capsys.readouterr().err
    assert builds == []
    for bound in (3.0, MIN_BANDWIDTH):
        at_bound = qubit_config(weight={"kind": "balanced", "sigma": bound})
        assert normalised_config(at_bound, command)["weight"]["sigma"] == bound


def _usage_error_before_any_build(tmp_path, monkeypatch, capsys, command, payload) -> str:
    """The ``error:`` message of a config that exits 2 with no model built."""
    builds = []
    for name in ("model_from_config", "localised_generator", "davies_generator"):
        monkeypatch.setattr(gibbslab.cli, name, lambda *a, **k: builds.append(a))
    assert main([command, "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    assert builds == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: ") : -1]


@pytest.mark.parametrize("times", [[], [-1.0, 0.0], [1.0, 0.5], [0.0, 0.0]])
def test_run_times_follow_the_evolution_time_rule(tmp_path, monkeypatch, capsys, times):
    """``run.times`` is refused before any build by the rule ``evolve``
    states, in its words."""
    state = np.diag([1.0, 0.0]).astype(complex)
    bundle = localised_generator(qubit_model(), balanced_gamma("gaussian", 1.0), 1.0)
    with pytest.raises(ValidationError) as library:
        evolve(bundle, state, times)
    payload = qubit_config(run={"times": times})
    message = _usage_error_before_any_build(tmp_path, monkeypatch, capsys, "evolve", payload)
    assert message == f"run.{library.value}"


@pytest.mark.parametrize("sigma", [1e-7, 3.5])
def test_bandwidths_follow_the_table_bandwidth_rule(tmp_path, monkeypatch, capsys, sigma):
    """``weight.sigma`` and each ``run.sigma_sweep`` rung are refused before
    any build by the rule every overlap table states, in its words."""
    with pytest.raises(ValidationError) as library:
        localised_generator(qubit_model(), balanced_gamma("gaussian", sigma), sigma)
    rule = str(library.value)
    assert rule.startswith("bandwidth must be in [1e-06, 3]")
    weight = {"kind": "balanced", "sigma": sigma}
    for command, payload, field in (
        ("verify-stationarity", qubit_config(weight=weight), "weight.sigma"),
        ("sweep-sigma", qubit_config(run={"sigma_sweep": [sigma]}), "run.sigma_sweep entry"),
    ):
        message = _usage_error_before_any_build(tmp_path, monkeypatch, capsys, command, payload)
        assert message == rule.replace("bandwidth", field, 1)


def test_assembly_path_follows_the_generator_rule(tmp_path, monkeypatch, capsys):
    """An unknown ``generator.path`` is refused before any build with the
    message ``localised_generator`` gives."""
    with pytest.raises(ValidationError) as library:
        localised_generator(qubit_model(), balanced_gamma("gaussian", 1.0), 1.0, path="bogus")
    payload = qubit_config(generator={"kind": "localised", "path": "bogus"})
    message = _usage_error_before_any_build(
        tmp_path, monkeypatch, capsys, "verify-stationarity", payload
    )
    assert message == str(library.value)
    assert "known: ['bohr_sum', 'omega_quadrature']" in message


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-stationarity", qubit_config(run={"seeds": ["abc"]})),
        ("evolve", qubit_config(run={"times": [0, "abc"]})),
        ("evolve", qubit_config(run={"times": [0, math.nan]})),
        ("evolve", qubit_config(run={"times": [0, math.inf]})),
        ("verify-stationarity", qubit_config(model={"name": "oscillator", "dim": "x"})),
        ("verify-stationarity", qubit_config(model={"name": "line", "jump_coefficients": ["a", 1]})),
        ("verify-stationarity", qubit_config(model={"name": "line", "jump_coefficients": [1]})),
        ("verify-stationarity", qubit_config(model={"name": "torus", "jump_coefficients": []})),
        ("verify-stationarity", qubit_config(model={"name": "line", "n_grid": 16.7})),
        ("verify-stationarity", qubit_config(model={"name": "oscillator", "dim": "6"})),
        ("verify-stationarity", qubit_config(weight={"kind": "balanced", "sigma": True})),
        ("verify-stationarity", qubit_config(weight={"kind": "balanced", "sigma": "0.5"})),
        ("verify-stationarity", qubit_config(run={"seeds": [1.9]})),
        ("sweep-sigma", qubit_config(run={"sigma_sweep": []})),
    ],
    ids=[
        "seed-text", "time-text", "time-nan", "time-infinity", "model-dim-text",
        "model-list-text", "line-jumps-short", "torus-jumps-empty", "n-grid-fraction",
        "dim-numeric-text", "sigma-boolean", "sigma-numeric-text", "seed-fraction",
        "sweep-empty",
    ],
)
def test_malformed_numbers_exit_two_before_any_build(
    tmp_path, monkeypatch, capsys, command, payload
):
    """JSON readers accept ``NaN`` and ``Infinity``; such numbers, text or a
    boolean where a number belongs, a fraction where an integer belongs,
    and an empty bandwidth ladder are usage errors, not crashes (5), runs
    that crash later, or runs of a coerced value (``16.7`` ran line16,
    ``true`` sigma = 1, and an empty ladder crashed on the empty ``max``
    of its rows)."""
    builds = []
    for name in ("localised_generator", "davies_generator", "davies_limit_report"):
        monkeypatch.setattr(gibbslab.cli, name, lambda *a, **k: builds.append(a))
    assert main([command, "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert builds == []


_REFUSED_POTENTIALS = {
    "line-coefficient-alone": (
        {"name": "line", "potential_coefficient": 2.0},
        "model.potential_coefficient needs a named model.potential",
    ),
    "torus-coefficient-alone": (
        {"name": "torus", "potential_coefficient": 5.0},
        "model.potential_coefficient needs a named model.potential",
    ),
    "line-values-and-named": (
        {
            "name": "line",
            "potential": "quartic",
            "potential_coefficient": 3.0,
            "potential_values": [1.0] * 16,
        },
        "model.potential_values gives the potential itself; "
        "drop model.potential, model.potential_coefficient",
    ),
    "torus-values-and-coefficient": (
        {"name": "torus", "potential_coefficient": 3.0, "potential_values": [0, 1] * 6},
        "model.potential_values gives the potential itself; drop model.potential_coefficient",
    ),
}


@pytest.mark.parametrize("command", ["verify-stationarity", "sweep-sigma", "evolve"])
@pytest.mark.parametrize("case", list(_REFUSED_POTENTIALS))
def test_unread_potential_keys_exit_two_before_any_build(
    tmp_path, monkeypatch, capsys, command, case
):
    """A potential key the model would not read is refused, naming the
    keys: a coefficient without a named potential ran the default
    potential, and values beside a named potential or a coefficient ran
    the values alone, each with exit 0."""
    model, message = _REFUSED_POTENTIALS[case]
    builds = []
    for name in ("localised_generator", "davies_generator"):
        monkeypatch.setattr(gibbslab.cli, name, lambda *a, **k: builds.append(a))
    payload = qubit_config(model=model)
    assert main([command, "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert builds == []


def test_each_potential_form_reaches_the_model():
    """The forms that are accepted are read: a named potential's
    coefficient, and values in place of the default potential."""
    def hamiltonian(**params):
        return model_from_config(params).hamiltonian

    quartic = {"name": "line", "potential": "quartic"}
    assert not np.array_equal(
        hamiltonian(**quartic, potential_coefficient=3.0), hamiltonian(**quartic)
    )
    assert not np.array_equal(
        hamiltonian(name="torus", potential_values=[0, 1] * 6), hamiltonian(name="torus")
    )


@pytest.mark.parametrize("command", ["verify-stationarity", "sweep-sigma", "evolve"])
@pytest.mark.parametrize(
    "phi_name", [5, None, ["gaussian"], "Gaussian"], ids=["number", "null", "list", "capitalised"]
)
def test_unknown_profile_name_exits_two_before_any_build(
    tmp_path, monkeypatch, capsys, command, phi_name
):
    """``weight.phi_name`` is one of the library's profile names; anything
    else is a usage error caught before the model is built."""
    builds = []
    for name in ("model_from_config", "localised_generator", "davies_generator"):
        monkeypatch.setattr(gibbslab.cli, name, lambda *a, **k: builds.append(a))
    payload = qubit_config(weight={"kind": "balanced", "phi_name": phi_name})
    assert main([command, "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: unknown profile name {phi_name!r}; "
        "known profiles: ['exp_abs', 'gaussian', 'sech']\n"
    )
    assert builds == []


@pytest.mark.parametrize(
    "model, kind",
    [
        ({"dim": 2, "spectrum": [0, 800]}, "glauber"),
        ({"dim": 3, "spectrum": [0, 1, 800]}, "metropolis"),
    ],
    ids=["glauber", "metropolis"],
)
def test_wide_spectrum_davies_config_exits_two(tmp_path, capsys, model, kind):
    """A detailed-balance config past the spectral-width cap is a usage
    error with the filtered family's message, not a crash on a NaN check
    value (it exited 5)."""
    payload = {"model": {"name": "random", **model}, "weight": {"kind": kind}}
    assert main(["verify-stationarity", "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: largest Bohr frequency 800 exceeds the supported range 600\n"


_MALFORMED_SECTIONS = {
    "top-level-array": ([1, 2], "config"),
    "weight-text": ({"weight": "balanced"}, "weight"),
    "generator-array": ({"generator": ["x"]}, "generator"),
    "run-number": ({"run": 5}, "run"),
    "output-text": ({"output": "csv"}, "output"),
    "tolerances-array": ({"run": {"tolerances": [1]}}, "run.tolerances"),
    "times-number": ({"run": {"times": 3}}, "run.times"),
    "sweep-text": ({"run": {"sigma_sweep": "21"}}, "run.sigma_sweep"),
    "seeds-number": ({"run": {"seeds": 5}}, "run.seeds"),
    "model-name-array": ({"model": {"name": ["line"]}}, "model"),
    "model-empty": ({"model": {}}, "model"),
    "weight-empty-array": ({"weight": []}, "weight"),
    "output-path-number": ({"output": {"path": 3}}, "output.path"),
}


@pytest.mark.parametrize("command", ["verify-stationarity", "sweep-sigma", "evolve"])
@pytest.mark.parametrize(
    "payload, section", _MALFORMED_SECTIONS.values(), ids=list(_MALFORMED_SECTIONS)
)
def test_malformed_section_exits_two_and_names_it(
    tmp_path, monkeypatch, capsys, command, payload, section
):
    """A config, or a section of one, that is not a JSON object, a run list
    that is not a list, and a model without a string name are usage errors
    naming what is wrong, not crashes (5) or runs of the defaults."""
    builds = []
    monkeypatch.setattr(gibbslab.cli, "model_from_config", lambda *a, **k: builds.append(a))
    assert main([command, "--config", write_config(tmp_path, payload)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section} ")
    assert "Traceback" not in err
    assert builds == []


@pytest.mark.parametrize("command", ["verify-stationarity", "sweep-sigma", "evolve"])
def test_missing_or_null_section_is_its_defaults(command):
    nulls = {key: None for key in ("model", "weight", "generator", "run", "output")}
    nulls["run"] = {"tolerances": None}
    defaults = normalised_config({}, command)
    assert normalised_config(nulls, command) == defaults
    assert normalised_config(None, command) == defaults
    assert defaults["model"] == {"name": "qubit"}


def test_integral_numbers_are_read_as_integers():
    """An integer field takes an integral JSON number written as a float."""
    integral = qubit_config(model={"name": "oscillator", "dim": 4.0}, run={"seeds": [3.0]})
    config = normalised_config(integral, "verify-stationarity")
    assert config["run"]["seeds"] == [3] and type(config["run"]["seeds"][0]) is int
    assert model_from_config(config["model"]).dim == 4


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["verify-stationarity", "--seed", "-1"], qubit_config()),
        (["sweep-sigma", "--seed", "-1"], qubit_config(run={"sigma_sweep": [0.5]})),
        (["evolve", "--seed", "-1"], qubit_config(run={"initial_state": "random"})),
        (["selftest", "--seed", "-1"], None),
        (["verify-stationarity"], qubit_config(run={"seeds": [-3]})),
    ],
    ids=["verify", "sweep", "evolve-random", "selftest", "config-seeds"],
)
def test_negative_seed_exits_two_before_any_build(tmp_path, monkeypatch, capsys, argv, payload):
    """``np.random.default_rng`` takes non-negative seeds only: a negative
    one is a usage error, not a crash (5) where the first draw is made."""
    builds = []
    for name in ("model_from_config", "qubit_model"):
        monkeypatch.setattr(gibbslab.cli, name, lambda *a, **k: builds.append(a))
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, payload)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "must be a non-negative integer" in err
    assert "Traceback" not in err
    assert builds == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-stationarity", "--report", "{missing}/report.json"],
        ["sweep-sigma", "--out", "{missing}/table.csv"],
        ["verify-stationarity", "--export-bundle", "{missing}/bundle.json"],
    ],
    ids=["report", "out", "export-bundle"],
)
def test_unwritable_output_path_exits_two_and_names_it(tmp_path, capsys, argv):
    """A destination in a directory that does not exist is a usage error
    naming the path, as an unreadable config is, not a crash (5)."""
    missing = tmp_path / "no-such-dir"
    config = write_config(tmp_path, qubit_config(run={"sigma_sweep": [0.5]}))
    argv = [arg.format(missing=missing) for arg in argv] + ["--config", config]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write '{missing}/")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, reason",
    [(b"\xff\xfe{}", "is not UTF-8 text"), (b"[" * 100_000, "nests too deeply to read")],
    ids=["not-utf8", "nested-too-deep"],
)
def test_unreadable_config_exits_two_and_names_it(tmp_path, capsys, content, reason):
    """A config that is not UTF-8 text, or whose nesting the JSON reader
    cannot follow, is a usage error naming the file, not a crash (5)."""
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["verify-stationarity", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(path)!r} {reason}")
    assert "Traceback" not in err


def test_crash_exits_five_with_a_traceback(tmp_path, monkeypatch, capsys):
    """An unexpected exception is told apart from a failed check (1), a usage
    error (2) and a fired guard (4)."""

    def crash(config, args, seed):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(gibbslab.cli, "cmd_verify_stationarity", crash)
    config = write_config(tmp_path, qubit_config())
    assert EXIT_CRASH == 5
    assert main(["verify-stationarity", "--config", config]) == EXIT_CRASH
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert "RuntimeError: injected crash" in err


def test_cross_check_failure_exits_four(tmp_path, monkeypatch, capsys):
    """A fired numerical guard is told apart from a usage error and from a
    failed check."""
    smooth = gibbslab.oft.smoothed_weight_table
    monkeypatch.setattr(
        gibbslab.oft,
        "smoothed_weight_table",
        lambda *args, **kwargs: smooth(*args, **kwargs) * (1.0 + 1e-6),
    )
    config = write_config(tmp_path, qubit_config())
    assert EXIT_NUMERICAL_GUARD == 4
    assert main(["verify-stationarity", "--config", config]) == EXIT_NUMERICAL_GUARD
    assert "definitional quadrature" in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "one-point-zero"])
def test_schema_version_must_be_the_integer(tmp_path, capsys, version):
    """``true == 1`` and ``1.0 == 1`` in Python; neither is read as version 1."""
    config = write_config(tmp_path, qubit_config(schema_version=version))
    assert main(["verify-stationarity", "--config", config]) == EXIT_USAGE
    assert f"unsupported schema_version {version!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [
        {"name": "oscillator", "dim": 1e300},
        {"name": "line", "n_grid": 10**6},
        {"name": "torus", "n_grid": 10**6},
        {"name": "random", "dim": 10**6},
        {"name": "random", "dim": 2, "n_jump_pairs": 1e300},
    ],
    ids=["oscillator-1e300", "line", "torus", "random", "random-jumps-1e300"],
)
def test_model_too_large_for_the_host_exits_four(tmp_path, capsys, model):
    """A model whose generator or jumps no host could hold is refused by the
    memory guard before anything is allocated, naming the estimate."""
    config = write_config(tmp_path, qubit_config(model=model))
    assert main(["verify-stationarity", "--config", config]) == EXIT_NUMERICAL_GUARD
    err = capsys.readouterr().err
    assert err.startswith("numerical guard:")
    assert "GiB to build its generator (2 x 16 d^4 bytes)" in err


@pytest.mark.parametrize(
    "model, time",
    [({"name": "qubit"}, 1e50), ({"name": "oscillator", "dim": 4}, 1e300)],
    ids=["qubit", "oscillator4"],
)
def test_non_finite_step_exponential_exits_four(tmp_path, capsys, model, time):
    """``expm(t S)`` is NaN from about t = 1e40; the step guard names the
    step instead of letting the snapshot eigensolver crash on it."""
    config = write_config(tmp_path, qubit_config(model=model, run={"times": [time]}))
    assert main(["evolve", "--config", config]) == EXIT_NUMERICAL_GUARD
    err = capsys.readouterr().err
    assert err.startswith("numerical guard:")
    assert f"dt = {time!r}" in err


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["verify-stationarity"], qubit_config()),
        (["evolve"], qubit_config()),
        (["sweep-sigma"], qubit_config(run={"sigma_sweep": [0.5]})),
    ],
    ids=["verify", "evolve", "sweep"],
)
def test_each_command_builds_its_model_once(tmp_path, monkeypatch, argv, payload):
    """The command's one build validates the model section; normalising
    the config builds nothing."""
    builds = []
    build = gibbslab.cli.model_from_config

    def counting(config):
        builds.append(config)
        return build(config)

    monkeypatch.setattr(gibbslab.cli, "model_from_config", counting)
    config = write_config(tmp_path, payload)
    assert main(argv + ["--config", config, "--report", str(tmp_path / "r.json")]) == EXIT_OK
    assert builds == [payload["model"]]


def test_main_parses_each_call_afresh(tmp_path, monkeypatch):
    """The parser is built once, and consecutive calls with different
    subcommands and flags each see only their own arguments."""
    seen = []

    def recorder(name):
        def command(config, args, seed):
            seen.append((name, vars(args).copy()))
            return [], None, {}, None

        return command

    for name in ("cmd_verify_stationarity", "cmd_sweep_sigma", "cmd_evolve", "cmd_selftest"):
        monkeypatch.setattr(gibbslab.cli, name, recorder(name))
    config = write_config(tmp_path, qubit_config())
    verify = ["verify-stationarity", "--config", config]
    calls = [
        verify + ["--seed", "3", "--check", "trace_functional", "--negative-control"],
        ["sweep-sigma", "--config", config, "--out", "table.csv"],
        verify,
        ["selftest", "--seed", "10"],
        ["selftest"],
    ]
    for argv in calls:
        assert main(argv) == EXIT_OK
    assert gibbslab.cli._build_parser() is gibbslab.cli._build_parser()
    common = {"config": config, "seed": None, "report": None}
    plain_verify = {
        "command": "verify-stationarity",
        **common,
        "check": None,
        "negative_control": False,
        "export_bundle": None,
    }
    flagged_verify = {**plain_verify, "seed": 3, "check": "trace_functional", "negative_control": True}
    plain_selftest = {"command": "selftest", "seed": None, "report": None}
    assert seen == [
        ("cmd_verify_stationarity", flagged_verify),
        ("cmd_sweep_sigma", {"command": "sweep-sigma", **common, "out": "table.csv"}),
        ("cmd_verify_stationarity", plain_verify),
        ("cmd_selftest", {**plain_selftest, "seed": 10}),
        ("cmd_selftest", plain_selftest),
    ]


def test_filtered_commands_leave_scipy_integrate_and_optimize_unloaded(tmp_path):
    """A fresh interpreter runs ``verify-stationarity`` and ``sweep-sigma``
    on the qubit without importing ``scipy.integrate`` or
    ``scipy.optimize``: the cross-check is numpy-only."""
    config = write_config(tmp_path, qubit_config())
    report, table = str(tmp_path / "r.json"), str(tmp_path / "t.csv")
    script = (
        "import json, sys\n"
        "from gibbslab.cli import main\n"
        f"codes = [main(['verify-stationarity', '--config', {config!r}, '--report', {report!r}]),\n"
        f"         main(['sweep-sigma', '--config', {config!r}, '--report', {report!r},\n"
        f"               '--out', {table!r}])]\n"
        "loaded = [m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    package_root = str(Path(gibbslab.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [EXIT_OK, EXIT_OK], "loaded": []}


# ---------------------------------------------------------------------------
# Bandwidth sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_report_the_cross_check(tmp_path):
    payload = qubit_config(run={"sigma_sweep": [1.0, 0.1]}, output={"format": "json"})
    config = write_config(tmp_path, payload)
    report_path = tmp_path / "r.json"
    out_path = tmp_path / "sweep.json"
    assert main(
        ["sweep-sigma", "--config", config, "--report", str(report_path), "--out", str(out_path)]
    ) == EXIT_OK
    rows = json.loads(report_path.read_text())["data"]["rows"]
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["overlap_cross_check_defect"] <= 1e-8
        assert row["overlap_cross_check_evaluations"] > 0
        assert row["overlap_smoothing_rule"] == "closed_form"
    # The data artifact keeps its columns.
    assert "overlap_cross_check_defect" not in json.loads(out_path.read_text())["columns"]


def test_sweep_produces_monotone_columns(tmp_path):
    payload = qubit_config(run={"sigma_sweep": [1.0, 0.5, 0.25]})
    config = write_config(tmp_path, payload)
    out_path = tmp_path / "sweep.csv"
    report_path = tmp_path / "sweep_report.json"
    code = main([
        "sweep-sigma", "--config", config,
        "--out", str(out_path), "--report", str(report_path),
    ])
    assert code == EXIT_OK
    text = out_path.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    metadata = [line for line in lines if line.startswith("#")]
    assert any("gibbslab_version" in line for line in metadata)
    assert any("flag_davies_distance_p1_nonincreasing=true" in line for line in metadata)
    header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[header_index].split(",")
    assert header[0] == "sigma"
    assert {"davies_distance_p1", "coherent_norm_B", "b1_l1", "stationarity_residual"} <= set(header)
    rows = [line.split(",") for line in lines[header_index + 1:] if line]
    assert len(rows) == 3
    distances = [float(row[header.index("davies_distance_p1")]) for row in rows]
    assert distances[0] > distances[1] > distances[2]
    b1_column = [float(row[header.index("b1_l1")]) for row in rows]
    assert b1_column[0] < b1_column[1] < b1_column[2]
    assert b1_column[-1] < math.sqrt(math.pi) / 32.0


def test_sweep_runs_below_the_old_oracle_limit(tmp_path):
    """At sigma=0.01 the filter product is 1/12000 of the cross-check's
    window; the sweep's overlap table must still pass its cross-check."""
    payload = qubit_config(run={"sigma_sweep": [0.01]}, output={"format": "json"})
    config = write_config(tmp_path, payload)
    out_path = tmp_path / "sweep.json"
    assert main(["sweep-sigma", "--config", config, "--out", str(out_path)]) == EXIT_OK
    assert [row[0] for row in json.loads(out_path.read_text())["rows"]] == [0.01]


def test_sweep_is_byte_deterministic(tmp_path):
    payload = qubit_config(run={"sigma_sweep": [1.0, 0.5]})
    config = write_config(tmp_path, payload)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sweep-sigma", "--config", config, "--out", str(first)]) == EXIT_OK
    assert main(["sweep-sigma", "--config", config, "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_sweep_single_sigma_emits_no_flags(tmp_path):
    payload = qubit_config(run={"sigma_sweep": [0.5]})
    config = write_config(tmp_path, payload)
    out_path = tmp_path / "one.csv"
    assert main(["sweep-sigma", "--config", config, "--out", str(out_path)]) == EXIT_OK
    assert "flag_" not in out_path.read_text()


def test_sweep_requires_localised_balanced(tmp_path):
    payload = {
        "schema_version": 1,
        "model": {"name": "qubit"},
        "weight": {"kind": "glauber"},
    }
    config = write_config(tmp_path, payload)
    assert main(["sweep-sigma", "--config", config]) == EXIT_USAGE


def test_sweep_json_format(tmp_path):
    payload = qubit_config(
        run={"sigma_sweep": [1.0, 0.5]}, output={"format": "json"}
    )
    config = write_config(tmp_path, payload)
    out_path = tmp_path / "sweep.json"
    assert main(["sweep-sigma", "--config", config, "--out", str(out_path)]) == EXIT_OK
    data = json.loads(out_path.read_text())
    assert set(data) == {"metadata", "columns", "rows"}
    assert len(data["rows"]) == 2


# ---------------------------------------------------------------------------
# Evolution runs
# ---------------------------------------------------------------------------


def test_evolve_excited_qubit_reaches_gibbs(tmp_path):
    payload = qubit_config(
        run={"times": [0.0, 1.0, 5.0, 20.0], "initial_state": "excited"}
    )
    config = write_config(tmp_path, payload)
    out_path = tmp_path / "trajectory.csv"
    report_path = tmp_path / "report.json"
    code = main([
        "evolve", "--config", config,
        "--out", str(out_path), "--report", str(report_path),
    ])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["final_gibbs_distance"]["value"] < 1e-6
    assert checks["trace_deviation_max"]["pass"]
    assert checks["min_eigenvalue_worst"]["pass"]
    assert checks["choi_min_eigenvalue"]["pass"]
    lines = [l for l in out_path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["t", "trace", "min_eig", "gibbs_distance"]
    assert len(lines) - 1 == 4


def test_evolve_report_times_stages_and_counts_exponentials(tmp_path):
    payload = qubit_config(
        run={"times": [0.0, 5.0, 10.0, 20.0], "initial_state": "excited"}
    )
    config = write_config(tmp_path, payload)
    report_path = tmp_path / "report.json"
    code = main(["evolve", "--config", config, "--report", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert set(report["timing"]["stages"]) == {"frame_s", "build_s", "evolve_s", "choi_s"}
    assert all(v >= 0.0 for v in report["timing"]["stages"].values())
    # Steps 5, 5 and 10; the Choi check at t = 20 needs one more.
    assert report["data"]["step_exponentials"] == 3


def test_evolve_time_zero_only(tmp_path):
    payload = qubit_config(run={"times": [0.0], "initial_state": "gibbs"})
    config = write_config(tmp_path, payload)
    out_path = tmp_path / "t0.csv"
    code = main(["evolve", "--config", config, "--out", str(out_path)])
    assert code == EXIT_OK
    rows = [l for l in out_path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) - 1 == 1


def test_evolve_unconverged_run_fails_the_distance_check(tmp_path):
    payload = qubit_config(run={"times": [0.0], "initial_state": "maximally_mixed"})
    config = write_config(tmp_path, payload)
    report_path = tmp_path / "r.json"
    code = main(["evolve", "--config", config, "--report", str(report_path)])
    assert code == EXIT_CHECK_FAILURE
    report = json.loads(report_path.read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert not checks["final_gibbs_distance"]["pass"]
    assert checks["trace_deviation_max"]["pass"]


def test_evolve_seeded_random_state_is_deterministic(tmp_path, capsys):
    payload = qubit_config(run={"times": [0.0, 20.0], "initial_state": "random", "seeds": [7]})
    config = write_config(tmp_path, payload)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evolve", "--config", config, "--out", str(a)]) == EXIT_OK
    assert main(["evolve", "--config", config, "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "command, run, artifact",
    [
        ("verify-stationarity", {}, False),
        ("sweep-sigma", {"sigma_sweep": [1.0, 0.5]}, True),
        ("evolve", {"times": [0.0, 1.0], "initial_state": "random"}, True),
    ],
    ids=["verify", "sweep", "evolve-random"],
)
def test_seeded_report_reproduces_from_its_echoed_config(tmp_path, command, run, artifact):
    """Under ``--seed`` the report echoes the seed it ran with, so its
    config alone reproduces the report outside ``timing`` (it echoed the
    config's seed, and random4's Hermiticity check moved from 2.8188e-16 to
    3.3059e-16 when the echo was run)."""
    payload = qubit_config(model=_RANDOM4, run=run)
    codes, reports, tables = [], [], []
    for k, extra in enumerate((["--seed", "77"], [])):
        config = write_config(tmp_path, payload, f"config{k}.json")
        argv = [command, "--config", config, "--report", str(tmp_path / f"r{k}.json")]
        if artifact:
            argv += ["--out", str(tmp_path / f"t{k}.csv")]
            tables.append(tmp_path / f"t{k}.csv")
        codes.append(main(argv + extra))
        report = json.loads((tmp_path / f"r{k}.json").read_text())
        report["timing"] = None
        reports.append(report)
        payload = report["config"]
    assert reports[0]["config"]["run"]["seeds"] == [77]
    assert codes[0] == codes[1] and reports[0] == reports[1]
    assert len({t.read_bytes() for t in tables}) == (1 if artifact else 0)


# ---------------------------------------------------------------------------
# Bundle export
# ---------------------------------------------------------------------------


def test_bundle_export_round_trips(tmp_path):
    config_payload = qubit_config()
    config = write_config(tmp_path, config_payload)
    bundle_path = tmp_path / "bundle.json"
    code = main([
        "verify-stationarity", "--config", config,
        "--export-bundle", str(bundle_path),
        "--report", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_OK
    payload = json.loads(bundle_path.read_text())
    assert payload["kind"] == "localised"
    assert payload["dim"] == 2
    model = model_from_config(config_payload["model"])
    weight = balanced_gamma("gaussian", 1.0)
    bundle = localised_generator(model, weight, 1.0)
    for key, reference in (
        ("hamiltonian", model.hamiltonian),
        ("coherent_matrix", bundle.coherent_matrix),
        ("superoperator", bundle.superoperator),
    ):
        decoded = decode_matrix(payload["matrices"][key])
        assert np.allclose(decoded, reference, atol=1e-12)


@pytest.mark.parametrize(
    "model",
    [{"name": "line", "n_grid": 16}, {"name": "torus", "n_grid": 12}],
    ids=["line16", "torus12"],
)
def test_exported_bundle_is_the_canonical_rendering(tmp_path, model):
    """The payloads spliced into the rendered document give the bytes that
    rendering the whole document, payloads included, gives: the file is
    ``render_report`` of what it parses to."""
    bundle = localised_generator(model_from_config(model), balanced_gamma("gaussian", 1.0), 1.0)
    path = tmp_path / "bundle.json"
    export_bundle(bundle, str(path))
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert render_report(doc) == text
    assert decode_matrix(doc["matrices"]["superoperator"]).tobytes() == (
        np.ascontiguousarray(bundle.superoperator).tobytes()
    )


# ---------------------------------------------------------------------------
# Selftest battery
# ---------------------------------------------------------------------------


def test_selftest_passes(tmp_path):
    report_path = tmp_path / "selftest.json"
    code = main(["selftest", "--report", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["overall_pass"] is True
    # Labels, modes, tolerances and order of the sixteen checks.
    checks = report["checks"]
    assert [(c["name"], c["mode"], c["tolerance"]) for c in checks] == [
        ("davies_stationarity_qubit_glauber", "upper", 1e-12),
        ("davies_stationarity_oscillator6_metropolis", "upper", 1e-12),
        ("filtered_stationarity_qubit_gaussian", "upper", 1e-9),
        ("filtered_stationarity_random4_seed5_sech", "upper", 1e-9),
        ("dual_path_dense_model", "upper", 1e-8),
        ("fault_injection_detected", "lower", 1e-3),
        ("negative_control_residual", "lower", 1e-4),
        ("coherent_orientation_agreement", "upper", 1e-6),
        ("coherent_l1_limit", "upper", 1e-3),
        ("drift_abscissa_dense_model", "upper", 1e-10),
        ("trace_functional_dense_model", "upper", 1e-12),
        ("hermiticity_preservation_dense_model", "upper", 1e-12),
        ("qubit_convergence_t20", "upper", 1e-6),
        ("choi_min_eigenvalue_qubit_t1", "floor", 1e-8),
        ("semigroup_split_qubit", "upper", 1e-10),
        ("contraction_worst_increase", "upper", 1e-9),
    ]


def test_selftest_times_each_group_and_builds_the_qubit_once(tmp_path, monkeypatch):
    builds = []
    original = gibbslab.cli.localised_generator

    def counting(model, weight, sigma, **kwargs):
        builds.append((model.model_id, weight.kind, weight.phi_name, sigma))
        return original(model, weight, sigma, **kwargs)

    monkeypatch.setattr(gibbslab.cli, "localised_generator", counting)
    report_path = tmp_path / "selftest.json"
    assert main(["selftest", "--report", str(report_path)]) == EXIT_OK
    assert builds.count(("qubit", "balanced_from_phi", "gaussian", 1.0)) == 1
    timing = json.loads(report_path.read_text())["timing"]
    stages = timing["stages"]
    assert set(stages) == {"davies_s", "filtered_s", "dual_path_s", "calibration_s", "evolution_s"}
    assert all(v >= 0.0 for v in stages.values())
    assert sum(stages.values()) <= timing["elapsed_seconds"]


def test_selftest_tighten_is_a_usage_error(capsys):
    """The margin on every check line says how far each tolerance could
    shrink, so ``selftest`` takes no ``--tighten`` factor: argparse refuses
    it as an unknown argument."""
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--tighten", "10"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --tighten 10" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Check lines
# ---------------------------------------------------------------------------

_MODE_HOLDS = {
    "upper": lambda value, tolerance: value <= tolerance,
    "lower": lambda value, tolerance: value >= tolerance,
    "floor": lambda value, tolerance: value >= -tolerance,
}


def _passes_by_margin(line: dict) -> bool:
    return line["margin"] is not None and line["margin"] <= 1


@pytest.mark.parametrize("tolerance", [5e-324, 1e-12, 1e-3, 1.0, 3.0])
@pytest.mark.parametrize("mode", ["upper", "lower", "floor"])
def test_check_passes_exactly_when_its_margin_is_at_most_one(mode, tolerance):
    """At the mode's edge (the tolerance, or its negative for ``floor``) and
    at the doubles either side of it, a line passes exactly when its margin
    is at most 1, which is when the mode's comparison holds; at the edge
    the margin is 1."""
    edge = -tolerance if mode == "floor" else tolerance
    for value in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
        line = gibbslab.cli._check("probe", value, tolerance, mode)
        assert line["pass"] is bool(_MODE_HOLDS[mode](value, tolerance))
        assert line["pass"] == _passes_by_margin(line)
    assert gibbslab.cli._check("probe", edge, tolerance, mode)["margin"] == 1.0


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from(sorted(_MODE_HOLDS)),
)
def test_margin_agrees_with_the_mode_and_renders(value, tolerance, mode):
    """For any finite value and positive tolerance the margin decides the
    same verdict as the mode's comparison, and it renders under
    ``allow_nan=False``: a ratio past the largest double reads as it."""
    line = gibbslab.cli._check("probe", value, tolerance, mode)
    assert line["pass"] is bool(_MODE_HOLDS[mode](value, tolerance))
    assert line["pass"] == _passes_by_margin(line)
    assert json.loads(render_report(line)) == line


@pytest.mark.parametrize("value", [0.0, -0.0, -5e-324, -2.0])
def test_lower_check_at_or_below_zero_has_no_margin_and_fails(value):
    line = gibbslab.cli._check("fault_injection_detected", value, 1e-3, "lower")
    assert line["margin"] is None and line["pass"] is False
    assert '"margin": null' in render_report(line)


def test_margin_is_the_share_of_the_tolerance_used():
    check = gibbslab.cli._check
    assert check("a", 2.5e-13, 1e-12, "upper")["margin"] == 0.25
    assert check("b", -2.5e-13, 1e-12, "upper")["margin"] == -0.25
    assert check("c", -5e-9, 1e-8, "floor")["margin"] == 0.5
    assert check("d", 0.25, 1e-3, "lower")["margin"] == 0.004


@pytest.mark.parametrize(
    "argv, payload, code",
    [
        (["verify-stationarity"], qubit_config(), EXIT_OK),
        (["verify-stationarity", "--negative-control"], qubit_config(), EXIT_OK),
        (["verify-stationarity"], {"model": _RANDOM4, "weight": {"kind": "metropolis"}}, EXIT_OK),
        (["sweep-sigma"], qubit_config(run={"sigma_sweep": [1.0, 0.5]}), EXIT_OK),
        (["evolve"], qubit_config(run={"times": [0.0, 20.0]}), EXIT_OK),
        (["evolve"], qubit_config(model=_RANDOM4), EXIT_CHECK_FAILURE),
        (
            ["evolve"],
            qubit_config(
                run={
                    "times": [0.0, 20.0],
                    "initial_state": "maximally_mixed",
                    "tolerances": {"min_eigenvalue": 5e-324},
                }
            ),
            EXIT_OK,
        ),
        (["selftest"], None, EXIT_OK),
    ],
    ids=["verify", "verify-negative-control", "verify-davies", "sweep", "evolve",
         "evolve-failing", "evolve-overflowing-margin", "selftest"],
)
def test_every_check_line_carries_its_margin(tmp_path, argv, payload, code):
    """Each command's check lines, passing and failing, carry a margin that
    decides their verdict, and the report renders with ``allow_nan=False``."""
    report_path = tmp_path / "r.json"
    argv = argv + ["--report", str(report_path)]
    if payload is not None:
        argv += ["--config", write_config(tmp_path, payload)]
    if argv[0] in ("sweep-sigma", "evolve"):
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == code
    report = json.loads(report_path.read_text())
    assert report["checks"]
    for line in report["checks"]:
        assert set(line) == {"name", "value", "tolerance", "mode", "margin", "pass"}
        assert line["pass"] == _passes_by_margin(line)
    assert render_report(report) == report_path.read_text()


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_reports_are_stable_json(tmp_path):
    config = write_config(tmp_path, qubit_config())
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-stationarity", "--config", config, "--report", str(a)]) == EXIT_OK
    assert main(["verify-stationarity", "--config", config, "--report", str(b)]) == EXIT_OK
    report_a = json.loads(a.read_text())
    report_b = json.loads(b.read_text())
    report_a["timing"] = report_b["timing"] = None
    assert report_a == report_b
