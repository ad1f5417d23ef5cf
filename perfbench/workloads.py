"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is built from a seed.  ``build`` writes the configs, builds
the inputs and does one warm-up build that pays the lazy
``scipy.integrate`` import; this is what ``setup_s`` times.  A round runs
every operation once, and every round of a run repeats the same
operations in the same order.  ``Workload.check`` then compares the
program's outputs with the independent references in ``reference.py`` and
with properties the method must have, outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gibbslab.cli
from gibbslab import bohr, evolution, models, oft, weights
from gibbslab.errors import GibbsLabError
from gibbslab.generators import localised_generator

import reference as ref

QUBIT = {"name": "qubit"}
OSCILLATOR6 = {"name": "oscillator", "dim": 6}
RANDOM4 = {"name": "random", "dim": 4, "seed": 5, "spectrum": [1.0, 1.7, 3.1, 4.6]}
RANDOM6 = {"name": "random", "dim": 6, "seed": 3, "spectrum": [0.0, 0.5, 1.5, 3.5, 6.0, 10.0]}
TORUS12 = {"name": "torus", "n_grid": 12}
LINE16 = {"name": "line", "n_grid": 16}
LINE24 = {"name": "line", "n_grid": 24}
LINE32 = {"name": "line", "n_grid": 32}
# Spectra of the seeded random models of sigma_ladder.  Their Bohr
# frequencies are at least 0.25 apart: near-degenerate ones make the distance
# to the unfiltered limit stop falling once sigma is below their gap.
SPECTRUM3 = [0.0, 0.8, 2.0]
SPECTRUM5 = [0.0, 1.14, 1.69, 3.11, 4.0]

# The sigma=0.01 qubit rung fails on every run: oft._definitional_entry, the
# QUADPACK cross-check inside every overlap_table build, integrates over a
# window that misses the narrow filter product and returns about half the
# true entry, so overlap_table raises and sweep-sigma exits 2.
KNOWN_FAULT = "overlap table disagrees with definitional quadrature"
KNOWN_FAULT_NOTE = (
    "oft._definitional_entry integrates over a window that misses the narrow "
    "filter product at sigma <= 0.01 (ROADMAP item 3); the table itself agrees "
    "with the windowed QUADPACK reference"
)


class OpFailed(Exception):
    """An operation that ran but did not succeed (non-zero CLI exit)."""

    def __init__(self, value):
        super().__init__(value)
        self.value = value


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    group: str = ""
    known_fault: str | None = None


@dataclass
class Outcome:
    op: Op
    round: int
    seconds: float
    ok: bool
    value: object


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str

    def report(self) -> dict:
        # The run report is the last JSON document the command prints.
        return json.loads(self.stdout[self.stdout.rfind("\n{\n") + 1 :])


def cli_op(label: str, argv: list[str], *, group: str = "", known_fault=None) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gibbslab.cli.main(argv)
        run = CliRun(code, out.getvalue(), err.getvalue())
        if code != 0:
            raise OpFailed(run)
        return run

    return Op(label, call, group, known_fault)


def execute(op: Op, round_index: int, clock) -> Outcome:
    start = clock()
    try:
        value, ok = op.call(), True
    except OpFailed as exc:
        value, ok = exc.value, False
    except GibbsLabError as exc:
        value, ok = exc, False
    return Outcome(op, round_index, clock() - start, ok, value)


def failure_notes(outcomes: list[Outcome]) -> tuple[list[str], list[str]]:
    """(problems, notes): unexpected failures, and one note per known fault."""
    problems, notes = [], {}
    for o in outcomes:
        if o.ok:
            continue
        v = o.value
        if o.op.known_fault and isinstance(v, CliRun) and v.code == 2 and o.op.known_fault in v.stderr:
            notes[o.op.label] = (
                f"known fault: {o.op.label} exits {v.code}: {v.stderr.strip()} -- {KNOWN_FAULT_NOTE}"
            )
        else:
            problems.append(f"{o.op.label}: unexpected failure: {v!r}"[:500])
    return problems, list(notes.values())


def _config_file(workdir: Path, name: str, config: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _warm_up() -> None:
    localised_generator(models.qubit_model(), weights.balanced_gamma("gaussian", 1.0), 1.0)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        self.checks = 0

    def _seed(self) -> str:
        return str(int(self.rng.integers(1, 2**31)))

    def expect(self, problems: list[str], ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            problems.append(message)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        raise NotImplementedError


class CliBattery(Workload):
    """Fixed CLI configs run in-process: assembly-heavy, no step reuse."""

    name = "cli_battery"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.verify = {
            f"verify {name}": {"model": cfg}
            for name, cfg in (
                ("qubit", QUBIT),
                ("oscillator6", OSCILLATOR6),
                ("random4", RANDOM4),
                ("torus12", TORUS12),
                ("line16", LINE16),
                ("line24", LINE24),
                ("line32", LINE32),
            )
        }
        # The two variants run on models large enough for their assembly to
        # cost something: the explicit-jump path on line16 (m = 133), the
        # unfiltered generator on line32 (m = 601).
        self.verify["verify line16 omega_quadrature"] = {
            "model": LINE16,
            "generator": {"kind": "localised", "path": "omega_quadrature"},
        }
        self.verify["verify line32 metropolis"] = {"model": LINE32, "weight": {"kind": "metropolis"}}
        evolve = {
            f"evolve {name}": {"model": cfg, "run": {"initial_state": "random"}}
            for name, cfg in (("qubit", QUBIT), ("oscillator6", OSCILLATOR6))
        }
        for command, configs in (("verify-stationarity", self.verify), ("evolve", evolve)):
            for k, (label, cfg) in enumerate(configs.items()):
                path = _config_file(workdir, f"{command}-{k}", cfg)
                self.ops.append(cli_op(label, [command, "--config", path, "--seed", self._seed()]))
        # The negative control breaks the weight balance and must find a large
        # stationarity residual; its generator is left out of the Gibbs check.
        path = _config_file(workdir, "negative-control", {"model": LINE24})
        self.ops.append(
            cli_op(
                "verify line24 negative-control",
                ["verify-stationarity", "--config", path, "--negative-control", "--seed", self._seed()],
            )
        )
        self.ops.append(cli_op("selftest", ["selftest", "--seed", self._seed()]))
        _warm_up()

    def check(self, outcomes):
        problems, _ = failure_notes(outcomes)
        for o in outcomes:
            if o.ok:
                self.expect(problems, o.value.report()["overall_pass"], f"{o.op.label}: overall_pass is false")
        # The superoperator each verify config assembles, rebuilt outside the
        # timed section, against the benchmark's own Gibbs state.
        for label, cfg in self.verify.items():
            config = gibbslab.cli.normalised_config(cfg, "verify-stationarity")
            bundle = gibbslab.cli.build_generator(config)
            rho = ref.gibbs_state(bundle.model.hamiltonian)
            residual = ref.stationarity_residual(bundle.superoperator, rho)
            self.expect(problems, residual <= 1e-9, f"{label}: Gibbs residual {residual:.3e} > 1e-9")
            left = ref.trace_functional(bundle.superoperator)
            self.expect(problems, left <= 1e-12, f"{label}: ||vec(I)^T S|| = {left:.3e} > 1e-12")
            del bundle
        return problems


class SigmaLadder(Workload):
    """One-rung ``sweep-sigma`` runs along bandwidth ladders toward sigma -> 0."""

    name = "sigma_ladder"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        halvings = (1.0, 0.5, 0.25, 0.125)
        self.ladders = {
            "random6": (RANDOM6, "gaussian", (0.8, 0.4, 0.2, 0.1, 0.05)),
            "oscillator6": (OSCILLATOR6, "gaussian", halvings),
            "line16": (LINE16, "gaussian", halvings),
            "random4_sech": (RANDOM4, "sech", halvings + (0.0625,)),
        }
        # The seed draws the Haar eigenbasis of two random models.  Their
        # spectra are fixed: the cost of the smoothed-weight tables and the
        # cross-check depends on the Bohr frequencies (an exp_abs spectrum
        # drawn per seed made a rung cost 0.14 s on one seed and 0.25 s on
        # another), and runs with different seeds must do the same work.
        for spectrum, phi in ((SPECTRUM3, "gaussian"), (SPECTRUM5, "exp_abs")):
            dim = len(spectrum)
            cfg = {"name": "random", "dim": dim, "seed": int(self.rng.integers(1, 2**31)), "spectrum": spectrum}
            self.ladders[f"random{dim}_{phi}"] = (cfg, phi, halvings)
        self.ladders["qubit"] = (QUBIT, "gaussian", (0.01,))
        for name, (model, phi, sigmas) in self.ladders.items():
            # One seed per ladder: the distance is measured on seeded test
            # operators, so every rung of a ladder must see the same ones.
            ladder_seed = self._seed()
            for sigma in sigmas:
                cfg = {
                    "model": model,
                    "weight": {"kind": "balanced", "phi_name": phi},
                    "run": {"sigma_sweep": [sigma]},
                    "output": {"format": "json"},
                }
                path = _config_file(workdir, f"{name}-{sigma}", cfg)
                self.ops.append(
                    cli_op(
                        f"{name} sigma={sigma}",
                        ["sweep-sigma", "--config", path, "--seed", ladder_seed],
                        group=name,
                        known_fault=KNOWN_FAULT if name == "qubit" else None,
                    )
                )
        _warm_up()

    def check(self, outcomes):
        problems, _ = failure_notes(outcomes)
        ladders: dict[tuple[str, int], list[dict]] = {}
        for o in outcomes:
            if not o.ok:
                continue
            report = o.value.report()
            self.expect(problems, report["overall_pass"], f"{o.op.label}: overall_pass is false")
            row = report["data"]["rows"][0]
            stat = row["stationarity_residual"]
            self.expect(problems, stat <= 1e-9, f"{o.op.label}: stationarity residual {stat:.3e} > 1e-9")
            ladders.setdefault((o.op.group, o.round), []).append(row)
        # The distance to the unfiltered limit falls as sigma falls only while
        # sigma stays above the gaps between Bohr frequencies.  Pairs closer
        # than sigma stay coupled at every rung and the distance plateaus,
        # strictly falling or not depending on the seeded test operators:
        # line16 has 58 of its 132 gaps below 0.125, the smallest 1.8e-5.
        approaches_limit = {
            name: ref.min_bohr_gap(models.model_from_config(cfg).hamiltonian) >= min(sigmas)
            for name, (cfg, _, sigmas) in self.ladders.items()
        }
        for (name, round_index), rows in ladders.items():
            rows.sort(key=lambda r: -r["sigma"])
            dist = [r["davies_distance_p1"] for r in rows]
            norm_b = [r["coherent_norm_B"] for r in rows]
            floor = 1e-12 * max(norm_b)
            if approaches_limit[name]:
                self.expect(
                    problems,
                    all(b < a for a, b in zip(dist, dist[1:])),
                    f"{name} (round {round_index}): distance to the unfiltered limit not strictly decreasing: {dist}",
                )
            self.expect(
                problems,
                all(b <= a + floor for a, b in zip(norm_b, norm_b[1:])),
                f"{name} (round {round_index}): ||B|| increases along the ladder: {norm_b}",
            )
        for name, (model_cfg, phi, sigmas) in self.ladders.items():
            self._check_overlap_entries(problems, name, model_cfg, phi, min(sigmas))
        return problems

    def _check_overlap_entries(self, problems, name, model_cfg, phi, sigma) -> None:
        """Sampled overlap entries against the benchmark's windowed QUADPACK."""
        model = models.model_from_config(model_cfg)
        spectrum = bohr.bohr_spectrum(model.eigensystem())
        table = oft.overlap_table(spectrum, weights.balanced_gamma(phi, sigma), sigma, cross_check=False)
        values, freqs = table.values, spectrum.frequencies
        m = freqs.size
        off = np.abs(values) * (1.0 - np.eye(m))
        picks = {(0, 0), (m // 2, m // 2), (m - 1, m - 1)}
        picks.add(tuple(int(i) for i in np.unravel_index(np.argmax(off), off.shape)))
        live = np.argwhere(off >= 1e-6 * np.max(np.abs(values)))
        if live.size:
            picks.update(tuple(int(i) for i in live[k]) for k in self.rng.choice(len(live), 3))
        for i, j in sorted(picks):
            want = ref.overlap_entry(float(freqs[i]), float(freqs[j]), sigma, phi)
            rel = abs(values[i, j] - want) / max(abs(want), 1e-300)
            self.expect(
                problems,
                rel <= 1e-8,
                f"{name} sigma={sigma}: overlap entry ({i}, {j}) differs from QUADPACK by {rel:.3e} relative",
            )


@dataclass
class RelaxResult:
    contraction: dict
    trajectories: tuple
    choi: list


class Relax(Workload):
    """State pairs relaxing under fixed generators on one shared time grid."""

    name = "relax"
    times = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    choi_times = (0.1, 1.0, 10.0)
    # (name, model, state pairs, horizon of the solve_ivp comparison).  The
    # torus Hamiltonian spreads the generator's spectrum to |lambda| ~ 576,
    # so an explicit solver to t = 20 would take over a minute; its
    # trajectory is compared up to t = 0.5.
    models_ = (
        ("random4", RANDOM4, 2, 20.0),
        ("oscillator6", OSCILLATOR6, 2, 20.0),
        ("torus12", TORUS12, 3, 0.5),
        ("line16", LINE16, 2, 20.0),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        _warm_up()
        self.bundles = {}
        self.initial = {}
        for name, cfg, n_pairs, _ in self.models_:
            bundle = localised_generator(
                models.model_from_config(cfg), weights.balanced_gamma("gaussian", 1.0), 1.0
            )
            self.bundles[name] = bundle
            for k in range(n_pairs):
                # The first pair of each model starts from a pure state.
                a = self._random_state(bundle.dim, 1 if k == 0 else bundle.dim)
                b = self._random_state(bundle.dim, bundle.dim)
                label = f"{name} pair {k}"
                self.initial[label] = a
                self.ops.append(Op(label, self._op(bundle, a, b), group=name))

    def _random_state(self, d: int, rank: int) -> np.ndarray:
        g = self.rng.normal(size=(d, rank)) + 1j * self.rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real

    def _op(self, bundle, a, b):
        def call():
            report = evolution.contraction_report(bundle, [(a, b)], self.times)
            trajectories = (evolution.evolve(bundle, a, self.times), evolution.evolve(bundle, b, self.times))
            choi = []
            if bundle.dim <= 4:
                choi = [evolution.choi_min_eigenvalue(bundle, t) for t in self.choi_times]
            return RelaxResult(report, trajectories, choi)

        return call

    def check(self, outcomes):
        problems, _ = failure_notes(outcomes)
        first = {}
        for o in outcomes:
            if not o.ok:
                continue
            res = o.value
            first.setdefault(o.op.group, o)
            for traj in res.trajectories:
                trace_dev = max(abs(np.trace(s) - 1.0) for s in traj.states)
                self.expect(problems, trace_dev <= 1e-10, f"{o.op.label}: trace deviation {trace_dev:.3e} > 1e-10")
                low = min(ref.min_eigenvalue(s) for s in traj.states)
                self.expect(problems, low >= -1e-9, f"{o.op.label}: state eigenvalue {low:.3e} < -1e-9")
            rise = res.contraction["worst_increase"]
            self.expect(problems, rise <= 1e-9, f"{o.op.label}: trace distance grows by {rise:.3e} > 1e-9")
            for t, low in zip(self.choi_times, res.choi):
                self.expect(problems, low >= -1e-8, f"{o.op.label}: Choi eigenvalue {low:.3e} < -1e-8 at t={t}")
        for name, _, _, horizon in self.models_:
            bundle = self.bundles[name]
            rho = ref.gibbs_state(bundle.model.hamiltonian)
            fixed = evolution.evolve(bundle, rho, self.times)
            drift = max(float(np.linalg.norm(s - rho)) for s in fixed.states)
            self.expect(problems, drift <= 1e-9, f"{name}: Gibbs state moves by {drift:.3e} > 1e-9")
            if name not in first:
                continue
            o = first[name]
            times = [t for t in self.times if t <= horizon]
            want = ref.propagate(bundle.superoperator, self.initial[o.op.label], times)
            got = o.value.trajectories[0].states[: len(times)]
            gap = max(float(np.linalg.norm(g - w)) for g, w in zip(got, want))
            self.expect(problems, gap <= 1e-7, f"{o.op.label}: differs from solve_ivp by {gap:.3e} > 1e-7")
        return problems


WORKLOADS = {cls.name: cls for cls in (CliBattery, SigmaLadder, Relax)}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
