"""Layer tracing installed from outside the program.

A :class:`Tracer` replaces the public functions of gibbslab's layers, on
every module attribute that names them, with wrappers that record one span
per call: ``[name, start, end, parent, amount]``, where ``parent`` is the
index of the enclosing span (``-1`` at the top) and ``amount`` the work a
call was given (the number of smoothing centres for the weight tables).
Spans are kept in memory and written out when the run ends.  Nothing in the
program changes: the wrappers go on the names each caller looks up at call
time, and :meth:`Tracer.installed` puts the originals back.

A layer's self time is the time in its spans minus the time in the spans
they directly contain.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Per-layer metric -> (span name, what is summed over that span's calls).
PER_LAYER = {
    "models.build_s": ("models.build", "self"),
    "bohr.spectrum_s": ("bohr.spectrum", "self"),
    "bohr.spectrum_calls": ("bohr.spectrum", "calls"),
    "weights.smoothed_table_s": ("weights.smoothed_table", "self"),
    "weights.smoothed_points": ("weights.smoothed_table", "amount"),
    "weights.time_domain_s": ("weights.time_domain", "self"),
    "oft.table_s": ("oft.table", "self"),
    "oft.tables": ("oft.table", "calls"),
    "oft.cross_check_s": ("oft.cross_check", "self"),
    "oft.cross_check_entries": ("oft.cross_check", "calls"),
    "generators.coherent_s": ("generators.coherent", "self"),
    "generators.assembly_s": ("generators.assembly", "self"),
    "generators.omega_assembly_s": ("generators.omega_assembly", "self"),
    "generators.builds": (("generators.assembly", "generators.omega_assembly"), "calls"),
    "generators.checks_s": ("generators.checks", "self"),
    "evolution.expm_s": ("evolution.expm", "self"),
    "evolution.expm_calls": ("evolution.expm", "calls"),
    "evolution.evolve_s": ("evolution.evolve", "self"),
    "evolution.diagnostics_s": ("evolution.diagnostics", "self"),
    "evolution.choi_s": ("evolution.choi", "self"),
    "cli.self_s": ("cli", "self"),
}

OP_PREFIX = "op:"


def _layer_functions() -> list[tuple[object, object]]:
    """(function, span name or ``(args, kwargs) -> span name``) per layer entry."""
    from gibbslab import bohr, cli, evolution, generators, models, oft, weights

    def assembly_name(args, kwargs):
        if kwargs.get("path", "bohr_sum") == "omega_quadrature":
            return "generators.omega_assembly"
        return "generators.assembly"

    return [
        (models.model_from_config, "models.build"),
        (models.qubit_model, "models.build"),
        (models.oscillator_model, "models.build"),
        (models.schrodinger_line_model, "models.build"),
        (models.torus_model, "models.build"),
        (models.random_model, "models.build"),
        (bohr.bohr_spectrum, "bohr.spectrum"),
        (weights.smoothed_weight_table, "weights.smoothed_table"),
        (weights.coherent_time_kernel, "weights.time_domain"),
        (weights.coherent_time_envelope, "weights.time_domain"),
        (weights.coherent_time_kernel_l1, "weights.time_domain"),
        (oft.overlap_table, "oft.table"),
        (generators.coherent_matrix_bohr, "generators.coherent"),
        (generators.localised_generator, assembly_name),
        (generators.davies_generator, "generators.assembly"),
        (generators.stationarity_report, "generators.checks"),
        (generators.trace_functional_defect, "generators.checks"),
        (generators.hermiticity_preservation_defect, "generators.checks"),
        (generators.effective_drift_abscissa, "generators.checks"),
        (generators.dual_path_residual, "generators.checks"),
        (generators.davies_limit_report, "generators.checks"),
        (generators.coherent_calibration_report, "generators.checks"),
        (evolution.evolve, "evolution.evolve"),
        (evolution.snapshot_diagnostics, "evolution.diagnostics"),
        (evolution.contraction_report, "evolution.diagnostics"),
        (evolution.semigroup_defect, "evolution.diagnostics"),
        (evolution.choi_min_eigenvalue, "evolution.choi"),
        (evolution.choi_report, "evolution.choi"),
        (evolution.choi_trace_preservation_defect, "evolution.choi"),
        (cli.main, "cli"),
    ]


class Tracer:
    """Records spans at gibbslab's layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, amount: int = 0):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, amount]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            amount = 0
            if span_name == "weights.smoothed_table":
                amount = int(np.size(args[2] if len(args) > 2 else kwargs["centers"]))
            with tracer.span(span_name, amount):
                return fn(*args, **kwargs)

        return traced

    def _wrap_cross_check(self, quad):
        tracer = self

        @functools.wraps(quad)
        def traced(*args, **kwargs):
            # Only QUADPACK calls made directly inside an overlap-table build
            # are the table's cross-check; any other caller passes through.
            if not tracer._stack or tracer.spans[tracer._stack[-1]][0] != "oft.table":
                return quad(*args, **kwargs)
            with tracer.span("oft.cross_check"):
                return quad(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        import scipy.integrate

        import gibbslab.evolution

        wrappers = {id(fn): (fn, self._wrap(fn, name)) for fn, name in _layer_functions()}
        patches = []
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "gibbslab" or key.startswith("gibbslab.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr, value, entry[1]))
        expm = gibbslab.evolution.expm
        patches.append((gibbslab.evolution, "expm", expm, self._wrap(expm, "evolution.expm")))
        quad = scipy.integrate.quad
        patches.append((scipy.integrate, "quad", quad, self._wrap_cross_check(quad)))
        for module, attr, _, wrapper in patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in patches:
                setattr(module, attr, original)

    def write(self, path: Path, **meta) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [[n, s - origin, e - origin, p, a] for n, s, e, p, a in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": spans}) + "\n", encoding="utf-8")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of the spans it directly contains."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_sums(spans) -> dict[str, dict[str, float]]:
    """Self time, call count and amount per span name (operation spans excluded)."""
    sums: dict[str, dict[str, float]] = {}
    for (name, _, _, _, amount), own in zip(spans, self_times(spans)):
        if name.startswith(OP_PREFIX):
            continue
        entry = sums.setdefault(name, {"self": 0.0, "calls": 0, "amount": 0})
        entry["self"] += own
        entry["calls"] += 1
        entry["amount"] += amount
    return sums


def per_layer_metrics(spans, rounds: int) -> dict[str, dict]:
    """The per-layer metrics of :data:`PER_LAYER`, per round of operations."""
    sums = layer_sums(spans)
    out = {}
    for metric, (names, field) in PER_LAYER.items():
        names = names if isinstance(names, tuple) else (names,)
        total = sum(sums.get(n, {}).get(field, 0) for n in names)
        if field == "self":
            out[metric] = {"value": total / rounds, "unit": "s"}
        else:
            out[metric] = {"value": total // rounds, "unit": "count"}
    return out
