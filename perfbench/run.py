"""gibbslab benchmark: one command per workload, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_battery --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout.  With ``--trace 0``
the command runs whole rounds of the workload's operations, at least
``MIN_ROUNDS`` and until ``--seconds`` have passed, and reports the
end-to-end metrics from each operation's median latency over the rounds,
every latency scaled to the host's best speed in the run (``hostspeed``).
With ``--trace 1`` it runs untraced rounds for half of ``--seconds`` (at
least one), then as many traced rounds, and reports the per-layer metrics
per round, plus the tracing overhead.  Either way it checks the program's
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# One BLAS thread: on the 2-core reference machine a second thread slows the
# relax propagators (line16 operation 3.3 s against 2.0 s) and lets a busy
# neighbour stall the run, while saving 27 % on line32 assembly.
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
# Every operation is timed in at least this many rounds, so that its median
# latency is not one sample.
MIN_ROUNDS = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_median_s": "s", "peak_rss_mib": "MiB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_battery", "sigma_ladder", "relax"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set the workload up, print 'ready' and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def _probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until the workload is ready,
    and the host probe that interpreter takes once it is ready."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {proc.returncode} after {line!r}")
    return ready - start, float(rest)


def _median_latencies(outcomes, probes, floor: float) -> dict[str, float]:
    """Each completed operation's median scaled latency over its samples.

    ``probes[k]`` and ``probes[k + 1]`` are the host probes taken just
    before and just after ``outcomes[k]``.
    """
    import hostspeed

    samples: dict[str, list[float]] = {}
    for k, o in enumerate(outcomes):
        if o.ok:
            scaled = hostspeed.scaled(o.seconds, probes[k], probes[k + 1], floor)
            samples.setdefault(o.op.label, []).append(scaled)
    return {label: statistics.median(v) for label, v in samples.items()}


def _run_rounds(
    workloads, ops, seconds: float, *, rounds: int | None = None, min_rounds: int = MIN_ROUNDS,
    tracer=None, first: int = 0, probes: list[float] | None = None,
):
    """Whole rounds of ``ops``: exactly ``rounds``, or at least ``min_rounds``
    and until ``seconds`` have passed.  Rounds are numbered from ``first``.
    With ``probes``, the host is probed before the first and after every
    operation, and the probe times are appended to it."""
    import hostspeed

    outcomes = []
    start = time.perf_counter()
    if probes is not None:
        probes.append(hostspeed.probe())
    done = 0
    while (done < rounds) if rounds is not None else (
        done < min_rounds or time.perf_counter() - start < seconds
    ):
        for op in ops:
            if tracer is None:
                outcomes.append(workloads.execute(op, first + done, time.perf_counter))
            else:
                with tracer.span(f"op:{op.label}"):
                    outcomes.append(workloads.execute(op, first + done, time.perf_counter))
            if probes is not None:
                probes.append(hostspeed.probe())
        done += 1
    return outcomes, time.perf_counter() - start, done


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gibbslab" / "__init__.py").is_file():
        print(f"error: no gibbslab sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    # Imported here, after the BLAS thread count is set: it loads numpy.
    import hostspeed

    # (seconds, host probe) per fresh interpreter.  The interpreter probes
    # itself: it may run on another CPU than this process, at another speed.
    setup_samples = []
    if not args.setup_probe and not args.trace:
        setup_samples = [_probe_setup(args) for _ in range(SETUP_SAMPLES)]

    import gibbslab
    import tracing
    import workloads

    if Path(gibbslab.__file__).resolve().parent != SRC / "gibbslab":
        print(f"error: gibbslab imported from {gibbslab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.build(args.workload, args.seed, Path(workdir))
        if args.setup_probe:
            print("ready", flush=True)
            print(hostspeed.probe(), flush=True)
            return 0
        if args.trace:
            # The untraced and the traced half together take about --seconds.
            outcomes, elapsed, rounds = _run_rounds(workloads, workload.ops, args.seconds / 2, min_rounds=1)
        else:
            timed_probes: list[float] = []
            outcomes, elapsed, rounds = _run_rounds(workloads, workload.ops, args.seconds, probes=timed_probes)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, traced_elapsed, _ = _run_rounds(
                    workloads, workload.ops, args.seconds, rounds=rounds, tracer=tracer, first=rounds
                )
            outcomes += traced
            tracer.write(
                OUT / f"trace-{args.workload}-seed{args.seed}.json",
                workload=args.workload, seed=args.seed, rounds=rounds,
                untraced_s=elapsed, traced_s=traced_elapsed,
            )
        problems = workload.check(outcomes)

    _, notes = workloads.failure_notes(outcomes)
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer.spans, rounds)
        metrics["trace.overhead_s"] = {"value": (traced_elapsed - elapsed) / rounds, "unit": "s"}
    else:
        floor = min(timed_probes + [p for _, p in setup_samples])
        latency = _median_latencies(outcomes, timed_probes, floor)
        values = {
            "setup_s": statistics.median(hostspeed.scaled(t, p, p, floor) for t, p in setup_samples),
            "ops_per_s": len(latency) / sum(latency.values()),
            "op_median_s": statistics.median(latency.values()),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        slowdown = statistics.median(timed_probes) / floor
        print(
            f"host probe: best {floor * 1e3:.2f} ms, median {slowdown:.2f}x that; unscaled median "
            f"latency {statistics.median(o.seconds for o in outcomes if o.ok):.4f} s, unscaled setup "
            f"{statistics.median(s[0] for s in setup_samples):.4f} s"
        )

    print(
        f"{args.workload} seed={args.seed}: {rounds} round(s) of {len(workload.ops)} operations "
        f"in {elapsed:.3f} s; {workload.checks} checks, {len(problems)} problem(s)"
    )
    for line in notes + problems:
        print(line)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
