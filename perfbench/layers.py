"""Per-operation layer table from the span file of a traced run.

    python3 perfbench/run.py --workload cli_battery --seed 1 --seconds 15 --trace 1
    python3 perfbench/layers.py .perfbench/trace-cli_battery-seed1.json \
        "verify line16" "verify line24" "verify line32"

Prints a Markdown table with one row per layer and one column per named
operation (every operation when none is named): the layer's self time in
milliseconds and its call count, per execution of the operation, averaged
over the traced rounds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import OP_PREFIX, self_times

# Time in an operation outside every layer span: CLI output capture and the
# benchmark's own call overhead.
HARNESS = "harness"


def per_operation(spans) -> dict[str, dict[str, list[float]]]:
    """op label -> span name -> [self seconds, calls], per execution of the op."""
    root = [-1] * len(spans)
    runs: dict[str, int] = {}
    table: dict[str, dict[str, list[float]]] = {}
    for index, ((name, _, _, parent, _), own) in enumerate(zip(spans, self_times(spans))):
        if name.startswith(OP_PREFIX):
            root[index] = index
            runs[name] = runs.get(name, 0) + 1
        elif parent >= 0:
            root[index] = root[parent]
        label = spans[root[index]][0] if root[index] >= 0 else None
        key = HARNESS if name.startswith(OP_PREFIX) else name
        entry = table.setdefault(label, {}).setdefault(key, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return {
        label[len(OP_PREFIX):]: {name: [s / runs[label], c / runs[label]] for name, (s, c) in rows.items()}
        for label, rows in table.items()
        if label is not None
    }


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    data = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    ops = per_operation(data["spans"])
    labels = argv[1:] or sorted(ops)
    missing = [label for label in labels if label not in ops]
    if missing:
        print(f"error: no operation named {missing}; known: {sorted(ops)}", file=sys.stderr)
        return 2
    names = sorted({n for label in labels for n in ops[label]}, key=lambda n: (n == HARNESS, n))
    print(f"{data['workload']} seed {data['seed']}, {data['rounds']} traced round(s); self ms (calls)")
    print("| layer | " + " | ".join(labels) + " |")
    print("| --- |" + " ---: |" * len(labels))
    for name in names:
        cells = []
        for label in labels:
            s, c = ops[label].get(name, (0.0, 0))
            cells.append(f"{1e3 * s:.1f} ({c:g})" if c else "")
        print(f"| {name} | " + " | ".join(cells) + " |")
    totals = [sum(s for s, _ in ops[label].values()) for label in labels]
    print("| total | " + " | ".join(f"{1e3 * t:.1f}" for t in totals) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
