"""Summarize run records in bench/out as Markdown tables.

    python3 bench/summarize.py [bench/out]

End-to-end metrics: median and quartiles over the trace-0 records of each
workload, plus the spread (Q3 - Q1) / median that BENCHMARK.json bounds.
Per-layer metrics: the median over the trace-1 records of each workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent / "out"
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(out.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        context = record["context"]
        runs.setdefault((context["workload"], int(context["trace"])),
                        []).append(record)
    for (workload, trace), records in sorted(runs.items()):
        seeds = sorted(r["context"]["seed"] for r in records)
        print(f"\n### {workload}, trace {trace}: {len(records)} runs, "
              f"seeds {seeds[0]}-{seeds[-1]}\n")
        if trace:
            print("| metric | median |\n|---|---|")
        else:
            print("| metric | median | Q1 | Q3 | spread | as measured |")
            print("|---|---|---|---|---|---|")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name] for r in records]
            med = statistics.median(values)
            if trace:
                print(f"| {name} | {med:.6g} |")
                continue
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            measured = [r["detail"]["as_measured"].get(name) for r in records]
            raw = (f"{statistics.median(measured):.6g}"
                   if None not in measured else "")
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {raw} |")


if __name__ == "__main__":
    main()
