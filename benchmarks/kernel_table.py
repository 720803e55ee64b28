"""Render ``BENCH_kernel.json`` as the README's benchmark table.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_bench.py -q
    python benchmarks/kernel_table.py            # prints markdown

Paste the output into README "Simulation engines" after re-running the
kernel benchmark, so the published numbers always come from a recorded
``BENCH_kernel.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def render(payload: dict) -> str:
    sweep = payload["sweep"]
    single = payload["single_run"]
    lines = [
        "| benchmark (8x8 mesh) | reference | fast | speedup |",
        "|----------------------|-----------|------|---------|",
        (f"| {sweep['points']}-point policy sweep (wall) "
         f"| {sweep['reference_s']:.1f} s "
         f"| {sweep['fast_s']:.1f} s "
         f"| **{sweep['speedup']:.1f}x** |"),
        (f"| single saturated run (cycles/s) "
         f"| {single['reference']['cycles_per_s']:,.0f} "
         f"| {single['fast']['cycles_per_s']:,.0f} "
         f"| {single['fast']['cycles_per_s'] / single['reference']['cycles_per_s']:.1f}x |"),
    ]
    step = payload.get("step_cost")
    if step:
        lines += [
            "",
            f"| fast-engine step ({step['mesh']} replicas) "
            "| compiled step, per cycle |",
            "|---|---|",
        ]
        lines += [f"| {row['replicas']} | {row['compiled_us']:,.1f} us |"
                  for row in step["widths"]]
    return "\n".join(lines)


def main() -> int:
    if not BENCH_PATH.exists():
        print(f"{BENCH_PATH.name} not found — run "
              "`PYTHONPATH=src python -m pytest "
              "benchmarks/test_kernel_bench.py` first", file=sys.stderr)
        return 1
    print(render(json.loads(BENCH_PATH.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
