"""Per-packet trace export and analysis.

The paper reports means; downstream users usually want the full
distribution (tail latency matters for request-reply traffic, which is
exactly the workload the paper says RMSD mistreats).  This module
turns a finished simulation's delivered packets into records, computes
distribution summaries, and round-trips them through CSV for external
tooling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..noc.network import Network
from ..noc.stats import percentile

#: CSV column order (stable, part of the public format).
TRACE_FIELDS = ("pid", "src", "dst", "length", "hops", "created_cycle",
                "ejected_cycle", "latency_cycles", "created_ns",
                "ejected_ns", "delay_ns", "measured")


@dataclass(frozen=True)
class DelayDistribution:
    """Distribution summary of packet delays (ns)."""

    count: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float

    @classmethod
    def from_delays(cls, delays_ns) -> "DelayDistribution":
        data = np.asarray(list(delays_ns), dtype=float)
        if data.size == 0:
            raise ValueError("no delays to summarize")
        return cls(
            count=int(data.size),
            mean_ns=float(data.mean()),
            p50_ns=percentile(data, 50),
            p95_ns=percentile(data, 95),
            p99_ns=percentile(data, 99),
            max_ns=float(data.max()),
        )

    def render(self) -> str:
        return (f"n={self.count}  mean={self.mean_ns:.1f}  "
                f"p50={self.p50_ns:.1f}  p95={self.p95_ns:.1f}  "
                f"p99={self.p99_ns:.1f}  max={self.max_ns:.1f}  (ns)")


def packet_records(network: Network,
                   measured_only: bool = True) -> list[dict]:
    """Delivered packets of a finished run as plain dict records."""
    records = []
    for packet in network.delivered:
        if measured_only and not packet.measured:
            continue
        records.append({
            "pid": packet.pid,
            "src": packet.src,
            "dst": packet.dst,
            "length": packet.length,
            "hops": packet.hops,
            "created_cycle": packet.created_cycle,
            "ejected_cycle": packet.ejected_cycle,
            "latency_cycles": packet.latency_cycles,
            "created_ns": packet.created_ns,
            "ejected_ns": packet.ejected_ns,
            "delay_ns": packet.delay_ns,
            "measured": int(packet.measured),
        })
    return records


def write_trace_csv(records: list[dict], path: str | Path) -> None:
    """Write packet records to CSV in the stable column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=TRACE_FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def read_trace_csv(path: str | Path) -> list[dict]:
    """Read packet records back, restoring numeric types."""
    int_fields = {"pid", "src", "dst", "length", "hops", "created_cycle",
                  "ejected_cycle", "latency_cycles", "measured"}
    records = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            record = {}
            for key, value in row.items():
                record[key] = (int(value) if key in int_fields
                               else float(value))
            records.append(record)
    return records


def delay_distribution(records: list[dict]) -> DelayDistribution:
    """Distribution summary over trace records."""
    return DelayDistribution.from_delays(r["delay_ns"] for r in records)


def per_flow_mean_delay(records: list[dict]) -> dict[tuple[int, int],
                                                     float]:
    """Mean delay per (src, dst) flow — spots unfair/victim flows."""
    sums: dict[tuple[int, int], list[float]] = {}
    for record in records:
        sums.setdefault((record["src"], record["dst"]),
                        []).append(record["delay_ns"])
    return {flow: sum(ds) / len(ds) for flow, ds in sums.items()}
