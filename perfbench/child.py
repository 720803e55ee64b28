"""One benchmark run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --launch T
        [--setup-only] [--trace-out FILE] [--tiny] [--tmp DIR]

``--launch`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and context/workbench construction.  ``--setup-only`` stops there and
samples the host's speed.  ``--trace-out`` installs the span recorder
around every layer's entry points before the run and writes the spans
and per-layer metrics to FILE.  The run then times the submission
(``wall_s``) and its CPU while ``pace.Pace`` samples the host's speed,
records peak memory, fingerprints the outputs and checks them.

``setup_s``, ``wall_s`` and ``cpu_s`` are scaled to the reference
host's speed (``pace.py``); the measured times are kept as
``setup_raw_s``, ``wall_raw_s`` and ``cpu_raw_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

#: Host-speed samples taken right after set-up, to scale it.
SETUP_SAMPLES = 25


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped child.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def live_children() -> list[int]:
    """Pids of this process's children that are still running."""
    me = str(os.getpid())
    found = []
    proc = Path("/proc")
    if not proc.is_dir():
        return found
    for entry in sorted(proc.iterdir()):
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name; field
        # 3 is the state, and zombies are not running.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if ppid == me and state != "Z":
            found.append(int(entry.name))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--tmp", default=None)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import pace
    import workloads

    tmp_root = Path(args.tmp) if args.tmp else None
    prepared = workloads.prepare(args.workload, args.seed,
                                 tiny=args.tiny, tmp_root=tmp_root)
    setup_raw_s = time.monotonic() - args.launch
    # Set-up is scaled by the host's speed just after it, before any
    # worker runs: the run's own scale includes the workers' load.
    sampler = pace.Pace()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    out: dict = {"workload": args.workload, "seed": args.seed,
                 "setup_s": setup_raw_s / sampler.scale(),
                 "setup_raw_s": setup_raw_s,
                 "setup_host_scale": sampler.scale()}
    if args.setup_only:
        prepared.close()
        print(json.dumps(out))
        return 0

    recorder = worker_dir = None
    if args.trace_out:
        import probes
        recorder = probes.Recorder()
        probes.install(recorder)
        if prepared.queue_dir is not None:
            worker_dir = tempfile.mkdtemp(prefix="workers-", dir=tmp_root)
            probes.trace_workers(recorder, worker_dir)

    # wall_s ends at the last unit result the runner receives (its
    # progress callback), so the distributed fleet's teardown after it
    # is not counted; call_s is the whole call.
    last_result = []
    prepared.bench.context.progress = (
        lambda done, total, latest: last_result.append(time.perf_counter()))
    problems: list[str] = []
    outcome = None
    sampler = pace.Pace()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    sampler.start()
    try:
        outcome = prepared.run()
    except Exception:  # noqa: BLE001 - a failed run is reported, not fatal
        problems.append("exception:\n" + traceback.format_exc())
    finally:
        call_s = time.perf_counter() - t0
        try:
            prepared.close()
        except Exception:  # noqa: BLE001
            problems.append("close failed:\n" + traceback.format_exc())
        sampler.stop()
    cpu_raw_s = _cpu_s() - cpu0
    end = last_result[-1] if last_result else t0 + call_s
    wall_raw_s = end - t0
    # The probes' own time comes out first; then both times are scaled
    # to the reference host's speed (see pace.py).
    probe_wall_s = sampler.overhead(t0, end)[0]
    probe_cpu_s = sampler.overhead(t0, float("inf"))[1]
    scale = sampler.scale()
    stray = live_children()
    if stray:
        problems.append(f"subprocesses still alive after the run: "
                        f"{stray}")
    out.update(wall_s=(wall_raw_s - probe_wall_s) / scale,
               cpu_s=(cpu_raw_s - probe_cpu_s) / scale,
               wall_raw_s=wall_raw_s, cpu_raw_s=cpu_raw_s, call_s=call_s,
               host_scale=scale, probes=len(sampler.timed),
               peak_rss_mb=_peak_rss_mb())
    if recorder is not None:
        recorder.stop()
        if worker_dir is not None:
            out["traced_workers"] = probes.merge_workers(recorder,
                                                         worker_dir)
            shutil.rmtree(worker_dir, ignore_errors=True)
        out["layers"] = recorder.metrics(prepared.bench)
        recorder.write(args.trace_out, meta={"workload": args.workload,
                                              "seed": args.seed})
    if outcome is not None:
        out["points"] = len(outcome.points)
        out["fingerprint"] = workloads.fingerprint(outcome)
        out["accuracy"] = outcome.accuracy
        problems.extend(workloads.check_outcome(prepared, outcome))
    out["problems"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
