"""End-to-end benchmark of figure and sweep regeneration, with a per-layer
breakdown.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Workloads (see ``workloads.py``): ``fig4-paper`` (search-bound),
``matrix-8x8`` (kernel-bound) and ``matrix-8x8-distributed`` (the same
matrix through the work queue with 2 self-spawned workers).

Every simulation run happens in a fresh interpreter (``child.py``), so
no unit cache, workbench memo or queue ``results/`` carries over.

``--trace 0`` first starts several set-up-only interpreters, then runs
the workload ``--seconds`` / its nominal run time times (at least once)
and reports medians of the end-to-end metrics: ``setup_s`` (over the
set-up-only interpreters and the runs), ``wall_s``, ``points_per_s``,
``cpu_s`` and ``peak_rss_mb``.  The times are scaled to the reference
host's speed, sampled during each run (``pace.py``); the measured ones
are kept in the full record.

``--trace 1`` runs the workload once untraced and once with spans
recorded around every layer's entry points, reports the per-layer
metrics and ``trace.overhead_ratio`` (traced over untraced wall time),
and writes the spans as Chrome trace-event JSON (opens in Perfetto)
plus a text rollup of per-layer self time under ``.perfbench_out/``.

Each run's outputs are fingerprinted and checked (``workloads.py``);
every point of a run that fails a check, raises or leaves a worker
process running counts as failed.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full record with host facts, which is also appended to
``.perfbench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import (DEFAULT_SEED, EXPECTED_POINTS,  # noqa: E402
                     FINGERPRINT_FAMILY, NOMINAL_RUN_S, WORKLOADS,
                     workload_seed)

OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
EXPECTED_FILE = HERE / "expected.json"
#: Fingerprints seen in earlier runs in this checkout, per seed, so the
#: two matrix workloads are compared on every seed, not only the default.
SEEN_FILE = TMP_DIR / "fingerprints.json"

#: The paper's Fig. 4 annotations, recorded beside the simulated values
#: (ungated context: nothing checks the model against them).
PAPER_ACCURACY = {
    "paper_dmsd_target_ns": 150.0,
    "paper_max_rmsd_over_dmsd": 1.9,
    "note": "the simulated model is not validated against the paper "
            "beyond these two annotations",
}

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120.0


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, tiny: bool, tmp: Path,
              *extra: str) -> dict:
    """One fresh interpreter; its JSON record (raises ChildFailed)."""
    launch = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--launch", repr(launch), "--tmp", str(tmp), *extra]
    if tiny:
        command.append("--tiny")
    # A process group of its own, so a timeout can stop the workers too.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} timed out after "
                          f"{CHILD_TIMEOUT_S:.0f}s") from None
    finally:
        _reap_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} exited {proc.returncode}:\n"
                          f"{stderr[-4000:]}")
    return json.loads(lines[-1])


def _reap_group(pgid: int) -> None:
    """Kill anything left in a finished child's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --- host facts --------------------------------------------------------------
def host_facts() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 1
    facts = {"nproc": nproc, "python": platform.python_version(),
             "numpy": _numpy_version(), "git_sha": _git_sha(),
             "src_digest": _src_digest(),
             "loadavg_1m": os.getloadavg()[0],
             "machine": platform.machine()}
    return facts


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the package sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --- correctness across runs -------------------------------------------------
def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def fingerprint_problems(workload: str, seed: int, tiny: bool,
                         records: list[dict]) -> list[str]:
    """Compare the runs' fingerprints with each other, with the recorded
    default-seed fingerprint, and with earlier runs of the same family
    and seed; remember this one for later runs."""
    prints = {r["fingerprint"] for r in records if "fingerprint" in r}
    if not prints:
        return []
    if len(prints) > 1:
        return [f"runs of one seed disagree: {sorted(prints)}"]
    (found,) = prints
    key = FINGERPRINT_FAMILY[workload] + ("@tiny" if tiny else "")
    problems = []
    expected = _load_json(EXPECTED_FILE).get(key, {}).get(str(seed))
    if expected is not None and found != expected:
        problems.append(f"fingerprint {found} != recorded {expected}")
    seen = _load_json(SEEN_FILE)
    earlier = seen.setdefault(key, {}).get(str(seed))
    if earlier is not None and found != earlier:
        problems.append(f"fingerprint {found} != earlier run's "
                        f"{earlier}")
    elif earlier is None and not problems:
        seen[key][str(seed)] = found
        TMP_DIR.mkdir(exist_ok=True)
        tmp = SEEN_FILE.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, SEEN_FILE)
    return problems


# --- the two modes -----------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(args, tmp: Path,
                       record: dict) -> tuple[dict, list[dict]]:
    setups = [run_child(args.workload, args.seed, args.tiny, tmp,
                        "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    # A fixed number of runs for a given --seconds: a count that shrank
    # whenever the host is slow would make slow periods noisier still.
    reps = max(1, round(args.seconds / NOMINAL_RUN_S[args.workload]))
    runs = [run_child(args.workload, args.seed, args.tiny, tmp)
            for _ in range(reps)]
    setups += [r["setup_s"] for r in runs]
    record["runs"] = runs
    record["setup_probes_s"] = setups
    walls = [r["wall_s"] for r in runs]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "points_per_s": _metric(statistics.median(
            r.get("points", 0) / r["wall_s"] for r in runs), "1/s"),
        "cpu_s": _metric(statistics.median(r["cpu_s"] for r in runs),
                         "s"),
        "peak_rss_mb": _metric(statistics.median(
            r["peak_rss_mb"] for r in runs), "MB"),
    }, runs


def measure_layers(args, tmp: Path,
                   record: dict) -> tuple[dict, list[dict]]:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny
                                                  else "")
    trace_path = OUT_DIR / f"{stem}.trace.json"
    plain = run_child(args.workload, args.seed, args.tiny, tmp)
    traced = run_child(args.workload, args.seed, args.tiny, tmp,
                       "--trace-out", str(trace_path))
    runs = [plain, traced]
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    rollup = render_rollup(args.workload, traced)
    (OUT_DIR / f"{stem}.rollup.txt").write_text(rollup)
    print(rollup)
    record["runs"] = runs
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    units = _units()
    return {name: _metric(value, units.get(name, "count"))
            for name, value in sorted(layers.items())}, runs


def _units() -> dict:
    spec = _load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec.get("per_layer", ())}


def render_rollup(workload: str, traced: dict) -> str:
    """Per-layer self time of a traced run, as a share of its wall time.

    Self times from distributed workers are added in, so on that
    workload the shares are of summed process time and can exceed 100%.
    """
    layers = traced["layers"]
    wall = traced["wall_s"]
    lines = [f"{workload} (seed {traced['seed']}): traced wall "
             f"{wall:.3f}s; self time by layer"]
    for name in sorted((k for k in layers if k.endswith(".self_s")),
                       key=lambda k: -layers[k]):
        seconds = layers[name]
        lines.append(f"  {name[:-len('.self_s')]:<12} {seconds:9.3f}s "
                     f"{100 * seconds / wall:6.1f}%")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end figure/sweep benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="use the 3x3 smoke mesh (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "tiny": args.tiny, "trace": args.trace,
              "host": host_facts()}
    # From here on the seed is the one the workbench runs with.
    args.seed = record["workload_seed"] = workload_seed(args.seed)
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, runs = measure(args, tmp, record)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = fingerprint_problems(args.workload, args.seed, args.tiny,
                                    runs)
    attempted = failed = 0
    for run in runs:
        points = run.get("points", EXPECTED_POINTS[args.workload])
        attempted += points
        if run["problems"] or problems:
            failed += points
    if args.trace:
        metrics["failed_ratio"] = _metric(failed / attempted, "ratio")
    record["problems"] = problems + [p for r in runs for p in r["problems"]]
    accuracy = runs[-1].get("accuracy")
    if accuracy:
        record["accuracy"] = {**accuracy, **PAPER_ACCURACY}
    record["fingerprint"] = runs[-1].get("fingerprint")
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
