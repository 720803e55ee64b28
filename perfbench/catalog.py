"""Workload names and fixed output sizes (stdlib only, no package import)."""

WORKLOADS = ("fig4-paper", "matrix-8x8", "matrix-8x8-distributed")
DEFAULT_SEED = 3

#: Output sweep points per workload on the full-size configurations:
#: Fig. 4 is 3 policies x 6 rates, each matrix 9 scenarios x 8 rates.
EXPECTED_POINTS = {"fig4-paper": 18, "matrix-8x8": 72,
                   "matrix-8x8-distributed": 72}

#: Run time each workload is budgeted on the reference host (2-vCPU
#: x86_64): a run of ``--seconds`` repeats the workload
#: ``round(seconds / nominal)`` times, so the measured work is fixed for
#: a given ``--seconds``.  The distributed workload is budgeted below its
#: measured 10-12 s so that it runs 3 times at the default 26 s: its
#: scaled times spread the most of the three.
NOMINAL_RUN_S = {"fig4-paper": 30.0, "matrix-8x8": 13.0,
                 "matrix-8x8-distributed": 8.0}

#: Workloads whose outputs must be identical for a given seed.
FINGERPRINT_FAMILY = {"fig4-paper": "fig4-paper",
                      "matrix-8x8": "matrix-8x8",
                      "matrix-8x8-distributed": "matrix-8x8"}

#: Seeds below 64 at which ``fig4-paper``'s saturation search brackets
#: (``python3 perfbench/workloads.py 64`` prints them).  At the others
#: (5, 15, 21, 23, 30, 47, 54) ``find_saturation_rate`` raises: its
#: low-load probes measure too few packets and read as saturated.
SEED_POOL = (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18,
             19, 20, 22, 24, 25, 26, 27, 28, 29, 31, 32, 33, 34, 35, 36,
             37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 48, 49, 50, 51, 52,
             53, 55, 56, 57, 58, 59, 60, 61, 62, 63)


def workload_seed(seed: int) -> int:
    """The workbench seed for a benchmark ``--seed``: the first pool
    seed at or after ``seed`` modulo 64 (a pool seed maps to itself)."""
    wanted = seed % 64
    return next((s for s in SEED_POOL if s >= wanted), SEED_POOL[0])
