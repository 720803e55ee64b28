"""Build, cache and load the compiled cycle step (``kernel.c``).

The system C compiler builds ``kernel.c`` into a shared library the
first time a :class:`~repro.noc.fastsim.FastNetwork` is constructed in
a process (never at import), and stdlib :mod:`ctypes` calls it.  The
library is cached in this package's ``__pycache__`` directory, or in a
per-user directory under the system temp directory when the package is
read-only, under a name that digests the C source, the compile command
and the machine type: an edited kernel or another compiler never loads
a stale build.  Builds go to a unique temporary name and are renamed
into place, so processes starting together on a cold cache each load a
complete library.

The kernel is the fast engine's only cycle step.  When the build or the
load fails, :func:`load_kernel` raises :class:`KernelBuildError` with
the reason, and the execution knobs reject ``engine="fast"`` quoting it
(:func:`repro.runner.context.check_knobs`); the reference engine needs
no compiler.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..stats import ACTIVITY_FIELDS

SOURCE = Path(__file__).with_name("kernel.c")

#: The compile command; ``-o LIBRARY SOURCE`` is appended.  The step
#: does float arithmetic (arrival thresholds, timestamps), and
#: ``-ffp-contract=off`` keeps it free of fused multiply-adds, so its
#: results do not depend on the target's FMA support.
COMPILER = ("gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: Compiler stderr lines quoted in a failed build's error.
STDERR_TAIL_LINES = 12

#: ``fs_net``'s int64 scalar fields, in ``kernel.c`` order.
SCALARS = ("nodes", "local_nodes", "ports", "vcs", "depth", "lines",
           "lines_per_copy", "route_latency", "va_latency",
           "link_latency", "credit_latency", "flit_horizon",
           "credit_horizon", "multi", "copies", "packet_length",
           "capacity")

#: ``fs_net``'s double scalar fields, after :data:`SCALARS`.
REALS = ("node_period",)

#: ``fs_net``'s array fields, in ``kernel.c`` order: every array the
#: cycle step reads or writes, named as the engine's attributes.
ARRAYS = ("counters", "activity_by_copy", "backlog_by_copy",
          "ejected_by_copy", "route", "link_base", "line_node",
          "line_port", "state", "fifo_len", "busy_bits", "fifo_head",
          "buf_pid", "buf_fidx", "out_port", "out_vc", "out_group",
          "out_line", "ready", "credits", "owner", "va_ptr", "sa_in_ptr",
          "sa_out_ptr", "scoreboard", "group_counts", "q_head", "q_tail",
          "cur_lid", "cur_len", "cur_sent", "cur_vc", "src_rr",
          "src_credits", "pkt_dst", "pkt_len", "pkt_hops", "pkt_next",
          "pkt_copy", "pkt_created_cycle", "pkt_ejected_cycle",
          "pkt_created_ns", "pkt_ejected_ns", "pkt_measured",
          "delivery_log", "time_by_copy", "period_by_copy",
          "next_node_cycle", "measured_created_by_copy",
          "measured_delivered_by_copy", "law_by_copy", "step_first",
          "step_pos", "step_cycles", "step_factors", "pkt_prob",
          "dest_table", "rng_state", "rng_double", "rng_uint32",
          "flit_line", "flit_pid", "flit_fidx", "flit_count",
          "credit_line", "credit_count", "credit_src",
          "credit_src_count", "scratch")

#: The packet store: arrays indexed by packet id, all of the engine's
#: ``capacity``.  The delivery log lists packet ids in delivery order.
STORE = ("pkt_dst", "pkt_len", "pkt_hops", "pkt_next", "pkt_copy",
         "pkt_created_cycle", "pkt_ejected_cycle", "pkt_created_ns",
         "pkt_ejected_ns", "pkt_measured", "delivery_log")

#: ``counters`` layout (``kernel.c``'s enum): the activity totals in
#: ``ACTIVITY_FIELDS`` order, then the flit accounting, then the fill
#: of the packet store and of the delivery log.
COUNTERS = ACTIVITY_FIELDS + ("buffered", "in_link", "src_backlog",
                              "queued_packets", "injected_flits",
                              "ejected_flits", "stored_packets",
                              "logged_deliveries")

#: ``law_by_copy`` codes (``kernel.c``'s enum): the replica's arrivals
#: are not drawn by the step, drawn uniform over the other nodes, or
#: drawn to the fixed destinations of ``dest_table``.
LAWS = ("none", "uniform", "table")

#: Arrays that are not int64; the ``rng_*`` arrays hold addresses, and
#: ``busy_bits`` one bit per VC line (line ``l`` is bit ``l % 64`` of
#: word ``l // 64``).  The topology tables and the per-line,
#: per-arbiter, calendar and scratch arrays are int32.
DTYPES = {"state": np.dtype(np.int8), "fifo_len": np.dtype(np.int16),
          "pkt_measured": np.dtype(np.int8),
          "busy_bits": np.dtype(np.uint64),
          **dict.fromkeys(("route", "link_base", "line_node", "line_port",
                           "fifo_head", "buf_pid", "buf_fidx", "out_port",
                           "out_vc", "out_group", "out_line", "ready",
                           "credits", "owner", "va_ptr", "sa_in_ptr",
                           "sa_out_ptr", "scoreboard", "group_counts",
                           "flit_line", "flit_pid", "flit_fidx",
                           "credit_line", "credit_src", "scratch"),
                          np.dtype(np.int32)),
          **dict.fromkeys(("pkt_created_ns", "pkt_ejected_ns",
                           "time_by_copy", "period_by_copy",
                           "step_factors", "pkt_prob"),
                          np.dtype(np.float64)),
          **dict.fromkeys(("rng_state", "rng_double", "rng_uint32"),
                          np.dtype(np.uint64))}


def dtype_of(name: str) -> np.dtype:
    """The dtype of array ``name``: :data:`DTYPES`, else int64."""
    return DTYPES.get(name, np.dtype(np.int64))


def state_bytes(scalars: dict[str, int]) -> int:
    """Bytes of an engine's stepping state: every :data:`ARRAYS` entry
    but the packet store (:data:`STORE`).  The step tables count as
    empty, as they are until ``bind_sources`` fills them."""
    lengths = _lengths(scalars)
    return sum(lengths.get(name, 0) * dtype_of(name).itemsize
               for name in ARRAYS if name not in STORE)


def _lengths(scalars: dict[str, int]) -> dict[str, int]:
    """The element count ``kernel.c`` assumes for each array; the step
    tables (``step_cycles``, ``step_factors``) may have any length."""
    lines, nodes, depth = (scalars[k] for k in ("lines", "nodes", "depth"))
    groups = nodes * scalars["ports"]
    copies = scalars["copies"]
    flit, credit = scalars["flit_horizon"], scalars["credit_horizon"]
    lengths = dict(
        counters=len(COUNTERS),
        activity_by_copy=copies * len(ACTIVITY_FIELDS),
        route=copies * scalars["local_nodes"] ** 2,
        buf_pid=lines * depth, buf_fidx=lines * depth,
        src_credits=nodes * scalars["vcs"],
        flit_line=flit * groups, flit_pid=flit * groups,
        flit_fidx=flit * groups, flit_count=flit,
        credit_line=credit * groups, credit_count=credit,
        credit_src=credit * nodes, credit_src_count=credit,
        busy_bits=-(-lines // 64), step_first=copies + 1,
        scratch=2 * scalars["lines_per_copy"])
    for size, names in (
            (lines, ("line_node", "line_port", "state", "fifo_len",
                     "fifo_head", "out_port", "out_vc", "out_group",
                     "out_line", "ready", "credits", "owner")),
            (groups, ("link_base", "va_ptr", "sa_in_ptr", "sa_out_ptr",
                      "scoreboard", "group_counts")),
            (nodes, ("q_head", "q_tail", "cur_lid", "cur_len", "cur_sent",
                     "cur_vc", "src_rr", "pkt_prob", "dest_table")),
            (copies, ("backlog_by_copy", "ejected_by_copy",
                      "time_by_copy", "period_by_copy", "next_node_cycle",
                      "measured_created_by_copy",
                      "measured_delivered_by_copy", "law_by_copy",
                      "step_pos", "rng_state", "rng_double",
                      "rng_uint32")),
            (scalars["capacity"], STORE)):
        lengths.update(dict.fromkeys(names, size))
    return lengths


class KernelBuildError(RuntimeError):
    """The kernel cannot be built or loaded: no compiler, a failed
    compile, an unusable cache directory or a mismatched library."""


class _Layout(ctypes.Structure):
    _fields_ = ([(name, ctypes.c_int64) for name in SCALARS]
                + [(name, ctypes.c_double) for name in REALS]
                + [(name, ctypes.c_void_p) for name in ARRAYS])


class Kernel:
    """The loaded library: binds an engine's arrays and runs them."""

    def __init__(self, path: Path) -> None:
        # PyDLL keeps the interpreter lock through a run, so no other
        # thread sees the arrays mid-cycle; it also calls faster than
        # CDLL, which drops and retakes the lock.
        lib = ctypes.PyDLL(str(path))
        lib.fs_layout_size.argtypes = ()
        lib.fs_layout_size.restype = ctypes.c_int64
        if lib.fs_layout_size() != ctypes.sizeof(_Layout):
            raise KernelBuildError(
                f"{path.name}: fs_net does not match kernel.py's layout")
        run = lib.fs_run
        run.argtypes = (ctypes.POINTER(_Layout), ctypes.c_int64,
                        ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
                        ctypes.c_int32, ctypes.c_int32, ctypes.c_int32)
        run.restype = ctypes.c_int64
        self._lib = lib
        #: ``run(layout, cycle, stop, stop_ns, headroom,
        #: attribute_activity, measuring, until_done)`` -> the next
        #: cycle (``kernel.c``: fs_run)
        self.run = run

    @staticmethod
    def bind(scalars: dict, engine) -> ctypes.Structure:
        """The ``fs_net`` struct over ``engine``'s :data:`ARRAYS`.

        The caller keeps the struct and the arrays alive while it
        steps, and binds again whenever it reallocates an array.
        """
        layout = _Layout()
        for name in SCALARS:
            setattr(layout, name, int(scalars[name]))
        for name in REALS:
            setattr(layout, name, float(scalars[name]))
        lengths = _lengths(scalars)
        for name in ARRAYS:
            array = getattr(engine, name)
            dtype = dtype_of(name)
            length = lengths.get(name, array.size)
            if (array.dtype != dtype or array.size != length
                    or not array.flags.c_contiguous):
                raise ValueError(
                    f"kernel array {name!r} must be a C-contiguous {dtype} "
                    f"array of {length} elements, got {array.dtype} "
                    f"{array.shape}")
            setattr(layout, name, array.ctypes.data)
        return layout


def library_name() -> str:
    """The cached library's file name for this source and command."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(repr((COMPILER, platform.machine())).encode())
    return f"fastsim-kernel-{digest.hexdigest()[:16]}.so"


def cache_dir() -> Path:
    """This package's ``__pycache__``, or a per-user temp directory
    when the package directory is read-only."""
    package_cache = SOURCE.parent / "__pycache__"
    try:
        package_cache.mkdir(exist_ok=True)
    except OSError:
        pass
    else:
        if os.access(package_cache, os.W_OK):
            return package_cache
    user = os.getuid() if hasattr(os, "getuid") else None
    fallback = Path(tempfile.gettempdir()) / f"repro-fastsim-{user}"
    fallback.mkdir(mode=0o700, exist_ok=True)
    if user is not None and fallback.stat().st_uid != user:
        # Never load a library from a directory another user controls.
        raise KernelBuildError(f"{fallback} belongs to another user")
    return fallback


def build(directory: Path) -> Path:
    """The compiled library in ``directory``, built first if missing.

    Raises :class:`KernelBuildError` (with the tail of the compiler's
    stderr) or :class:`OSError` when no library can be built.
    """
    target = directory / library_name()
    if target.exists():
        return target
    if shutil.which(COMPILER[0]) is None:
        raise KernelBuildError(
            f"no C compiler: `{COMPILER[0]}` is not on PATH")
    fd, scratch = tempfile.mkstemp(dir=directory, prefix=target.name,
                                   suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([*COMPILER, "-o", scratch, str(SOURCE)],
                              capture_output=True, text=True, check=False)
        if proc.returncode:
            tail = proc.stderr.strip().splitlines()[-STDERR_TAIL_LINES:]
            raise KernelBuildError(
                f"`{' '.join(COMPILER)}` exited with status "
                f"{proc.returncode}:\n" + "\n".join(tail))
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return target


@functools.cache
def load_kernel() -> Kernel:
    """The compiled step, built on first use.

    Raises :class:`KernelBuildError` with the reason when it cannot be
    built or loaded; a failed call is not cached, so the next one
    tries again.
    """
    try:
        return Kernel(build(cache_dir()))
    except OSError as exc:
        raise KernelBuildError(f"the kernel cannot be built or loaded: "
                               f"{exc}") from exc
