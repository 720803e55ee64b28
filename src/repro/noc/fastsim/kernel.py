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

When the build or the load fails, :func:`load_kernel` warns once and
returns ``None``, and every engine runs the NumPy step instead: the
same results, more slowly.
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
import warnings
from pathlib import Path

import numpy as np

from ..stats import ACTIVITY_FIELDS

SOURCE = Path(__file__).with_name("kernel.c")

#: The compile command; ``-o LIBRARY SOURCE`` is appended.
COMPILER = ("gcc", "-O2", "-shared", "-fPIC")

#: Compiler stderr lines quoted in the fallback warning.
STDERR_TAIL_LINES = 12

#: ``fs_net``'s scalar fields, in ``kernel.c`` order.
SCALARS = ("nodes", "local_nodes", "ports", "vcs", "depth", "lines",
           "lines_per_copy", "route_latency", "va_latency",
           "link_latency", "credit_latency", "flit_horizon",
           "credit_horizon", "multi")

#: ``fs_net``'s array fields, in ``kernel.c`` order: every array the
#: cycle step reads or writes, named as the engine's attributes.  All
#: are int64 except ``state`` (int8) and ``fifo_len`` (int16).
ARRAYS = ("counters", "activity_by_copy", "backlog_by_copy",
          "ejected_by_copy", "route", "link_base", "line_node",
          "line_port", "state", "fifo_len", "fifo_head", "buf_pid",
          "buf_fidx", "out_port", "out_vc", "out_group", "out_line",
          "ready", "credits", "owner", "va_ptr", "sa_in_ptr",
          "sa_out_ptr", "scoreboard", "group_counts", "q_head", "q_tail",
          "cur_lid", "cur_len", "cur_sent", "cur_vc", "src_rr",
          "src_credits", "pkt_dst", "pkt_len", "pkt_hops", "pkt_next",
          "flit_line", "flit_pid", "flit_fidx", "flit_count",
          "credit_line", "credit_count", "credit_src",
          "credit_src_count", "events", "scratch")

#: ``counters`` layout (``kernel.c``'s enum): the activity totals in
#: ``ACTIVITY_FIELDS`` order, then the flit accounting.
COUNTERS = ACTIVITY_FIELDS + ("buffered", "in_link", "src_backlog",
                              "queued_packets", "injected_flits",
                              "ejected_flits")

_DTYPES = {"state": np.dtype(np.int8), "fifo_len": np.dtype(np.int16)}


def _lengths(scalars: dict[str, int]) -> dict[str, int]:
    """The element count ``kernel.c`` assumes for each array; the
    packet store, indexed by packet id, grows with the engine."""
    lines, nodes, depth = (scalars[k] for k in ("lines", "nodes", "depth"))
    groups = nodes * scalars["ports"]
    copies = nodes // scalars["local_nodes"]
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
        events=3 * nodes, scratch=2 * lines)
    for size, names in (
            (lines, ("line_node", "line_port", "state", "fifo_len",
                     "fifo_head", "out_port", "out_vc", "out_group",
                     "out_line", "ready", "credits", "owner")),
            (groups, ("link_base", "va_ptr", "sa_in_ptr", "sa_out_ptr",
                      "scoreboard", "group_counts")),
            (nodes, ("q_head", "q_tail", "cur_lid", "cur_len", "cur_sent",
                     "cur_vc", "src_rr")),
            (copies, ("backlog_by_copy", "ejected_by_copy"))):
        lengths.update(dict.fromkeys(names, size))
    return lengths


class KernelBuildError(RuntimeError):
    """The compiler failed or the built library does not match."""


class _Layout(ctypes.Structure):
    _fields_ = ([(name, ctypes.c_int64) for name in SCALARS]
                + [(name, ctypes.c_void_p) for name in ARRAYS])


class Kernel:
    """The loaded library: binds an engine's arrays and steps them."""

    def __init__(self, path: Path) -> None:
        # PyDLL keeps the interpreter lock through a step, so no other
        # thread sees the arrays mid-cycle; it also calls faster than
        # CDLL, which drops and retakes the lock.
        lib = ctypes.PyDLL(str(path))
        lib.fs_layout_size.argtypes = ()
        lib.fs_layout_size.restype = ctypes.c_int64
        if lib.fs_layout_size() != ctypes.sizeof(_Layout):
            raise KernelBuildError(
                f"{path.name}: fs_net does not match kernel.py's layout")
        step = lib.fs_step
        step.argtypes = (ctypes.POINTER(_Layout), ctypes.c_int64,
                         ctypes.c_int32)
        step.restype = ctypes.c_int64
        self._lib = lib
        #: ``step(layout, cycle, attribute_activity)`` -> event counts
        self.step = step

    @staticmethod
    def bind(scalars: dict[str, int], engine) -> ctypes.Structure:
        """The ``fs_net`` struct over ``engine``'s :data:`ARRAYS`.

        The caller keeps the struct and the arrays alive while it
        steps, and binds again whenever it reallocates an array.
        """
        layout = _Layout()
        for name in SCALARS:
            setattr(layout, name, int(scalars[name]))
        lengths = _lengths(scalars)
        for name in ARRAYS:
            array = getattr(engine, name)
            dtype = _DTYPES.get(name, np.dtype(np.int64))
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
def load_kernel() -> Kernel | None:
    """The compiled step, built on first use; ``None`` (after one
    warning per process) when it cannot be built or loaded."""
    try:
        return Kernel(build(cache_dir()))
    except (KernelBuildError, OSError) as exc:
        warnings.warn(
            f"fast engine: the compiled cycle step is unavailable, so "
            f"the NumPy step runs instead (same results, slower). "
            f"{exc}", RuntimeWarning, stacklevel=2)
        return None
