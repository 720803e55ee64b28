"""The execution context: one object describing *how* units run.

An :class:`ExecutionContext` is constructed once at the top (CLI
flags, benchmark environment variables, or directly in code) and
passed down whole, CLI -> Workbench -> run_sweep -> SweepRunner:

* ``backend`` — execution-backend name (:mod:`repro.runner.backends`):
  ``serial``, ``batched``, ``distributed``, or ``auto``;
* ``jobs`` — worker processes for per-unit fan-out and batch shards
  (``0`` = all cores, :func:`default_jobs`);
* ``cache`` — the shared :class:`~repro.runner.cache.UnitCache`
  (``None`` disables unit caching);
* ``engine`` — default simulation engine for units built under this
  context;
* ``progress`` — optional per-unit progress callback;
* ``queue`` / ``workers`` — the shared work-queue directory and
  self-spawned local worker count for the ``distributed`` backend
  (``workers=0`` waits on externally started workers; see
  :mod:`repro.runner.distributed`);
* ``claim_batch`` — tasks each self-spawned worker claims per queue
  round-trip.

Every rule on these knobs is written once, in :func:`check_knobs`, and
each front end runs it in its own spelling (:data:`SPELLINGS`):
``ExecutionContext(claim_batch=0)`` fails naming ``claim_batch``, the
CLI's ``--claim-batch 0`` naming ``--claim-batch`` and
``REPRO_CLAIM_BATCH=0`` naming ``REPRO_CLAIM_BATCH``.

The context memoizes its backend instance, so repeated ``run`` calls
share state the backend keeps across plans: the distributed backend's
self-spawned worker fleet spawns for the first submission that
publishes work and serves every later one.  Call
:meth:`~ExecutionContext.close` when done with a context whose backend
holds external resources; the fleet also retires when the context is
collected or the interpreter exits, and in-process backends make it a
no-op.

``auto`` resolves to ``batched`` when the context's engine is the fast
engine (its sweeps then execute through
:func:`repro.noc.fastsim.run_fixed_batch` automatically) or when
``jobs > 1`` (units fan out onto a process pool), and to ``serial``
otherwise.  The determinism contract is backend-independent: any
backend, shard size and worker count returns bit-identical results
(see README "Determinism guarantee"), so backend selection is purely a
performance choice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..noc.engines import DEFAULT_ENGINE, engine_names
from ..noc.fastsim import kernel
from .backends import backend_names
from .cache import UnitCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import SweepRunner
    from .units import UnitResult

#: Progress callback signature: (units done, units total, latest result).
ProgressFn = Callable[[int, int, "UnitResult"], None]

#: The knobs :func:`check_knobs` rules on, as context field names.
KNOBS = ("backend", "jobs", "engine", "queue", "workers", "claim_batch")

#: How each front end writes a knob: the name it gives a field, and
#: what separates that name from a value (``claim_batch=2`` in code,
#: ``--claim-batch 2`` on the command line, ``REPRO_CLAIM_BATCH=2`` in
#: the environment).
SPELLINGS = {
    "code": (lambda name: name, "="),
    "cli": (lambda name: "--" + name.replace("_", "-"), " "),
    "env": (lambda name: "REPRO_" + name.upper(), "="),
}


def default_jobs() -> int:
    """A sensible worker count for this host (at least 1).

    Prefers the scheduling affinity mask over the raw core count so
    containers with a CPU quota don't oversubscribe.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux platforms
        cores = os.cpu_count() or 1
    return max(1, cores)


def default_cache() -> UnitCache:
    """A fresh unit cache (the context default)."""
    return UnitCache()


def check_knobs(spelling: str, backend: str, jobs: int, engine: str,
                queue: str | None, workers: int,
                claim_batch: int) -> None:
    """Raise ``ValueError`` unless the knobs describe a valid context.

    The one place each rule on the context's knobs is written.  The
    message names every knob as ``spelling`` (a :data:`SPELLINGS` key)
    writes it, so the user reads back what they typed.  The fast engine
    needs its compiled cycle step, so ``engine="fast"`` loads it here
    (:func:`repro.noc.fastsim.kernel.load_kernel`) and fails with the
    reason on a host that cannot build it.
    """
    name, sep = SPELLINGS[spelling]

    def setting(knob: str, value) -> str:
        return f"{name(knob)}{sep}{value}"

    if backend != "auto" and backend not in backend_names():
        known = ", ".join(backend_names() + ("auto",))
        raise ValueError(f"unknown {name('backend')} {backend!r}; "
                         f"known: {known}")
    if engine not in engine_names():
        raise ValueError(f"unknown {name('engine')} {engine!r}; known: "
                         f"{', '.join(engine_names())}")
    if jobs < 0:
        raise ValueError(f"{name('jobs')} must be >= 0 (0 = all cores)")
    if workers < 0:
        raise ValueError(f"{name('workers')} must be >= 0")
    if claim_batch < 1:
        raise ValueError(f"{name('claim_batch')} must be >= 1")
    distributed = setting("backend", "distributed")
    if backend == "distributed":
        if not queue:
            raise ValueError(f"{distributed} requires "
                             f"{setting('queue', 'DIR')} (the shared "
                             f"work-queue directory)")
    else:
        # A queue knob that would be silently ignored is a
        # misconfiguration, not a default.
        orphans = [name(knob) for knob, given in
                   (("queue", queue), ("workers", workers),
                    ("claim_batch", claim_batch != 1)) if given]
        if orphans:
            verb = "is" if len(orphans) == 1 else "are"
            raise ValueError(f"{'/'.join(orphans)} {verb} only "
                             f"meaningful with {distributed}")
    if claim_batch != 1 and workers < 1:
        raise ValueError(f"{setting('claim_batch', claim_batch)} needs "
                         f"self-spawned workers ({name('workers')} >= "
                         f"1), the only workers it configures")
    if engine == "fast":
        try:
            kernel.load_kernel()
        except kernel.KernelBuildError as exc:
            raise ValueError(
                f"{setting('engine', 'fast')} needs its compiled cycle "
                f"step, which gcc builds on first use, and it cannot be "
                f"built here: {exc}. Install gcc, or use "
                f"{setting('engine', 'reference')} (the default), which "
                f"runs without a compiler") from exc


@dataclass
class ExecutionContext:
    """How work units execute: backend, parallelism, cache, engine."""

    backend: str = "auto"
    jobs: int = 1
    cache: UnitCache | None = field(default_factory=default_cache)
    engine: str = DEFAULT_ENGINE
    progress: ProgressFn | None = None
    queue: str | None = None
    workers: int = 0
    claim_batch: int = 1

    def __post_init__(self) -> None:
        check_knobs("code", **{knob: getattr(self, knob)
                               for knob in KNOBS})
        if self.jobs == 0:
            self.jobs = default_jobs()
        self._runner: "SweepRunner" | None = None
        self._backend = None

    def resolved_backend(self) -> str:
        """The concrete backend ``auto`` stands for under this context.

        ``auto`` never resolves to ``distributed`` — a sweep only
        leaves the process when a queue directory is named explicitly.
        """
        if self.backend != "auto":
            return self.backend
        if self.engine == "fast" or self.jobs > 1:
            return "batched"
        return "serial"

    def backend_options(self) -> dict:
        """Constructor keywords for the resolved backend.

        The in-process backends are configured entirely through
        ``execute(plan, jobs, finish)``; only the distributed backend
        needs construction-time deployment knobs.
        """
        if self.resolved_backend() != "distributed":
            return {}
        return {"queue_dir": self.queue, "workers": self.workers,
                "claim_batch": self.claim_batch}

    def make_backend(self):
        """The context's backend instance (created on first use).

        Memoized so state a backend keeps *across* plans — the
        distributed backend's self-spawned worker fleet — survives
        repeated ``run`` calls under one context.  In-process backends
        are stateless; for them this is just an allocation saved.
        """
        from .backends import make_backend

        name = self.resolved_backend()
        if self._backend is None or self._backend.name != name:
            self.close()
            self._backend = make_backend(name, **self.backend_options())
        return self._backend

    def close(self) -> None:
        """Release backend-held resources (a self-spawned fleet).

        Safe to call any number of times; a context keeps working
        after ``close()`` (the next ``run`` builds a fresh backend).
        """
        backend, self._backend = self._backend, None
        if backend is not None and hasattr(backend, "close"):
            backend.close()

    @property
    def runner(self) -> "SweepRunner":
        """The context's shared runner (created on first use).

        Sharing one runner means repeated ``run_sweep`` calls under one
        context share the cache, the accumulated ``RunTotals`` and the
        progress callback.
        """
        if self._runner is None:
            from .executor import SweepRunner
            self._runner = SweepRunner(context=self)
        return self._runner

    def run(self, units) -> list["UnitResult"]:
        """Execute units through the context's runner."""
        return self.runner.run(units)


def _env_int(name: str, default: str) -> int:
    """An integer environment variable, with a readable failure.

    A raw ``int()`` here would surface as ``invalid literal for
    int() with base 10: 'x'`` — technically true, but naming neither
    the variable nor where to fix it.  Match the CLI's argument-error
    quality instead.
    """
    value = os.environ.get(name, default)
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={value!r} is not an "
            f"integer") from None


def context_from_env() -> ExecutionContext:
    """Build a context from ``REPRO_BACKEND``/``REPRO_JOBS``/
    ``REPRO_ENGINE``/``REPRO_QUEUE``/``REPRO_WORKERS``/
    ``REPRO_CLAIM_BATCH`` (the benchmark harness entry point)."""
    knobs = {"backend": os.environ.get("REPRO_BACKEND", "auto"),
             "jobs": _env_int("REPRO_JOBS", "1"),
             "engine": os.environ.get("REPRO_ENGINE", DEFAULT_ENGINE),
             "queue": os.environ.get("REPRO_QUEUE") or None,
             "workers": _env_int("REPRO_WORKERS", "0"),
             "claim_batch": _env_int("REPRO_CLAIM_BATCH", "1")}
    check_knobs("env", **knobs)
    return ExecutionContext(**knobs)
