"""The execution context: one object describing *how* units run.

An :class:`ExecutionContext` is constructed once at the top (CLI
flags, benchmark environment variables, or directly in code) and
passed down whole, CLI -> Workbench -> run_sweep -> SweepRunner:

* ``backend`` — execution-backend name (:mod:`repro.runner.backends`):
  ``serial``, ``batched``, ``distributed``, or ``auto``;
* ``jobs`` — worker processes for per-unit fan-out and batch shards;
* ``cache`` — the shared :class:`~repro.runner.cache.UnitCache`
  (``None`` disables unit caching);
* ``engine`` — default simulation engine for units built under this
  context;
* ``progress`` — optional per-unit progress callback;
* ``queue`` / ``workers`` — the shared work-queue directory and
  self-spawned local worker count for the ``distributed`` backend
  (``workers=0`` waits on externally started workers; see
  :mod:`repro.runner.distributed`);
* ``pool`` — keep the self-spawned distributed workers *warm* across
  submissions (spawn once, serve every sweep this context runs;
  :meth:`ExecutionContext.close` retires them);
* ``claim_batch`` — tasks a distributed worker claims per queue
  round-trip.

The context memoizes its backend instance, so repeated ``run`` calls
share state the backend keeps across plans (the warm worker pool).
Call :meth:`~ExecutionContext.close` when done with a context whose
backend holds external resources; in-process backends make it a no-op.

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
from .backends import backend_names
from .cache import UnitCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import SweepRunner
    from .units import UnitResult

#: Progress callback signature: (units done, units total, latest result).
ProgressFn = Callable[[int, int, "UnitResult"], None]


def default_cache() -> UnitCache:
    """A fresh unit cache (the context default)."""
    return UnitCache()


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
    pool: bool = False
    claim_batch: int = 1

    def __post_init__(self) -> None:
        if (self.backend != "auto"
                and self.backend not in backend_names()):
            known = ", ".join(backend_names() + ("auto",))
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"known: {known}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.claim_batch < 1:
            raise ValueError("claim_batch must be >= 1")
        if self.engine not in engine_names():
            raise ValueError(f"unknown engine {self.engine!r}; known: "
                             f"{', '.join(engine_names())}")
        if self.backend == "distributed" and not self.queue:
            raise ValueError("backend 'distributed' requires queue=DIR "
                             "(the shared work-queue directory)")
        if self.pool:
            if self.backend != "distributed":
                raise ValueError("pool=True is only meaningful with "
                                 "backend='distributed'")
            if self.workers < 1:
                raise ValueError("pool=True needs self-spawned workers "
                                 "(workers >= 1)")
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
                "pool": self.pool, "claim_batch": self.claim_batch}

    def make_backend(self):
        """The context's backend instance (created on first use).

        Memoized so state a backend keeps *across* plans — the
        distributed backend's warm worker pool — survives repeated
        ``run`` calls under one context.  In-process backends are
        stateless; for them this is just an allocation saved.
        """
        from .backends import make_backend

        name = self.resolved_backend()
        if self._backend is None or self._backend.name != name:
            self.close()
            self._backend = make_backend(name, **self.backend_options())
        return self._backend

    def close(self) -> None:
        """Release backend-held resources (warm worker pools).

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
    ``REPRO_ENGINE``/``REPRO_QUEUE``/``REPRO_WORKERS``/``REPRO_POOL``/
    ``REPRO_CLAIM_BATCH`` (the benchmark harness entry point)."""
    backend = os.environ.get("REPRO_BACKEND", "auto")
    queue = os.environ.get("REPRO_QUEUE") or None
    workers = _env_int("REPRO_WORKERS", "0")
    pool = os.environ.get("REPRO_POOL", "") not in ("", "0")
    claim_batch = _env_int("REPRO_CLAIM_BATCH", "1")
    if backend != "distributed" and (queue or workers or pool
                                     or claim_batch != 1):
        # Same guard as the CLI: a queue that would be silently
        # ignored is a misconfiguration, not a default.
        raise ValueError("REPRO_QUEUE/REPRO_WORKERS/REPRO_POOL/"
                         "REPRO_CLAIM_BATCH are only meaningful with "
                         "REPRO_BACKEND=distributed")
    return ExecutionContext(
        backend=backend,
        jobs=_env_int("REPRO_JOBS", "1"),
        engine=os.environ.get("REPRO_ENGINE", DEFAULT_ENGINE),
        queue=queue, workers=workers, pool=pool,
        claim_batch=claim_batch)
