"""Name -> factory registries for scenario building blocks.

The paper evaluates exactly three controllers, and before this module
existed that triple was hardwired as string literals across the
analysis and experiment layers — nothing user-defined could reach the
sweep planner, the batched kernel or the distributed queue.  The
registries turn "which controller / which workload" into *data*:

* :data:`POLICY_REGISTRY` maps policy names to
  :class:`~repro.core.policy.DvfsPolicy` subclasses (the transient
  controllers of paper Figs. 1 and 3) and, via
  :func:`register_strategy`, to steady-state sweep-strategy factories
  (what ``run_sweep`` evaluates per rate point);
* a mirror registry for traffic patterns lives in
  :mod:`repro.traffic.patterns` (built on the same :class:`Registry`).

A :class:`Ref` is a frozen ``(name, params)`` pair — the canonical
spelling of "this policy with these parameters".  Parameters are
structured data, never strings at call sites; :meth:`Ref.parse` is the
*one* place the CLI's ``"dmsd:target_delay_ns=500,ki=0.05"`` surface
syntax is decoded.

Factories always construct **fresh instances**: controllers carry PI
state and ``reset()`` mutates them in place, so a shared instance
reused across sweep units would leak state between points (the
regression tests pin this).  Look names up, never cache the objects.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@dataclass(frozen=True)
class Ref:
    """A registry name plus structured parameters, frozen and digestable.

    ``params`` is kept canonically sorted by key, so two refs built
    from the same keyword arguments in any order compare (and hash,
    and digest) equal.  Parameter values should be hashable — numbers,
    strings, tuples, frozen dataclasses such as ``SimBudget``.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"invalid registry name {self.name!r} (letters, digits, "
                f"'_', '-', '.' only, must not be empty)")
        pairs = tuple(self.params)
        for pair in pairs:
            if (not isinstance(pair, tuple) or len(pair) != 2
                    or not isinstance(pair[0], str)):
                raise ValueError(
                    f"params must be (key, value) pairs, got {pair!r}")
        object.__setattr__(self, "params", tuple(sorted(pairs)))

    # --- construction --------------------------------------------------
    @classmethod
    def of(cls, name: str, **params) -> "Ref":
        """Structured spelling: ``Ref.of("dmsd", target_delay_ns=500)``."""
        return cls(name, tuple(params.items()))

    @classmethod
    def parse(cls, text: str) -> "Ref":
        """Decode the CLI surface syntax ``name[:key=value,...]``.

        Values are Python literals when they parse as one (``0.05``,
        ``500``, ``True``, ``'x'``) and plain strings otherwise.  This
        is the only place that syntax is interpreted — code should
        build refs with :meth:`of` instead of assembling strings.
        """
        if not isinstance(text, str):
            raise ValueError(f"expected a string, got {text!r}")
        name, sep, rest = text.partition(":")
        params: dict[str, Any] = {}
        if sep:
            if not rest.strip():
                raise ValueError(
                    f"empty parameter list in {text!r} (drop the ':' or "
                    f"spell name:key=value)")
            for item in rest.split(","):
                key, eq, raw = item.partition("=")
                key = key.strip()
                if not eq or not key:
                    raise ValueError(
                        f"malformed parameter {item!r} in {text!r} "
                        f"(expected key=value)")
                try:
                    value = ast.literal_eval(raw.strip())
                except (ValueError, SyntaxError):
                    value = raw.strip()
                params[key] = value
        return cls.of(name.strip(), **params)

    @classmethod
    def coerce(cls, value: "Ref | str") -> "Ref":
        """A ref from either spelling (ref objects pass through)."""
        if isinstance(value, Ref):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise ValueError(
            f"cannot interpret {value!r} as a registry reference "
            f"(expected a name string or a Ref)")

    # --- views ---------------------------------------------------------
    @property
    def label(self) -> str:
        """Display/series label: the name, plus params when present."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}:{inner}"

    def kwargs(self) -> dict[str, Any]:
        """The parameters as keyword arguments for the factory."""
        return dict(self.params)

    def spec_key(self) -> tuple:
        """Canonical identity tuple (digest/cache-key input)."""
        return (self.name,) + tuple((k, repr(v)) for k, v in self.params)


def _accepted_params(factory: Callable, skip: tuple[str, ...]) -> \
        tuple[str, ...] | None:
    """Keyword parameters ``factory`` accepts; None = accepts anything."""
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without introspection
        return None
    names = []
    for name, param in sig.parameters.items():
        if param.kind == inspect.Parameter.VAR_KEYWORD:
            return None
        if param.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          inspect.Parameter.KEYWORD_ONLY):
            if name not in skip:
                names.append(name)
    return tuple(names)


def _positional_names(factory: Callable, count: int) -> tuple[str, ...]:
    """Names of the first ``count`` positional parameters (to skip)."""
    if count == 0:
        return ()
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):
        return ()
    pos = [name for name, param in sig.parameters.items()
           if param.kind in (inspect.Parameter.POSITIONAL_ONLY,
                             inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    return tuple(pos[:count])


class Registry:
    """An insertion-ordered name -> factory map with clean errors.

    Unknown names and unknown/invalid parameters raise ``ValueError``
    with the accepted alternatives spelled out, at both the API and
    (via the CLI's use of these calls) the command-line layer.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable] = {}

    # --- registration --------------------------------------------------
    def add(self, name: str, factory: Callable, *,
            replace: bool = False) -> Callable:
        """Register ``factory`` under ``name``; returns the factory."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(f"invalid {self.kind} name {name!r}")
        if name in self._factories and not replace:
            raise ValueError(
                f"{self.kind} {name!r} is already registered "
                f"(pass replace=True to override)")
        self._factories[name] = factory
        return factory

    def remove(self, name: str) -> None:
        """Drop a registration (tests and plugin teardown)."""
        if name not in self._factories:
            raise ValueError(f"{self.kind} {name!r} is not registered")
        del self._factories[name]

    def registering(self, cls=None, *, name: str | None = None,
                    replace: bool = False):
        """The class-decorator form of :meth:`add`.

        Backs ``@register_policy`` and ``@register_pattern``: usable
        bare (``@REG.registering``) or parameterized
        (``@REG.registering(name="mine", replace=True)``); the name
        defaults to the class's ``name`` attribute.
        """
        def wrap(klass):
            self.add(name or klass.name, klass, replace=replace)
            return klass
        return wrap(cls) if cls is not None else wrap

    # --- lookup --------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._factories)

    def factory(self, name: str) -> Callable:
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "none"
            raise ValueError(f"unknown {self.kind} {name!r}; "
                             f"known: {known}") from None

    def accepted_params(self, name: str,
                        skip_positional: int = 0) -> tuple[str, ...] | None:
        """Parameter names ``create`` accepts for this entry.

        ``None`` means the factory takes arbitrary keywords.
        ``skip_positional`` hides leading positional arguments the
        caller supplies itself (e.g. the mesh for traffic patterns).
        """
        factory = self.factory(name)
        skip = _positional_names(factory, skip_positional)
        return _accepted_params(factory, skip)

    # --- instantiation -------------------------------------------------
    def create(self, ref: "Ref | str", *args, **extra) -> Any:
        """A **fresh** instance of ``ref`` with its parameters applied.

        Never hand out shared instances: controllers are stateful and
        ``reset()`` mutates them, so every unit of work gets its own.
        """
        ref = Ref.coerce(ref)
        factory = self.factory(ref.name)
        params = {**ref.kwargs(), **extra}
        self._check_params(ref.name, factory, params,
                           skip=_positional_names(factory, len(args)))
        try:
            return factory(*args, **params)
        except TypeError as exc:
            raise ValueError(
                f"cannot instantiate {self.kind} {ref.name!r} with "
                f"parameters {sorted(params) or 'none'}: {exc}") from exc

    def _check_params(self, name: str, factory: Callable,
                      params: Mapping[str, Any],
                      skip: tuple[str, ...]) -> None:
        accepted = _accepted_params(factory, skip)
        if accepted is None:
            return
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ValueError(
                f"{self.kind} {name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, unknown))}; accepted: "
                f"{', '.join(accepted) or 'none'}")

    def validate_ref(self, ref: "Ref | str",
                     skip_positional: int = 0) -> "Ref":
        """Coerce and fully validate a ref (name *and* parameters).

        The eager form of the checks ``create`` performs — the CLI and
        spec constructors call it so misspellings fail at parse time,
        not deep inside a sweep or a worker process.
        """
        ref = Ref.coerce(ref)
        factory = self.factory(ref.name)
        self._check_params(ref.name, factory, ref.kwargs(),
                           skip=_positional_names(factory,
                                                  skip_positional))
        return ref


class PolicyRegistry(Registry):
    """The policy registry: controllers plus sweep-strategy factories.

    A policy participates in two execution modes:

    * **transient** — its :class:`~repro.core.policy.DvfsPolicy`
      subclass drives ``Simulation`` cycle by cycle;
    * **steady-state sweeps** — a *strategy factory* builds the
      :class:`~repro.analysis.sweep.SteadyStateStrategy` that
      ``run_sweep`` evaluates per rate point.  Factories take a
      :class:`~repro.analysis.sweep.StrategyResources` first (scenario
      -derived quantities like ``lambda_max``; may be ``None``) plus
      the ref's parameters.

    One ref drives both sides: when instantiating either side, a
    parameter the *other* side accepts is silently set aside for it
    (``dmsd:target_delay_ns=150,iterations=8`` builds a controller —
    ``iterations`` is sweep-side — and a strategy alike), while a
    parameter unknown to both raises the usual ``ValueError``.

    Only policies with a strategy factory appear in
    :func:`default_policies` — the ordering every figure sweeps by
    default.
    """

    def __init__(self) -> None:
        super().__init__("policy")
        self._strategies: dict[str, Callable] = {}
        self._default: dict[str, bool] = {}

    def remove(self, name: str) -> None:
        super().remove(name)
        self._strategies.pop(name, None)
        self._default.pop(name, None)

    def add_strategy(self, name: str, factory: Callable, *,
                     replace: bool = False,
                     default: bool = True) -> Callable:
        if name not in self:
            known = ", ".join(sorted(self.names())) or "none"
            raise ValueError(
                f"cannot attach a sweep strategy to unregistered "
                f"policy {name!r}; register the policy first "
                f"(known: {known})")
        if name in self._strategies and not replace:
            raise ValueError(
                f"policy {name!r} already has a sweep strategy "
                f"(pass replace=True to override)")
        self._strategies[name] = factory
        self._default[name] = default
        return factory

    def has_strategy(self, name: str) -> bool:
        return name in self._strategies

    def strategy_factory(self, name: str) -> Callable:
        self.factory(name)  # unknown-policy error takes precedence
        try:
            return self._strategies[name]
        except KeyError:
            raise ValueError(
                f"policy {name!r} has no steady-state sweep strategy; "
                f"register one with register_strategy({name!r}, ...) "
                f"to use it in sweeps") from None

    def sweepable(self) -> tuple[str, ...]:
        """Names usable in sweeps, in registration order."""
        return tuple(n for n in self.names() if n in self._strategies)

    def default_sweep(self) -> tuple[str, ...]:
        """Sweepable names that joined the default set.

        A strategy registered with ``default=False`` is *opt-in*: it
        resolves by name anywhere but never silently widens the
        figures' default policy comparison.
        """
        return tuple(n for n in self.sweepable() if self._default[n])

    def is_default(self, name: str) -> bool:
        """Whether ``name`` is in the default sweep set."""
        return self._default.get(name, False)

    def strategy_params(self, name: str) -> tuple[str, ...] | None:
        """Parameters the sweep-strategy factory accepts (for help)."""
        factory = self.strategy_factory(name)
        return _accepted_params(factory, _positional_names(factory, 1))

    def _side_params(self, name: str, params: dict,
                     factory: Callable, skip: tuple[str, ...],
                     other: tuple[Callable, tuple[str, ...]] | None
                     ) -> dict:
        """Filter a dual-side ref's params down to one side's share.

        Keeps what ``factory`` accepts; params the other side accepts
        are dropped here (they are that side's business); params
        unknown to both raise listing the union.
        """
        accepted = _accepted_params(factory, skip)
        if accepted is None:
            return params
        keep = {k: v for k, v in params.items() if k in accepted}
        leftover = set(params) - set(keep)
        if not leftover:
            return keep
        union = set(accepted)
        if other is not None:
            other_accepted = _accepted_params(other[0], other[1])
            if other_accepted is None:
                return keep
            union |= set(other_accepted)
            leftover -= set(other_accepted)
        if leftover:
            raise ValueError(
                f"{self.kind} {name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, sorted(leftover)))}; accepted: "
                f"{', '.join(sorted(union)) or 'none'}")
        return keep

    def _strategy_side(self, name: str
                       ) -> tuple[Callable, tuple[str, ...]] | None:
        if not self.has_strategy(name):
            return None
        factory = self._strategies[name]
        return factory, _positional_names(factory, 1)

    def create(self, ref: "Ref | str", *args, **extra) -> Any:
        """A fresh controller; sweep-side params are set aside."""
        ref = Ref.coerce(ref)
        factory = self.factory(ref.name)
        params = self._side_params(
            ref.name, {**ref.kwargs(), **extra}, factory,
            _positional_names(factory, len(args)),
            self._strategy_side(ref.name))
        try:
            return factory(*args, **params)
        except TypeError as exc:
            raise ValueError(
                f"cannot instantiate {self.kind} {ref.name!r} with "
                f"parameters {sorted(params) or 'none'}: {exc}") from exc

    def validate_sweep_ref(self, policy: "Ref | str") -> Ref:
        """Coerce and validate a ref destined for steady-state sweeps.

        Stricter than :func:`as_policy_ref`: the policy must have a
        sweep strategy, and the parameters must be ones the *strategy*
        factory accepts — ``Workbench(policies=...)`` and the CLI
        ``--policy`` flag use this so a sweep-incapable policy or a
        controller-only parameter fails at parse time with the usual
        clean message, not mid-run.
        """
        ref = Ref.coerce(policy)
        factory = self.strategy_factory(ref.name)  # unknown/no-strategy
        self._check_params(ref.name, factory, ref.kwargs(),
                           skip=_positional_names(factory, 1))
        return ref

    def create_strategy(self, ref: "Ref | str", resources=None,
                        **extra) -> Any:
        """A fresh steady-state strategy; controller-side params are
        set aside (they shape the transient loop only)."""
        ref = Ref.coerce(ref)
        factory = self.strategy_factory(ref.name)
        controller = self.factory(ref.name)
        params = self._side_params(
            ref.name, {**ref.kwargs(), **extra}, factory,
            _positional_names(factory, 1), (controller, ()))
        try:
            return factory(resources, **params)
        except TypeError as exc:
            raise ValueError(
                f"cannot build a sweep strategy for policy "
                f"{ref.name!r} with parameters "
                f"{sorted(params) or 'none'}: {exc}") from exc


#: The process-wide policy registry.
POLICY_REGISTRY = PolicyRegistry()


def register_policy(cls=None, *, name: str | None = None,
                    replace: bool = False):
    """Class decorator registering a ``DvfsPolicy`` under ``cls.name``.

    Usable bare (``@register_policy``) or parameterized
    (``@register_policy(name="mine", replace=True)``).
    """
    return POLICY_REGISTRY.registering(cls, name=name, replace=replace)


def register_strategy(name: str, factory: Callable | None = None, *,
                      replace: bool = False, default: bool = True):
    """Attach a sweep-strategy factory to a registered policy.

    ``factory(resources, **params)`` must return a
    ``SteadyStateStrategy``; ``resources`` may be ``None`` when the
    caller supplies every parameter explicitly.  Usable as a decorator
    (``@register_strategy("mine")``) or called directly.  Pass
    ``default=False`` for an opt-in policy: resolvable by name
    everywhere, but excluded from :func:`default_policies` so the
    standard figures keep the paper's comparison set.
    """
    def wrap(fn):
        return POLICY_REGISTRY.add_strategy(
            name, fn, replace=replace, default=default)
    return wrap(factory) if factory is not None else wrap


def make_policy(policy: "Ref | str", **extra):
    """A fresh controller instance for a policy ref or name."""
    return POLICY_REGISTRY.create(policy, **extra)


def make_strategy(policy: "Ref | str", resources=None, **extra):
    """A fresh steady-state sweep strategy for a policy ref or name."""
    return POLICY_REGISTRY.create_strategy(policy, resources, **extra)


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return POLICY_REGISTRY.names()


def default_policies() -> tuple[str, ...]:
    """The registry's default sweep ordering.

    With only the built-ins loaded this is exactly the paper's triple
    ``("no-dvfs", "rmsd", "dmsd")``; plugin policies registered with a
    sweep strategy extend it in registration order, which is how a
    custom controller shows up in every figure without touching them.
    Strategies registered with ``default=False`` (the adaptive
    ``gcc``/``utility`` built-ins) are opt-in and excluded here.
    """
    return POLICY_REGISTRY.default_sweep()


def as_policy_ref(policy: "Ref | str") -> Ref:
    """Coerce and validate a policy reference against the registry.

    A parameter is valid when *either* the controller constructor or
    the sweep-strategy factory accepts it — one ref drives both (e.g.
    ``dmsd``'s ``ki`` is controller-side, ``iterations`` sweep-side).
    """
    ref = Ref.coerce(policy)
    factory = POLICY_REGISTRY.factory(ref.name)  # clean unknown error
    sides = [_accepted_params(factory, ())]
    if POLICY_REGISTRY.has_strategy(ref.name):
        strategy = POLICY_REGISTRY.strategy_factory(ref.name)
        sides.append(_accepted_params(strategy,
                                      _positional_names(strategy, 1)))
    if any(side is None for side in sides):  # a side takes **kwargs
        return ref
    accepted = {name for side in sides for name in side}
    unknown = sorted(set(ref.kwargs()) - accepted)
    if unknown:
        raise ValueError(
            f"policy {ref.name!r} does not accept parameter(s) "
            f"{', '.join(map(repr, unknown))}; accepted: "
            f"{', '.join(sorted(accepted)) or 'none'}")
    return ref
