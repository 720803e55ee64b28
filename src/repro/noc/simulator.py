"""The simulation driver: clocks, phases, measurement and DVFS hooks.

:func:`drive` reproduces the measurement methodology of the paper's
modified Booksim, for one engine holding one or many replicas of the
mesh:

* the engine advances in **network clock cycles**; each replica's
  absolute time grows by its current network period each cycle, so a
  frequency change by the DVFS controller immediately stretches or
  shrinks subsequent cycles;
* traffic generation runs in the **node clock domain** (see
  ``repro.noc.clock``), so offered load is independent of the network's
  DVFS state — this is what pushes the NoC toward saturation when it is
  slowed down (eq. (1)); the engine draws each replica's arrivals in
  its step (``bind_sources``);
* runs have a *warmup* phase, a *measurement* phase whose packets are
  tagged and reported, and a *drain* phase that waits for tagged
  packets to arrive (with a cap so saturated runs still terminate);
* in a one-replica run with a controller, every control period the
  controller receives a ``MeasurementSample`` (measured injection rate
  for RMSD, mean packet delay for DMSD) and returns the frequency to
  apply next — the controller node of paper Figs. 1 and 3;
* activity is recorded per interval of constant frequency
  (``PowerWindow``) during the measurement phase, so the power model
  can integrate voltage-dependent energy exactly.

:meth:`Simulation.run` is the driver's one-replica, controlled case;
:func:`repro.noc.run_fixed_point` its one-replica case at a pinned
frequency, and :func:`repro.noc.fastsim.run_fixed_batch` its batched
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..traffic.injection import InjectionProcess, TrafficSpec
from .clock import NetworkClock
from .config import NocConfig
from .engines import DEFAULT_ENGINE, Engine, make_engine
from .fastsim.batch import BatchPoint
from .stats import MeasurementSample, PowerWindow, percentile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .budget import SimBudget


@runtime_checkable
class Controller(Protocol):
    """What the driver requires of a DVFS controller."""

    def reset(self, config: NocConfig) -> float:
        """Prepare for a new run; return the initial frequency in Hz."""

    def update(self, sample: MeasurementSample) -> float:
        """Consume one measurement window; return the next frequency."""


class _FixedController:
    """Trivial controller holding one frequency (No-DVFS, pinned
    simulations)."""

    def __init__(self, freq_hz: float | None = None) -> None:
        self._freq_hz = freq_hz

    def reset(self, config: NocConfig) -> float:
        if self._freq_hz is None:
            self._freq_hz = config.f_max_hz
        return self._freq_hz

    def update(self, sample: MeasurementSample) -> float:
        return self._freq_hz


@dataclass
class SimResult:
    """Everything measured in one simulation run."""

    config: NocConfig
    seed: int
    offered_node_rate: float
    warmup_cycles: int
    measure_cycles: int
    # packet statistics (None when no measured packet was delivered)
    mean_latency_cycles: float | None
    mean_delay_ns: float | None
    p99_delay_ns: float | None
    mean_hops: float | None
    measured_created: int
    measured_delivered: int
    # every measured packet arrived; also False for a probe run stopped
    # at the end of the measurement window (``Simulation.run(probe=)``)
    complete: bool
    # throughput over the measurement phase
    accepted_node_rate: float
    measure_duration_ns: float
    measure_node_cycles: int
    backlog_delta_flits: int
    # DVFS trace
    freq_trace: list[tuple[float, float]] = field(default_factory=list)
    samples: list[MeasurementSample] = field(default_factory=list)
    power_windows: list[PowerWindow] = field(default_factory=list)

    @property
    def mean_freq_hz(self) -> float:
        """Time-weighted mean network frequency over the measurement."""
        total_t = sum(w.duration_ns for w in self.power_windows)
        if total_t <= 0:
            return self.freq_trace[-1][1] if self.freq_trace else 0.0
        return sum(w.freq_hz * w.duration_ns
                   for w in self.power_windows) / total_t

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: tagged packets never drained, or
        the source backlog grew by more than the traffic generated in a
        few hundred node cycles."""
        return not self.complete or backlog_diverged(
            self.config, self.offered_node_rate, self.measure_node_cycles,
            self.backlog_delta_flits)

    @property
    def delivery_ratio(self) -> float:
        if self.measured_created == 0:
            return 1.0
        return self.measured_delivered / self.measured_created


def backlog_diverged(config: NocConfig, offered_node_rate: float,
                     measure_node_cycles: int,
                     backlog_delta_flits: int) -> bool:
    """The backlog test of :attr:`SimResult.saturated`.

    True when the source backlog grew over the measurement window by
    more than the traffic generated in a few hundred node cycles.  Its
    inputs are final when the window closes, which is where probe runs
    evaluate it to stop a saturated run early.
    """
    threshold = max(
        4 * config.num_nodes * config.packet_length,
        int(0.05 * offered_node_rate * config.num_nodes
            * measure_node_cycles))
    return backlog_delta_flits > threshold


class Simulation:
    """One simulation run of a traffic spec under a DVFS controller."""

    def __init__(self, config: NocConfig, traffic: TrafficSpec,
                 controller: "Controller | float | str | None" = None,
                 seed: int = 1,
                 control_period_node_cycles: int = 10_000,
                 engine: str = DEFAULT_ENGINE) -> None:
        if control_period_node_cycles < 1:
            raise ValueError("control period must be >= 1 node cycle")
        self.config = config
        self.traffic = traffic
        self.seed = seed
        self.control_period_node_cycles = control_period_node_cycles
        self.engine = engine

        self.controller = self._coerce_controller(controller)
        self.network = make_engine(engine, config)
        self._f0 = self.controller.reset(config)

    @staticmethod
    def _coerce_controller(controller) -> Controller:
        """Accept a Controller, a pinned frequency, or a registry ref.

        Policy-registry spellings — a name string like
        ``"dmsd:target_delay_ns=150"`` or a
        :class:`~repro.core.registry.Ref` — always construct a *fresh*
        controller instance, so two simulations built from the same
        spec never share PI state.
        """
        if controller is None or isinstance(controller, (int, float)):
            return _FixedController(
                None if controller is None else float(controller))
        if isinstance(controller, Controller):
            return controller
        # Late import: the registry lives in repro.core, which imports
        # this package's config/stats modules.
        from ..core.registry import Ref, make_policy
        if isinstance(controller, (str, Ref)):
            return make_policy(controller)
        raise TypeError(
            f"controller must be a Controller, a frequency in Hz, a "
            f"policy-registry name/Ref or None; got {controller!r}")

    # ------------------------------------------------------------------
    def run(self, warmup_cycles: int = 2000, measure_cycles: int = 5000,
            drain_cycles: int | None = None, *,
            probe: bool = False) -> SimResult:
        """Execute warmup, measurement and drain; return the result.

        A ``probe`` run serves a search that reads only the saturation
        verdict of a saturated run.  If, when the measurement window
        closes, its measured packets have not all arrived but the
        source backlog has already diverged (:func:`backlog_diverged`),
        it stops there with ``complete=False`` instead of draining.
        Its ``saturated`` verdict and measurement-window fields equal
        the full run's; the drain-dependent ones (delivered count,
        delays, hops) do not.
        """
        if drain_cycles is None:
            drain_cycles = max(10_000, 4 * measure_cycles)
        # SimBudget validates the warmup/measure/drain contract.
        from .budget import SimBudget
        budget = SimBudget(warmup_cycles, measure_cycles, drain_cycles)
        point = BatchPoint(self.traffic, self._f0, self.seed)
        return drive(self.network, [point], budget, probe,
                     self.controller, self.control_period_node_cycles)[0]


def drive(net: Engine, points: list[BatchPoint], budget: "SimBudget",
          probe: bool = False, controller: Controller | None = None,
          control_period_node_cycles: int = 1) -> list[SimResult]:
    """Warmup, measurement and drain of every replica of ``net``.

    Replica ``i`` starts at ``points[i].freq_hz`` and draws
    ``points[i].traffic`` from its own seeded generator; the engine
    draws, queues and accounts every packet in its step
    (``bind_sources``), and each result is built once, at the end,
    from its records.  The moment a replica's measured packets have all
    arrived, or a ``probe`` replica is proven saturated when the
    measurement window closes, it is done; in a batch the engine
    retires it (``freeze_copy``).

    The engine advances phase by phase (:meth:`~repro.noc.Engine.advance`):
    to the end of the warmup, to the end of the measurement window, and
    then toward the drain cap, returning whenever a replica completes,
    so each is retired at the cycle it completes.

    With a ``controller`` (one replica only), every
    ``control_period_node_cycles`` of the reference node clock the
    controller gets a sample of the window since the last one and sets
    the next frequency.  Each control cycle ends the engine's segment
    and runs alone: the sample counts the packets created up to and
    including that cycle's draw and the deliveries made before its
    network step, and a new frequency starts at that cycle's end.
    Without one the results carry no ``samples``.
    """
    config = net.config
    count = len(points)
    if controller is not None and count != 1:
        raise ValueError("a control loop drives one replica")
    clocks = [NetworkClock(p.freq_hz, config.f_min_hz, config.f_max_hz)
              for p in points]
    net.bind_sources([InjectionProcess(p.traffic, config.packet_length,
                                       np.random.default_rng(p.seed))
                      for p in points],
                     [clock.period_ns for clock in clocks])
    traces = [[(0.0, clock.freq_hz)] for clock in clocks]
    windows: list[list[PowerWindow]] = [[] for _ in points]

    # Budget validity is SimBudget.__post_init__'s job.
    warmup = budget.warmup_cycles
    measure_end = warmup + budget.measure_cycles
    hard_end = measure_end + budget.drain_cycles

    # The control loop's window: where the last sample was taken.
    samples: list[MeasurementSample] = []
    period_ns = (control_period_node_cycles * 1e9 / config.f_node_hz)
    next_control_ns = period_ns
    last_cycle = last_node_cycle = last_created = last_logged = 0
    last_ns = 0.0

    def segment(cycle: int, stop: int, until_done: bool = False) -> int:
        """Advance from ``cycle`` toward ``stop``, up to the next control
        cycle, or run that cycle; return the next cycle."""
        nonlocal next_control_ns, last_cycle, last_node_cycle, last_ns
        nonlocal last_created, last_logged
        if controller is None:
            return net.advance(cycle, stop, until_done=until_done)
        now_ns = net.time_of(0)
        if now_ns < next_control_ns:
            return net.advance(cycle, stop, next_control_ns, until_done)
        logged = net.counts()[1]
        activity = net.activity_of(0)
        net.advance(cycle, cycle + 1)
        created = net.counts()[0]
        node_cycle = net.snapshot(0)[1]
        clock = clocks[0]
        delays, latencies = net.delivery_records(last_logged, logged)
        delivered = len(delays)
        delay_sum = latency_sum = 0.0
        for delay, latency in zip(delays, latencies):
            delay_sum += delay
            latency_sum += latency
        sample = MeasurementSample(
            window_cycles=cycle - last_cycle,
            window_node_cycles=node_cycle - last_node_cycle,
            window_ns=now_ns - last_ns,
            generated_flits=(created - last_created) * config.packet_length,
            delivered_packets=delivered,
            mean_delay_ns=delay_sum / delivered if delivered else None,
            mean_latency_cycles=(latency_sum / delivered
                                 if delivered else None),
            freq_hz=clock.freq_hz,
            time_ns=now_ns,
            num_nodes=config.num_nodes)
        samples.append(sample)
        last_cycle, last_node_cycle, last_ns = cycle, node_cycle, now_ns
        last_created, last_logged = created, logged
        next_control_ns += period_ns
        new_freq = controller.update(sample)
        if new_freq != clock.freq_hz:
            if warmup <= cycle < measure_end:
                # The window closes where this cycle began.
                w_ns, w_cycle, w_activity = opened[0]
                windows[0].append(PowerWindow(
                    duration_ns=now_ns - w_ns, cycles=cycle - w_cycle,
                    freq_hz=clock.freq_hz,
                    activity=activity - w_activity))
                opened[0] = (now_ns, cycle, activity)
            traces[0].append((now_ns, clock.set_frequency(new_freq)))
            net.retune(0, clock.period_ns, now_ns + clock.period_ns)
        return cycle + 1

    # Per-copy activity attribution costs a few tallies per event;
    # power windows only need measurement-phase deltas.
    net.attribute_activity = False
    cycle = 0
    while cycle < warmup:
        cycle = segment(cycle, warmup)
    # Snapshots are taken before this cycle's arrivals and network step.
    net.measuring = net.attribute_activity = True
    start = [net.snapshot(i) for i in range(count)]
    opened = [(s[0], warmup, net.activity_of(i))
              for i, s in enumerate(start)]
    while cycle < measure_end:
        cycle = segment(cycle, measure_end)
    net.measuring = net.attribute_activity = False
    end = [net.snapshot(i) for i in range(count)]
    for i, (w_ns, w_cycle, w_activity) in enumerate(opened):
        windows[i].append(PowerWindow(
            duration_ns=end[i][0] - w_ns, cycles=cycle - w_cycle,
            freq_hz=clocks[i].freq_hz,
            activity=net.activity_of(i) - w_activity))
    saturated = [probe and backlog_diverged(
        config, point.traffic.mean_node_rate(),
        max(1, end[i][1] - start[i][1]), end[i][3] - start[i][3])
        for i, point in enumerate(points)]

    complete = [False] * count
    active = list(range(count))         # replicas still simulating
    while True:
        created, delivered = net.measured_counts()
        still = []
        for i in active:
            complete[i] = delivered[i] >= created[i]
            if complete[i] or (cycle == measure_end and saturated[i]):
                # All of this replica's measured packets arrived, or
                # this probe is proven saturated: the run of this
                # replica ends here, so retire it.
                if count > 1:
                    net.freeze_copy(i)
            else:
                still.append(i)
        active = still
        if not active or cycle >= hard_end:
            break
        cycle = segment(cycle, hard_end, until_done=True)

    results = []
    for i, (point, stats) in enumerate(zip(points, net.measured_stats())):
        t_start, nc_start, ej_start, bl_start = start[i]
        t_end, nc_end, ej_end, bl_end = end[i]
        delays = stats.measured_delays_ns
        node_cycles_meas = max(1, nc_end - nc_start)
        results.append(SimResult(
            config=config,
            seed=point.seed,
            offered_node_rate=point.traffic.mean_node_rate(),
            warmup_cycles=warmup,
            measure_cycles=budget.measure_cycles,
            mean_latency_cycles=(stats.mean_latency_cycles()
                                 if delays else None),
            mean_delay_ns=stats.mean_delay_ns() if delays else None,
            p99_delay_ns=percentile(delays, 99) if delays else None,
            mean_hops=stats.mean_hops() if delays else None,
            measured_created=stats.measured_created,
            measured_delivered=stats.measured_delivered,
            complete=complete[i],
            accepted_node_rate=((ej_end - ej_start)
                                / (node_cycles_meas * config.num_nodes)),
            measure_duration_ns=t_end - t_start,
            measure_node_cycles=node_cycles_meas,
            backlog_delta_flits=bl_end - bl_start,
            freq_trace=traces[i],
            samples=samples if i == 0 else [],
            power_windows=windows[i],
        ))
    return results
