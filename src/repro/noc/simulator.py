"""The simulation kernel: clocks, phases, measurement and DVFS hooks.

``Simulation`` reproduces the measurement methodology of the paper's
modified Booksim:

* the kernel advances in **network clock cycles**; absolute time grows
  by the current network period each cycle, so a frequency change by
  the DVFS controller immediately stretches or shrinks subsequent
  cycles;
* traffic generation runs in the **node clock domain** (see
  ``repro.noc.clock``), so offered load is independent of the network's
  DVFS state — this is what pushes the NoC toward saturation when it is
  slowed down (eq. (1));
* runs have a *warmup* phase, a *measurement* phase whose packets are
  tagged and reported, and a *drain* phase that waits for tagged
  packets to arrive (with a cap so saturated runs still terminate);
* every control period the attached controller receives a
  ``MeasurementSample`` (measured injection rate for RMSD, mean packet
  delay for DMSD) and returns the frequency to apply next — the
  controller node of paper Figs. 1 and 3;
* activity is recorded per interval of constant frequency
  (``PowerWindow``) during the measurement phase, so the power model
  can integrate voltage-dependent energy exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..traffic.injection import InjectionProcess, TrafficSpec
from .clock import MultiNodeClockBridge, NetworkClock, NodeClockBridge
from .config import NocConfig
from .engines import DEFAULT_ENGINE, make_engine
from .flit import Packet
from .stats import ActivityCounters, MeasurementSample, PowerWindow


@runtime_checkable
class Controller(Protocol):
    """What the kernel requires of a DVFS controller."""

    def reset(self, config: NocConfig) -> float:
        """Prepare for a new run; return the initial frequency in Hz."""

    def update(self, sample: MeasurementSample) -> float:
        """Consume one measurement window; return the next frequency."""


class _FixedController:
    """Trivial controller holding one frequency (No-DVFS, sweeps)."""

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
        self.rng = np.random.default_rng(seed)
        self.injection = InjectionProcess(traffic, config.packet_length,
                                          self.rng)
        f0 = self.controller.reset(config)
        self.clock = NetworkClock(f0, config.f_min_hz, config.f_max_hz)
        # The reference bridge drives rate measurement and control
        # periods even with heterogeneous node clocks (footnote 1):
        # `f_node_hz` stays the reference frequency of eq. (2).
        self.bridge = NodeClockBridge(config.f_node_hz)
        self.node_bridge = (MultiNodeClockBridge(config.node_freqs_hz)
                            if config.node_freqs_hz is not None else None)

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
        # Delegate range validation to SimBudget (the one place the
        # warmup/measure/drain contract is defined).
        from .budget import SimBudget
        SimBudget(warmup_cycles, measure_cycles, drain_cycles)

        net = self.network
        stats = net.stats
        clock = self.clock
        bridge = self.bridge
        config = self.config
        num_nodes = config.num_nodes

        measure_start = warmup_cycles
        measure_end = warmup_cycles + measure_cycles
        hard_end = measure_end + drain_cycles

        control_period_ns = (self.control_period_node_cycles
                             * 1e9 / config.f_node_hz)
        next_control_ns = control_period_ns
        last_control_node_cycle = 0
        last_control_cycle = 0
        last_control_ns = 0.0

        offered = self.traffic.mean_node_rate()
        freq_trace = [(0.0, clock.freq_hz)]
        samples: list[MeasurementSample] = []
        power_windows: list[PowerWindow] = []

        # measurement-phase bookkeeping, set at the phase boundary
        in_measurement = False
        tagging = False
        meas_start_ns = meas_end_ns = 0.0
        meas_start_node_cycle = meas_end_node_cycle = 0
        ejected_at_start = ejected_at_end = 0
        backlog_at_start = backlog_at_end = 0
        win_activity: ActivityCounters | None = None
        win_start_ns = 0.0
        win_start_cycle = 0

        def close_power_window(now_ns: float, now_cycle: int) -> None:
            nonlocal win_activity, win_start_ns, win_start_cycle
            delta = net.aggregate_activity() - win_activity
            power_windows.append(PowerWindow(
                duration_ns=now_ns - win_start_ns,
                cycles=now_cycle - win_start_cycle,
                freq_hz=clock.freq_hz,
                activity=delta))
            win_activity = net.aggregate_activity()
            win_start_ns = now_ns
            win_start_cycle = now_cycle

        def close_measurement(now_ns: float, now_cycle: int) -> None:
            """End the measurement phase (idempotent)."""
            nonlocal in_measurement, tagging
            nonlocal meas_end_ns, meas_end_node_cycle
            nonlocal ejected_at_end, backlog_at_end
            tagging = False
            if not in_measurement:
                return
            close_power_window(now_ns, now_cycle)
            in_measurement = False
            meas_end_ns = now_ns
            meas_end_node_cycle = bridge.next_node_cycle
            ejected_at_end = stats.ejected_flits
            backlog_at_end = net.source_backlog_flits()

        while True:
            cycle = clock.cycle
            now_ns = clock.time_ns

            if cycle == measure_start:
                in_measurement = True
                tagging = True
                meas_start_ns = now_ns
                meas_start_node_cycle = bridge.next_node_cycle
                ejected_at_start = stats.ejected_flits
                backlog_at_start = net.source_backlog_flits()
                win_activity = net.aggregate_activity()
                win_start_ns = now_ns
                win_start_cycle = cycle
            if cycle == measure_end:
                close_measurement(now_ns, cycle)

            # --- node-domain traffic generation
            node_cycles = bridge.elapsed_node_cycles(now_ns)
            if self.node_bridge is not None:
                # Heterogeneous node clocks (paper footnote 1): each
                # node draws against its own completed cycles; the
                # reference bridge above still paces measurement.
                starts, counts = self.node_bridge.elapsed_counts(now_ns)
                for src, offset, dst in \
                        self.injection.arrivals_per_node(counts):
                    created_ns = self.node_bridge.node_time_ns(
                        src, int(starts[src]) + offset)
                    packet = Packet(src, dst, config.packet_length,
                                    created_cycle=cycle,
                                    created_ns=created_ns,
                                    measured=tagging)
                    net.enqueue_packet(packet)
            elif len(node_cycles):
                arrivals = self.injection.arrivals(len(node_cycles))
                for offset, src, dst in arrivals:
                    created_ns = bridge.node_time_ns(node_cycles.start
                                                     + offset)
                    packet = Packet(src, dst, config.packet_length,
                                    created_cycle=cycle,
                                    created_ns=created_ns,
                                    measured=tagging)
                    net.enqueue_packet(packet)

            # --- DVFS control action
            if now_ns >= next_control_ns:
                sample = stats.take_sample(
                    window_cycles=cycle - last_control_cycle,
                    window_node_cycles=(bridge.next_node_cycle
                                        - last_control_node_cycle),
                    window_ns=now_ns - last_control_ns,
                    freq_hz=clock.freq_hz,
                    time_ns=now_ns,
                    num_nodes=num_nodes)
                samples.append(sample)
                last_control_cycle = cycle
                last_control_node_cycle = bridge.next_node_cycle
                last_control_ns = now_ns
                next_control_ns += control_period_ns
                new_freq = self.controller.update(sample)
                if new_freq != clock.freq_hz:
                    if in_measurement:
                        close_power_window(now_ns, cycle)
                    applied = clock.set_frequency(new_freq)
                    freq_trace.append((now_ns, applied))

            # --- advance the network by one cycle
            net.step_cycle(cycle, now_ns)
            clock.tick()

            # --- termination
            if clock.cycle >= measure_end:
                close_measurement(clock.time_ns, clock.cycle)
                if stats.measured_delivered >= stats.measured_created:
                    complete = True
                    break
                if clock.cycle >= hard_end or (
                        probe and clock.cycle == measure_end
                        and backlog_diverged(
                            config, offered,
                            max(1, meas_end_node_cycle
                                - meas_start_node_cycle),
                            backlog_at_end - backlog_at_start)):
                    complete = False
                    break

        duration_ns = meas_end_ns - meas_start_ns
        node_cycles_meas = max(1, meas_end_node_cycle
                               - meas_start_node_cycle)
        accepted = ((ejected_at_end - ejected_at_start)
                    / (node_cycles_meas * num_nodes))

        delays = stats.measured_delays_ns
        return SimResult(
            config=config,
            seed=self.seed,
            offered_node_rate=offered,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            mean_latency_cycles=(stats.mean_latency_cycles()
                                 if delays else None),
            mean_delay_ns=stats.mean_delay_ns() if delays else None,
            p99_delay_ns=(float(np.percentile(delays, 99))
                          if delays else None),
            mean_hops=stats.mean_hops() if delays else None,
            measured_created=stats.measured_created,
            measured_delivered=stats.measured_delivered,
            complete=complete,
            accepted_node_rate=accepted,
            measure_duration_ns=duration_ns,
            measure_node_cycles=node_cycles_meas,
            backlog_delta_flits=backlog_at_end - backlog_at_start,
            freq_trace=freq_trace,
            samples=samples,
            power_windows=power_windows,
        )
