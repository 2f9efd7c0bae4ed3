"""Event-driven GALS simulation of the 4-domain MCD processor.

The simulator advances by popping the earliest pending event from a heap:

* a **domain edge** -- one rising clock edge of the front-end, INT, FP or LS
  domain; the domain executes one cycle of its pipeline logic;
* a **sample tick** -- the 250 MHz signal-sampling event: queue occupancies
  are latched, DVFS controllers observe them, regulators slew, and history is
  recorded.

Execution domains with nothing to do (empty queue, idle functional units)
are fully clock-gated: their edges are skipped until the front end dispatches
into their queue, at which point they wake at the entry's synchronization
arrival time.  Gated time is charged the gated-clock + leakage power rate by
the energy model.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.dvfs.base import DvfsController
from repro.dvfs.regulator import VoltageRegulator
from repro.mcd.branch import CombinedPredictor
from repro.mcd.cache import MemoryHierarchy
from repro.mcd.clocks import DomainClock
from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId, MachineConfig
from repro.mcd.execcore import ExecutionDomain
from repro.mcd.frontend import FrontEnd
from repro.mcd.loadstore import LoadStoreDomain
from repro.mcd.queues import IssueQueue
from repro.mcd.rob import ReorderBuffer
from repro.mcd.synchronization import SynchronizationInterface
from repro.obs.facade import Observability
from repro.power.metrics import RunMetrics
from repro.power.model import EnergyAccount, PowerModel
from repro.workloads.instructions import Instruction

# heap event tags (total order within a timestamp: samples after edges)
_EV_FRONT_END = 0
_EV_INT = 1
_EV_FP = 2
_EV_LS = 3
_EV_SAMPLE = 4
_EV_TIMER_INT = 5
_EV_TIMER_FP = 6
_EV_TIMER_LS = 7

_EDGE_TAG = {
    DomainId.FRONT_END: _EV_FRONT_END,
    DomainId.INT: _EV_INT,
    DomainId.FP: _EV_FP,
    DomainId.LS: _EV_LS,
}

_TIMER_TAG = {
    DomainId.INT: _EV_TIMER_INT,
    DomainId.FP: _EV_TIMER_FP,
    DomainId.LS: _EV_TIMER_LS,
}

_TIMER_DOMAIN = {tag: domain for domain, tag in _TIMER_TAG.items()}
_EDGE_DOMAIN = {_EV_INT: DomainId.INT, _EV_FP: DomainId.FP, _EV_LS: DomainId.LS}


@dataclass
class SimulationHistory:
    """Time series sampled at the controller's 4 ns sampling period."""

    time_ns: List[float] = field(default_factory=list)
    retired: List[int] = field(default_factory=list)
    occupancy: Dict[DomainId, List[int]] = field(
        default_factory=lambda: {d: [] for d in CONTROLLED_DOMAINS}
    )
    frequency_ghz: Dict[DomainId, List[float]] = field(
        default_factory=lambda: {d: [] for d in CONTROLLED_DOMAINS}
    )
    #: cumulative instructions issued per domain (for mu-f estimation)
    issued: Dict[DomainId, List[int]] = field(
        default_factory=lambda: {d: [] for d in CONTROLLED_DOMAINS}
    )


@dataclass(frozen=True)
class FrequencyStepEvent:
    """One controller command as applied to a regulator.

    Recorded unconditionally (independent of ``record_history`` and of the
    observability layer) so a harness can always reconstruct the step
    decisions of a run.  ``steps`` is 0 for absolute-target commands;
    ``applied`` is False when the command did not move the target (e.g. a
    step request already clamped at the frequency bound).
    """

    time_ns: float
    domain: DomainId
    steps: int
    target_ghz: float
    freq_ghz: float
    applied: bool


@dataclass
class SimulationResult:
    """Everything a harness needs from one run."""

    benchmark: str
    scheme: str
    time_ns: float
    instructions: int
    energy: EnergyAccount
    history: SimulationHistory
    transitions: Dict[DomainId, int]
    mean_frequency_ghz: Dict[DomainId, float]
    issued_by_domain: Dict[DomainId, int]
    branch_mispredict_rate: float
    l1d_miss_rate: float
    l2_miss_rate: float
    sync_deferral_rate: float
    #: every controller command (always recorded; see FrequencyStepEvent)
    step_events: List[FrequencyStepEvent] = field(default_factory=list)
    #: repro.obs summary dict when the run was observed, else None
    probe_summary: Optional[Dict] = None

    @property
    def metrics(self) -> RunMetrics:
        """Paper-comparable metrics: chip energy (main memory is external)."""
        return RunMetrics(
            time_ns=self.time_ns,
            energy=self.energy.chip_total,
            instructions=self.instructions,
        )

    @property
    def ipns(self) -> float:
        """Retired instructions per nanosecond."""
        return self.instructions / self.time_ns if self.time_ns else 0.0


class MCDProcessor:
    """One simulation instance: a trace, a machine config, and controllers."""

    def __init__(
        self,
        trace: Sequence[Instruction],
        config: Optional[MachineConfig] = None,
        controllers: Optional[Dict[DomainId, DvfsController]] = None,
        power: Optional[PowerModel] = None,
        seed: int = 1234,
        record_history: bool = True,
        history_stride: int = 4,
        benchmark: str = "trace",
        scheme: str = "full-speed",
        initial_frequencies: Optional[Dict[DomainId, float]] = None,
        obs=None,
    ) -> None:
        if not trace:
            raise ValueError("trace must contain at least one instruction")
        self.trace = trace
        self.config = config or MachineConfig()
        self.controllers = dict(controllers or {})
        for domain in self.controllers:
            if domain not in CONTROLLED_DOMAINS:
                raise ValueError(f"{domain} is not DVFS-controllable")
        self.power = power or PowerModel()
        self.benchmark = benchmark
        self.scheme = scheme
        self.record_history = record_history
        self.history_stride = max(1, history_stride)

        # Observability: None keeps every hot path on the no-op branch
        # (plain ``is not None`` checks, no calls into repro.obs).
        self.obs: Optional[Observability] = Observability.coerce(obs)
        self._probe = self.obs.bus if self.obs is not None else None
        self._profiler = self.obs.profiler if self.obs is not None else None
        self._obs_stride = self.obs.config.sample_stride if self.obs is not None else 1
        if self._probe is not None:
            for controller in self.controllers.values():
                controller.attach_probe(self._probe)
        #: every command applied to a regulator, kept regardless of obs
        self.step_events: List[FrequencyStepEvent] = []

        cfg = self.config
        rng = random.Random(seed)
        # Phase-offset domain clocks so they do not start in lockstep.
        self.clocks: Dict[DomainId, DomainClock] = {
            domain: DomainClock(
                freq_ghz=cfg.f_max_ghz,
                jitter_sigma_ns=cfg.jitter_sigma_ns,
                start_ns=offset,
                rng=random.Random(rng.randrange(2**31)),
            )
            for domain, offset in (
                (DomainId.FRONT_END, 0.0),
                (DomainId.INT, 0.13),
                (DomainId.FP, 0.29),
                (DomainId.LS, 0.41),
            )
        }
        self.queues: Dict[DomainId, IssueQueue] = {
            d: IssueQueue(d.value, cfg.queue_capacity(d)) for d in CONTROLLED_DOMAINS
        }
        self.rob = ReorderBuffer(cfg.rob_size)
        self.hierarchy = MemoryHierarchy.from_config(cfg)
        self.predictor = CombinedPredictor.from_config(cfg)
        self.sync = SynchronizationInterface(cfg.sync_window_ns)

        self.domains = {
            DomainId.INT: ExecutionDomain(
                DomainId.INT, self.clocks[DomainId.INT], self.queues[DomainId.INT],
                self.rob, cfg,
            ),
            DomainId.FP: ExecutionDomain(
                DomainId.FP, self.clocks[DomainId.FP], self.queues[DomainId.FP],
                self.rob, cfg,
            ),
            DomainId.LS: LoadStoreDomain(
                self.clocks[DomainId.LS], self.queues[DomainId.LS], self.rob,
                self.hierarchy, cfg,
            ),
        }
        self.frontend = FrontEnd(
            trace=trace,
            clock=self.clocks[DomainId.FRONT_END],
            rob=self.rob,
            queues=self.queues,
            domain_clocks=self.clocks,
            hierarchy=self.hierarchy,
            predictor=self.predictor,
            sync=self.sync,
            config=cfg,
        )
        self.frontend.on_dispatch = self._on_dispatch

        initial_frequencies = initial_frequencies or {}
        self.regulators: Dict[DomainId, VoltageRegulator] = {
            d: VoltageRegulator(
                d, cfg, initial_freq_ghz=initial_frequencies.get(d)
            )
            for d in CONTROLLED_DOMAINS
        }
        for domain, regulator in self.regulators.items():
            self.clocks[domain].set_frequency(regulator.current_freq_ghz)
        self._sleeping: Dict[DomainId, bool] = {d: False for d in CONTROLLED_DOMAINS}
        #: pending wake timer target per sleeping domain (None = pure sleep)
        self._timer_target: Dict[DomainId, Optional[float]] = {
            d: None for d in CONTROLLED_DOMAINS
        }
        #: wake generation counters; stale timer events are discarded
        self._wake_gen: Dict[DomainId, int] = {d: 0 for d in CONTROLLED_DOMAINS}
        self._freq_sum: Dict[DomainId, float] = {d: 0.0 for d in CONTROLLED_DOMAINS}
        self._freq_samples = 0

        self.energy = EnergyAccount()
        self.history = SimulationHistory()
        self._heap: List = []
        self._seq = 0
        self._now = 0.0
        #: front end sleeping on backpressure (full queue / full ROB with an
        #: un-issued head); woken by the callbacks below
        self._fe_sleeping = False
        for queue in self.queues.values():
            queue.on_slot_freed = self._on_slot_freed
        self.rob.on_head_done = self._on_head_done

        # --- hot-path acceleration structures (indexed by edge tag) -------
        # Per-cycle energy coefficients are cached here and refreshed at
        # every sampling event (voltage only changes there), so domain
        # cycles avoid enum-keyed dict lookups and power-model calls.
        exec_tags = (_EV_INT, _EV_FP, _EV_LS)
        self._tag_domain_obj = {
            _EV_INT: self.domains[DomainId.INT],
            _EV_FP: self.domains[DomainId.FP],
            _EV_LS: self.domains[DomainId.LS],
        }
        self._tag_clock = {tag: self.clocks[_EDGE_DOMAIN[tag]] for tag in exec_tags}
        self._energy_by_tag = [0.0, 0.0, 0.0, 0.0]
        self._active_base_e = [0.0, 0.0, 0.0, 0.0]
        self._active_slope_e = [0.0, 0.0, 0.0, 0.0]
        self._gated_e = [0.0, 0.0, 0.0, 0.0]
        self._inv_width = [0.0, 0.0, 0.0, 0.0]
        for domain, tag in _EDGE_TAG.items():
            params = self.power.params[domain]
            self._inv_width[tag] = 1.0 / params.width
        #: Transmeta-style: domains do no work until their transition (and
        #: PLL relock) completes
        self._pause_until = [0.0, 0.0, 0.0, 0.0]
        self._refresh_energy_coefficients()

    def release(self) -> None:
        """Unwire the front-end, issue-queue and ROB callbacks.

        Each is a bound method, so each makes the processor cyclic
        garbage; once they are gone a finished run is freed by refcount
        rather than at the cyclic collector's next pass.  Call it once the
        processor is done running.
        """
        self.frontend.on_dispatch = None
        for queue in self.queues.values():
            queue.on_slot_freed = None
        self.rob.on_head_done = None

    def _refresh_energy_coefficients(self) -> None:
        """Recompute cached per-cycle energies from current voltages."""
        for domain, tag in _EDGE_TAG.items():
            params = self.power.params[domain]
            voltage = (
                self.config.v_max
                if domain is DomainId.FRONT_END
                else self.regulators[domain].voltage
            )
            v2c = params.c_eff * voltage * voltage
            self._active_base_e[tag] = v2c * params.active_base
            self._active_slope_e[tag] = v2c * params.active_slope
            self._gated_e[tag] = v2c * params.gated_fraction

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def _push(self, time_ns: float, tag: int, payload: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ns, tag, self._seq, payload))

    def _on_dispatch(self, domain: DomainId, entry) -> None:
        """Wake a sleeping execution domain when work arrives."""
        if not self._sleeping[domain]:
            return
        wake_ns = entry.visible_ns
        timer = self._timer_target[domain]
        if timer is not None:
            wake_ns = min(wake_ns, timer)
        self._wake(domain, wake_ns)

    def _wake(self, domain: DomainId, wake_ns: float) -> None:
        self._sleeping[domain] = False
        self._timer_target[domain] = None
        self._wake_gen[domain] += 1  # invalidate any pending timer event
        clock = self.clocks[domain]
        clock.skip_to(wake_ns)
        self._push(clock.next_edge_ns, _EDGE_TAG[domain])

    def _sleep(self, domain: DomainId, now_ns: float, timer_ns: Optional[float]) -> None:
        self._sleeping[domain] = True
        self._timer_target[domain] = timer_ns
        self._wake_gen[domain] += 1
        if timer_ns is not None:
            self._push(timer_ns, _TIMER_TAG[domain], self._wake_gen[domain])

    def _on_slot_freed(self, queue) -> None:
        """A full issue queue freed a slot: resume a backpressured front end."""
        self._wake_front_end(self._now)

    def _on_head_done(self, done_ns: float) -> None:
        """The ROB head got a completion time: resume a ROB-full front end."""
        self._wake_front_end(max(self._now, done_ns))

    def _wake_front_end(self, wake_ns: float) -> None:
        if not self._fe_sleeping:
            return
        self._fe_sleeping = False
        clock = self.clocks[DomainId.FRONT_END]
        clock.skip_to(wake_ns)
        self._push(clock.next_edge_ns, _EV_FRONT_END)

    def voltage(self, domain: DomainId) -> float:
        """Current supply voltage of a domain (front end is pinned at v_max)."""
        if domain is DomainId.FRONT_END:
            return self.config.v_max
        return self.regulators[domain].voltage

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_time_ns: Optional[float] = None) -> SimulationResult:
        """Simulate until the trace fully retires; return the result."""
        cfg = self.config
        if max_time_ns is None:
            # Generous cutoff: even at f_min and IPC 0.05 the run should end.
            max_time_ns = len(self.trace) * 25.0 / cfg.f_min_ghz + 1e5

        for domain, clock in self.clocks.items():
            self._push(clock.next_edge_ns, _EDGE_TAG[domain])
        self._push(cfg.sample_period_ns, _EV_SAMPLE)

        prof = self._profiler
        if prof is not None:
            prof.run_started()
        finish_ns = 0.0
        sample_index = 0
        while not self.frontend.finished:
            time_ns, tag, _, payload = heapq.heappop(self._heap)
            self._now = time_ns
            if time_ns > max_time_ns:
                raise RuntimeError(
                    f"simulation exceeded max_time_ns={max_time_ns:.0f} "
                    f"({self.rob.retired}/{len(self.trace)} retired)"
                )
            if tag == _EV_SAMPLE:
                sample_index += 1
                self._sample(time_ns, sample_index)
                self._push(time_ns + cfg.sample_period_ns, _EV_SAMPLE)
            elif tag == _EV_FRONT_END:
                finish_ns = self._front_end_cycle(time_ns)
            elif tag in _TIMER_DOMAIN:
                domain = _TIMER_DOMAIN[tag]
                if self._sleeping[domain] and payload == self._wake_gen[domain]:
                    self._wake(domain, time_ns)
            else:
                self._domain_cycle(time_ns, tag)
        if prof is not None:
            prof.run_finished(samples=self._freq_samples)
        return self._result(finish_ns)

    def _front_end_cycle(self, time_ns: float) -> float:
        clock = self.clocks[DomainId.FRONT_END]
        clock.advance()
        dispatched = self.frontend.cycle(time_ns)
        tag = _EV_FRONT_END
        if dispatched:
            utilization = dispatched * self._inv_width[tag]
            if utilization > 1.0:
                utilization = 1.0
            self._energy_by_tag[tag] += (
                self._active_base_e[tag] + self._active_slope_e[tag] * utilization
            )
        else:
            self._energy_by_tag[tag] += self._gated_e[tag]
        if not self.frontend.finished:
            if dispatched == 0:
                # Fast-forward through a stall whose end is known (mispredict
                # redirect, I-cache miss, ROB head in flight) ...
                hint = self.frontend.stall_hint(time_ns)
                if hint is not None:
                    if hint > clock.next_edge_ns:
                        clock.skip_to(hint)
                elif self.frontend.last_stall in ("queue_full", "rob_full"):
                    # ... or sleep on backpressure whose end is event-driven:
                    # a queue slot freeing or the ROB head completing.
                    self._fe_sleeping = True
                    return time_ns
            self._push(clock.next_edge_ns, _EV_FRONT_END)
        return time_ns

    def _domain_cycle(self, time_ns: float, tag: int) -> None:
        dom = self._tag_domain_obj[tag]
        clock = self._tag_clock[tag]
        clock.advance()
        if time_ns < self._pause_until[tag]:
            # Transmeta-style transition in progress: the domain idles
            # (gated) until the switch + PLL relock completes.
            self._energy_by_tag[tag] += self._gated_e[tag]
            self._sleep(_EDGE_DOMAIN[tag], time_ns, timer_ns=self._pause_until[tag])
            return
        ops = dom.cycle(time_ns)
        if ops:
            utilization = ops * self._inv_width[tag]
            if utilization > 1.0:
                utilization = 1.0
            self._energy_by_tag[tag] += (
                self._active_base_e[tag] + self._active_slope_e[tag] * utilization
            )
        else:
            self._energy_by_tag[tag] += self._gated_e[tag]
            if dom.is_idle(time_ns):
                # Fully gate the clock; the next dispatch wakes us.
                self._sleep(_EDGE_DOMAIN[tag], time_ns, timer_ns=None)
                return
            # Queue is non-empty but nothing could issue.  If the earliest
            # possible issue time is known and far off, gate until then.
            hint = dom.stall_hint(time_ns)
            if hint is not None and hint > time_ns + 2.0 * clock.period_ns:
                self._sleep(_EDGE_DOMAIN[tag], time_ns, timer_ns=hint)
                return
        self._push(clock.next_edge_ns, tag)

    def _sample(self, time_ns: float, sample_index: int) -> None:
        """One 4 ns sampling period, in four phases: latch, observe, slew,
        record.  The phases iterate the domains independently -- per-domain
        state never crosses domains within a period -- so the split is
        numerically identical to a single fused loop, and lets the profiler
        attribute wall time per phase.
        """
        cfg = self.config
        dt = cfg.sample_period_ns
        record = self.record_history and sample_index % self.history_stride == 0
        # The perf_counter reads below feed only the PhaseProfiler's wall-time
        # accounting; no simulated state ever depends on them, so the DET002
        # wall-clock rule is suppressed at each site rather than file-wide.
        prof = self._profiler
        if prof is not None:
            t0 = perf_counter()  # statcheck: disable=DET002 -- profiling only

        # -- latch: snapshot the queue occupancies for this period ---------
        occupancies = {d: self.queues[d].occupancy for d in CONTROLLED_DOMAINS}
        if record:
            self.history.time_ns.append(time_ns)
            self.history.retired.append(self.rob.retired)
        self._freq_samples += 1
        if prof is not None:
            t1 = perf_counter()  # statcheck: disable=DET002 -- profiling only
            prof.add("latch", t1 - t0)

        # -- observe: controllers see the latched occupancy and the
        #    pre-slew physical frequency, and may command a change ---------
        for domain in CONTROLLED_DOMAINS:
            controller = self.controllers.get(domain)
            if controller is None:
                continue
            regulator = self.regulators[domain]
            command = controller.observe(
                time_ns, occupancies[domain], regulator.current_freq_ghz
            )
            if command is not None:
                self._apply_command(time_ns, domain, regulator, command)
        if prof is not None:
            t2 = perf_counter()  # statcheck: disable=DET002 -- profiling only
            prof.add("observe", t2 - t1)

        # -- slew: regulators ramp, clocks retune, background energy -------
        for domain in CONTROLLED_DOMAINS:
            regulator = self.regulators[domain]
            regulator.advance(dt)
            self.clocks[domain].set_frequency(regulator.current_freq_ghz)
            self._freq_sum[domain] += regulator.current_freq_ghz

            # Background energy: leakage always; gated-clock rate while asleep.
            self.energy.add(
                domain,
                self.power.background(
                    domain,
                    regulator.voltage,
                    regulator.current_freq_ghz,
                    dt,
                    sleeping=self._sleeping[domain],
                ),
            )
        # Front-end leakage.
        self.energy.add(
            DomainId.FRONT_END,
            self.power.background(
                DomainId.FRONT_END, cfg.v_max, cfg.f_max_ghz, dt, sleeping=False
            ),
        )
        # Voltages may have moved: refresh the cached per-cycle energies.
        self._refresh_energy_coefficients()
        if prof is not None:
            t3 = perf_counter()  # statcheck: disable=DET002 -- profiling only
            prof.add("slew", t3 - t2)

        # -- record: history series and per-sample metric events -----------
        if record:
            for domain in CONTROLLED_DOMAINS:
                self.history.occupancy[domain].append(occupancies[domain])
                self.history.frequency_ghz[domain].append(
                    self.regulators[domain].current_freq_ghz
                )
                self.history.issued[domain].append(self.domains[domain].issued)
        if self._probe is not None and sample_index % self._obs_stride == 0:
            self._emit_samples(time_ns, occupancies)
        if prof is not None:
            prof.add("record", perf_counter() - t3)  # statcheck: disable=DET002 -- profiling only

    def _apply_command(
        self,
        time_ns: float,
        domain: DomainId,
        regulator: VoltageRegulator,
        command,
    ) -> None:
        """Forward one controller command to its regulator and record it."""
        cfg = self.config
        before = regulator.target_freq_ghz
        freq_now = regulator.current_freq_ghz
        regulator.apply(command)
        target = regulator.target_freq_ghz
        applied = abs(target - before) > 1e-12
        if cfg.stalls_during_transition and applied:
            # Transmeta-style: the domain halts for the PLL
            # relock (the V/f ramp itself executes through).
            pause = time_ns + cfg.relock_idle_ns
            tag = _EDGE_TAG[domain]
            self._pause_until[tag] = max(self._pause_until[tag], pause)
        self.step_events.append(
            FrequencyStepEvent(
                time_ns=time_ns,
                domain=domain,
                steps=command.steps,
                target_ghz=target,
                freq_ghz=freq_now,
                applied=applied,
            )
        )
        probe = self._probe
        if probe is not None:
            probe.event(
                "freq_step",
                time_ns,
                domain=domain.value,
                steps=command.steps,
                target_ghz=target,
                freq_ghz=freq_now,
                applied=applied,
                slew_ns=abs(target - freq_now) / regulator.slew_ghz_per_ns,
            )
            probe.count(f"freq_steps.{domain.value}")

    def _emit_samples(self, time_ns: float, occupancies: Dict[DomainId, int]) -> None:
        """Publish one period's per-domain metrics into the probe bus."""
        probe = self._probe
        by_domain = self.energy.by_domain
        for domain in CONTROLLED_DOMAINS:
            occ = occupancies[domain]
            regulator = self.regulators[domain]
            name = domain.value
            probe.gauge(f"occupancy.{name}", occ)
            probe.histogram(f"occupancy.{name}", occ)
            probe.gauge(f"frequency_ghz.{name}", regulator.current_freq_ghz)
            probe.event(
                "sample",
                time_ns,
                domain=name,
                occupancy=occ,
                freq_ghz=regulator.current_freq_ghz,
                voltage=regulator.voltage,
                energy=by_domain[domain] + self._energy_by_tag[_EDGE_TAG[domain]],
            )
        probe.count("samples")

    # ------------------------------------------------------------------

    def _result(self, finish_ns: float) -> SimulationResult:
        for domain, tag in _EDGE_TAG.items():
            self.energy.add(domain, self._energy_by_tag[tag])
            self._energy_by_tag[tag] = 0.0
        self.energy.add_memory(
            self.hierarchy.memory_accesses * self.power.memory_access()
        )
        n = max(1, self._freq_samples)
        probe_summary = None
        if self.obs is not None:
            prof = self._profiler
            if prof is not None and self._probe is not None:
                for phase, wall_s in prof.phase_s.items():
                    self._probe.event(
                        "profile",
                        finish_ns,
                        phase=phase,
                        wall_s=wall_s,
                        calls=prof.phase_calls[phase],
                    )
            probe_summary = self.obs.summary()
        return SimulationResult(
            benchmark=self.benchmark,
            scheme=self.scheme,
            time_ns=finish_ns,
            instructions=self.rob.retired,
            energy=self.energy,
            history=self.history,
            transitions={
                d: self.regulators[d].transitions for d in CONTROLLED_DOMAINS
            },
            mean_frequency_ghz={
                d: self._freq_sum[d] / n for d in CONTROLLED_DOMAINS
            },
            issued_by_domain={
                d: self.domains[d].issued for d in CONTROLLED_DOMAINS
            },
            branch_mispredict_rate=self.predictor.mispredict_rate,
            l1d_miss_rate=self.hierarchy.l1d.miss_rate,
            l2_miss_rate=self.hierarchy.l2.miss_rate,
            sync_deferral_rate=self.sync.deferral_rate,
            step_events=self.step_events,
            probe_summary=probe_summary,
        )
