"""The adaptive-reaction-time DVFS controller (paper Section 3).

Ties together the signal monitor, the two per-signal time-delay FSMs, and
the action scheduler into one per-domain controller implementing the
:class:`~repro.dvfs.base.DvfsController` interface.  Decision flow per 4 ns
sample:

1. derive the level signal ``q - q_ref`` and slope signal ``q_i - q_{i-1}``;
2. if an Act (physical frequency switch) is in progress, hold;
3. step each FSM (deviation window + resettable, signal/frequency-scaled
   time-delay counter);
4. reconcile triggers (combine identical, cancel opposite);
5. emit a +-1 or +-2 step command to the voltage regulator.

The controller is purely reactive: with a steady workload the signals sit
inside their deviation windows and nothing ever triggers -- the adaptive
scheme's "inactive for an arbitrarily long time" property.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import AdaptiveConfig, default_adaptive_config
from repro.core.fsm import FsmState, TimeDelayFsm
from repro.core.scheduler import ActionScheduler
from repro.core.signals import SignalMonitor
from repro.dvfs.base import DvfsController, FrequencyCommand
from repro.mcd.domains import DomainId, MachineConfig


class AdaptiveDvfsController(DvfsController):
    """Per-domain adaptive online DVFS control."""

    def __init__(
        self,
        domain: DomainId,
        config: Optional[AdaptiveConfig] = None,
        machine: Optional[MachineConfig] = None,
    ) -> None:
        super().__init__(domain)
        self.machine = machine or MachineConfig()
        self.config = config or default_adaptive_config(domain)
        self.monitor = SignalMonitor(q_ref=self.config.q_ref)
        self.level_fsm = TimeDelayFsm(
            delay=self.config.t_m0,
            deviation_window=self.config.dw_level,
            scale=self.config.m,
            signal_scaled=self.config.signal_scaled_delay,
            freq_scaled_down=self.config.freq_scaled_down_delay,
        )
        self.slope_fsm = TimeDelayFsm(
            delay=self.config.t_l0,
            deviation_window=self.config.dw_slope,
            scale=self.config.l,
            signal_scaled=self.config.signal_scaled_delay,
            freq_scaled_down=self.config.freq_scaled_down_delay,
        )
        # One controller step takes step_ghz * slew time to switch, plus any
        # Transmeta-style PLL-relock idle the machine imposes.
        self.scheduler = ActionScheduler(
            switching_time_ns=self.machine.step_switching_time_ns,
            combine_actions=self.config.combine_actions,
        )

    # ------------------------------------------------------------------

    @property
    def switching_time_ns(self) -> float:
        """T_s: physical switching time of a single step."""
        return self.scheduler.switching_time_ns

    def reset(self) -> None:
        super().reset()
        self.monitor.reset()
        self.level_fsm.reset()
        self.slope_fsm.reset()
        self.scheduler.reset()

    # ------------------------------------------------------------------

    def observe(
        self, now_ns: float, occupancy: int, freq_ghz: float
    ) -> Optional[FrequencyCommand]:
        level, slope = self.monitor.signals(occupancy)
        if self.scheduler.busy(now_ns):
            # Act in progress: the FSMs hold until the switch completes
            # (Figure 4's "before T_s, any signal" self-loop).
            return None

        f_rel = min(1.0, freq_ghz / self.machine.f_max_ghz)
        probe = self.probe
        tracing = probe.enabled
        if tracing:
            level_was = self.level_fsm.state
            level_dwell = self.level_fsm.samples_in_state
            slope_was = self.slope_fsm.state
            slope_dwell = self.slope_fsm.samples_in_state
        level_trigger = self.level_fsm.step(level, f_rel)
        slope_trigger = (
            self.slope_fsm.step(slope, f_rel)
            if self.config.use_slope_signal
            else 0
        )
        if tracing:
            self._trace_fsm(
                now_ns, "level", level_was, level_dwell,
                self.level_fsm.state, level_trigger,
            )
            if self.config.use_slope_signal:
                self._trace_fsm(
                    now_ns, "slope", slope_was, slope_dwell,
                    self.slope_fsm.state, slope_trigger,
                )

        action = self.scheduler.reconcile(now_ns, level_trigger, slope_trigger)
        if action is None:
            if level_trigger and slope_trigger and level_trigger != slope_trigger:
                # Mutual cancellation resets both signals to Wait.
                self.level_fsm.reset()
                self.slope_fsm.reset()
                if tracing:
                    self._trace_reconcile(
                        now_ns, level_trigger, slope_trigger, "cancel", 0
                    )
            return None
        if tracing:
            outcome = "combine" if level_trigger and slope_trigger else "single"
            self._trace_reconcile(
                now_ns, level_trigger, slope_trigger, outcome, action.steps
            )
        return self._issue(FrequencyCommand(steps=action.steps))

    # -- observability -------------------------------------------------

    def _trace_fsm(
        self,
        now_ns: float,
        signal: str,
        was: FsmState,
        dwell: int,
        state: FsmState,
        trigger: int,
    ) -> None:
        """Publish one FSM state change (or trigger) as a transition event.

        ``was``/``dwell`` are the pre-step state and its dwell counter; on
        a trigger the FSM has already reset itself, so the length of the
        counting run that just fired is reconstructed here (the triggering
        sample itself counts; a side-crossing trigger restarts at 1).
        """
        if trigger == 0 and state is was:
            return
        if trigger:
            same_side = (was is FsmState.COUNT_UP and trigger > 0) or (
                was is FsmState.COUNT_DOWN and trigger < 0
            )
            dwell = dwell + 1 if same_side else 1
        self.probe.event(
            "fsm_transition",
            now_ns,
            domain=self.domain.value,
            signal=signal,
            from_state=was.value,
            to_state=state.value,
            dwell_samples=dwell,
            trigger=trigger,
        )
        self.probe.count(f"fsm_transitions.{self.domain.value}")
        if trigger:
            self.probe.histogram(
                f"fsm_dwell_samples.{signal}.{self.domain.value}", dwell
            )

    def _trace_reconcile(
        self,
        now_ns: float,
        level_trigger: int,
        slope_trigger: int,
        outcome: str,
        steps: int,
    ) -> None:
        """Publish one scheduler reconcile decision."""
        self.probe.event(
            "reconcile",
            now_ns,
            domain=self.domain.value,
            level_trigger=level_trigger,
            slope_trigger=slope_trigger,
            outcome=outcome,
            steps=steps,
        )
        self.probe.count(f"reconcile.{outcome}.{self.domain.value}")
