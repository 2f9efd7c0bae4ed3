"""Centralized (coordinated) adaptive DVFS -- the paper's stated open problem.

Section 3.1: "A centralized DVFS scheme which utilizes all queue/domain
information may work better, but is much harder to design, as it is still an
open research problem."  This module is an exploratory answer built on the
paper's own per-domain machinery: each domain keeps its adaptive FSM
pipeline, and a lightweight coordinator adds one cross-domain rule --

    **a domain may not scale down while any sibling queue is backlogged.**

Rationale: the domains feed each other through dependences.  When some queue
is above its reference, the system is backlogged somewhere; slowing *any*
domain at that moment risks turning it into the next bottleneck (its own
queue is a lagging indicator).  Down-steps are therefore vetoed until the
whole machine is quiet, while up-steps (performance-protecting) always pass.

This trades a little energy for performance protection; the companion bench
measures whether the coordination actually "works better" on this substrate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import AdaptiveConfig, default_adaptive_config
from repro.core.controller import AdaptiveDvfsController
from repro.dvfs.base import DvfsController, FrequencyCommand
from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId, MachineConfig


class CentralizedCoordinator:
    """Shared state: the latest occupancancy of every controlled queue."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        backlog_margin: float = 1.0,
    ) -> None:
        self.machine = machine or MachineConfig()
        #: a queue counts as backlogged when occupancy > q_ref + margin
        self.backlog_margin = backlog_margin
        self._occupancy: Dict[DomainId, int] = {d: 0 for d in CONTROLLED_DOMAINS}
        self._q_ref: Dict[DomainId, float] = {
            d: float(default_adaptive_config(d).q_ref) for d in CONTROLLED_DOMAINS
        }
        self.vetoes = 0

    def note(self, domain: DomainId, occupancy: int) -> None:
        self._occupancy[domain] = occupancy

    def set_reference(self, domain: DomainId, q_ref: float) -> None:
        self._q_ref[domain] = q_ref

    def backlogged_domains(self) -> "list[DomainId]":
        return [
            d
            for d in CONTROLLED_DOMAINS
            if self._occupancy[d] > self._q_ref[d] + self.backlog_margin
        ]

    def allows_down(self, domain: DomainId) -> bool:
        """May ``domain`` scale down right now?

        Denied while any *other* domain's queue is backlogged.  (A domain's
        own backlog already prevents its down-trigger via the level signal.)
        """
        for other in CONTROLLED_DOMAINS:
            if other is domain:
                continue
            if self._occupancy[other] > self._q_ref[other] + self.backlog_margin:
                self.vetoes += 1
                return False
        return True


class CoordinatedAdaptiveController(DvfsController):
    """A per-domain adaptive controller subject to the coordinator's veto."""

    def __init__(
        self,
        domain: DomainId,
        coordinator: CentralizedCoordinator,
        config: Optional[AdaptiveConfig] = None,
        machine: Optional[MachineConfig] = None,
    ) -> None:
        super().__init__(domain)
        self.coordinator = coordinator
        self.inner = AdaptiveDvfsController(domain, config, machine)
        coordinator.set_reference(domain, float(self.inner.config.q_ref))

    @property
    def config(self) -> AdaptiveConfig:
        return self.inner.config

    def attach_probe(self, probe) -> None:
        super().attach_probe(probe)
        self.inner.attach_probe(probe)

    def reset(self) -> None:
        super().reset()
        self.inner.reset()

    def observe(
        self, now_ns: float, occupancy: int, freq_ghz: float
    ) -> Optional[FrequencyCommand]:
        inner = self.inner
        self.coordinator.note(self.domain, occupancy)
        level, slope = inner.monitor.signals(occupancy)
        if inner.scheduler.busy(now_ns):
            return None

        f_rel = min(1.0, freq_ghz / inner.machine.f_max_ghz)
        tracing = self.probe.enabled
        if tracing:
            level_was = inner.level_fsm.state
            level_dwell = inner.level_fsm.samples_in_state
            slope_was = inner.slope_fsm.state
            slope_dwell = inner.slope_fsm.samples_in_state
        level_trigger = inner.level_fsm.step(level, f_rel)
        slope_trigger = (
            inner.slope_fsm.step(slope, f_rel)
            if inner.config.use_slope_signal
            else 0
        )
        if tracing:
            inner._trace_fsm(
                now_ns, "level", level_was, level_dwell,
                inner.level_fsm.state, level_trigger,
            )
            if inner.config.use_slope_signal:
                inner._trace_fsm(
                    now_ns, "slope", slope_was, slope_dwell,
                    inner.slope_fsm.state, slope_trigger,
                )

        # the centralized rule: veto down-moves while a sibling is backlogged
        if (level_trigger < 0 or slope_trigger < 0) and not (
            self.coordinator.allows_down(self.domain)
        ):
            level_trigger = max(0, level_trigger)
            slope_trigger = max(0, slope_trigger)
            if tracing:
                self.probe.count(f"coordinator_vetoes.{self.domain.value}")

        action = inner.scheduler.reconcile(now_ns, level_trigger, slope_trigger)
        if action is None:
            if level_trigger and slope_trigger and level_trigger != slope_trigger:
                inner.level_fsm.reset()
                inner.slope_fsm.reset()
            return None
        return self._issue(FrequencyCommand(steps=action.steps))


def build_centralized_controllers(
    machine: Optional[MachineConfig] = None,
    backlog_margin: float = 1.0,
    adaptive_overrides: Optional[Dict[str, object]] = None,
) -> Dict[DomainId, DvfsController]:
    """One coordinated controller per domain, sharing a coordinator."""
    machine = machine or MachineConfig()
    coordinator = CentralizedCoordinator(machine, backlog_margin=backlog_margin)
    controllers: Dict[DomainId, DvfsController] = {}
    for domain in CONTROLLED_DOMAINS:
        config = default_adaptive_config(domain, **(adaptive_overrides or {}))
        controllers[domain] = CoordinatedAdaptiveController(
            domain, coordinator, config, machine
        )
    return controllers
