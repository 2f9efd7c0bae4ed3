"""Build controllers and run single (benchmark x scheme) simulations."""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Tuple, Union

from repro.core.config import (
    default_adaptive_config,
    transmeta_adaptive_config,
)
from repro.core.controller import AdaptiveDvfsController
from repro.dvfs.attack_decay import AttackDecayConfig, AttackDecayController
from repro.dvfs.base import DvfsController
from repro.dvfs.pid import PidConfig, PidController
from repro.mcd.domains import CONTROLLED_DOMAINS, DomainId, MachineConfig
from repro.mcd.processor import SimulationResult
from repro.simcore import create_processor
from repro.workloads.generator import generate_trace
from repro.workloads.instructions import Instruction
from repro.workloads.phases import BenchmarkSpec
from repro.workloads.suite import get_benchmark

#: The four schemes of the paper's evaluation -- the synchronous full-speed
#: baseline, the adaptive scheme (the contribution), and the two prior
#: fixed-interval schemes -- plus the exploratory "centralized" coordinated
#: variant (the open problem the paper points at in Section 3.1).
SCHEMES = ("full-speed", "adaptive", "attack-decay", "pid", "centralized")

#: Per-domain reference occupancies (paper Section 5.1), shared by the
#: adaptive and PID schemes so the comparison targets the same operating
#: point.
_Q_REF = {DomainId.INT: 6, DomainId.FP: 4, DomainId.LS: 4}

#: the latest trace this process generated, as ``(key, trace)`` with key
#: ``(pickled spec, max_instructions, effective seed)``.  One entry is
#: enough because the sweep engine runs jobs that share a trace back to
#: back.  Serve's executor threads may race on it; the entry is replaced
#: by one rebinding, so the worst case is a redundant generation.
_last_trace: Optional[
    Tuple[Tuple[bytes, Optional[int], int], Tuple[Instruction, ...]]
] = None


def _trace_for(
    spec: BenchmarkSpec, max_instructions: Optional[int], seed: int
) -> Tuple[Instruction, ...]:
    """The trace of ``spec``; consecutive calls with equal keys share one.

    The key is the spec's pickled bytes, not its name or ``id()``: pool
    workers unpickle a fresh spec for every job, and two custom specs may
    share a name.  Nor is it dataclass equality, which ignores the order
    of a phase's ``mix`` dict, while the generator's draws depend on it.
    Schemes never mutate a trace, so consecutive runs share the tuple.
    """
    global _last_trace
    key = (
        pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL),
        max_instructions,
        seed,
    )
    last = _last_trace
    if last is not None and last[0] == key:
        return last[1]
    trace = tuple(generate_trace(spec, max_instructions=max_instructions, seed=seed))
    _last_trace = (key, trace)
    return trace


def build_controllers(
    scheme: str,
    machine: Optional[MachineConfig] = None,
    pid_interval_ns: Optional[float] = None,
    adaptive_overrides: Optional[Dict[str, object]] = None,
    attack_decay_interval_ns: Optional[float] = None,
) -> Dict[DomainId, DvfsController]:
    """Instantiate one controller per controlled domain for ``scheme``.

    ``pid_interval_ns`` overrides the PID interval (the paper's closing
    interval-length sweep); ``adaptive_overrides`` are forwarded into every
    domain's :class:`AdaptiveConfig` (used by the ablation benches).
    """
    machine = machine or MachineConfig()
    if scheme == "full-speed":
        return {}
    if scheme == "centralized":
        from repro.dvfs.centralized import build_centralized_controllers

        return build_centralized_controllers(
            machine=machine, adaptive_overrides=adaptive_overrides
        )
    controllers: Dict[DomainId, DvfsController] = {}
    for domain in CONTROLLED_DOMAINS:
        if scheme == "adaptive":
            overrides = dict(adaptive_overrides or {})
            # Transmeta-style machines get the paper's "high/big" triggering
            # defaults; explicit overrides still win.
            make_config = (
                transmeta_adaptive_config
                if machine.stalls_during_transition
                else default_adaptive_config
            )
            config = make_config(domain, **overrides)
            controllers[domain] = AdaptiveDvfsController(domain, config, machine)
        elif scheme == "attack-decay":
            ad_config = AttackDecayConfig(
                capacity=machine.queue_capacity(domain),
                **(
                    {"interval_ns": attack_decay_interval_ns}
                    if attack_decay_interval_ns is not None
                    else {}
                ),
            )
            controllers[domain] = AttackDecayController(domain, ad_config)
        elif scheme == "pid":
            pid_config = PidConfig(
                q_ref=float(_Q_REF[domain]),
                **(
                    {"interval_ns": pid_interval_ns}
                    if pid_interval_ns is not None
                    else {}
                ),
            )
            controllers[domain] = PidController(domain, pid_config)
        else:
            raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")
    return controllers


def run_experiment(
    benchmark: Union[str, BenchmarkSpec],
    scheme: str = "adaptive",
    machine: Optional[MachineConfig] = None,
    max_instructions: Optional[int] = None,
    seed: Optional[int] = None,
    record_history: bool = True,
    history_stride: int = 4,
    pid_interval_ns: Optional[float] = None,
    adaptive_overrides: Optional[Dict[str, object]] = None,
    initial_frequencies: Optional[Dict[DomainId, float]] = None,
    obs=None,
    simcore: Optional[str] = None,
) -> SimulationResult:
    """Run one benchmark under one DVFS scheme and return the result.

    ``benchmark`` may be a Table-2 name or an explicit
    :class:`BenchmarkSpec`.  ``max_instructions`` truncates the run while
    preserving phase proportions.  ``initial_frequencies`` pins domains to
    starting frequencies (used by offline mu-f characterization).
    ``obs`` enables the observability layer (``True``, an
    :class:`repro.obs.ObsConfig`, or a live :class:`repro.obs.Observability`);
    the result then carries ``probe_summary``.  Step decisions are recorded
    on ``result.step_events`` regardless of ``obs`` and ``record_history``.
    ``simcore`` selects the simulation core (``"ref"``/``"fast"``); ``None``
    defers to the ``REPRO_SIMCORE`` environment variable -- both cores are
    bit-identical, so this never changes results, only throughput.
    The trace depends only on ``(spec, max_instructions, seed)``, never on
    the scheme, so a run reuses the trace of the process's previous run
    when those are equal (the sweep engine orders jobs to make it so).
    """
    spec = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    machine = machine or MachineConfig()
    # one effective seed drives both the trace generator and the processor's
    # jitter RNG: an explicit ``seed`` overrides the spec's default for both
    # (previously the override never reached the processor).
    effective_seed = spec.seed if seed is None else seed
    trace = _trace_for(spec, max_instructions, effective_seed)
    controllers = build_controllers(
        scheme,
        machine=machine,
        pid_interval_ns=pid_interval_ns,
        adaptive_overrides=adaptive_overrides,
    )
    processor = create_processor(
        trace=trace,
        config=machine,
        controllers=controllers,
        seed=effective_seed,
        record_history=record_history,
        history_stride=history_stride,
        benchmark=spec.name,
        scheme=scheme,
        initial_frequencies=initial_frequencies,
        obs=obs,
        simcore=simcore,
    )
    return processor.run()
