"""Build controllers and run single (benchmark x scheme) simulations."""

from __future__ import annotations

import pickle
from functools import partial
from typing import Dict, Optional, Sequence, Tuple, Union

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
from repro.simcore import create_processor, resolve_core
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
_TraceKey = Tuple[bytes, Optional[int], int]
_last_trace: Optional[Tuple[_TraceKey, Tuple[Instruction, ...]]] = None

#: the latest untraced full-speed run on the fast core, as ``(key,
#: frequencies, log, result)``: ``key`` is the trace key plus the run's
#: machine, history settings, initial frequencies and core; ``frequencies``
#: each controlled domain's regulator frequency, which no run without a
#: command moves; ``log`` the occupancies its sample ticks latched (INT, FP,
#: LS per tick), as bytes while every one fits in a byte; ``result`` the
#: pickled result.  A run whose controllers return no command over the log
#: follows this run's trajectory, so a copy of the result answers it
#: (DESIGN §6d item 9).  Like ``_last_trace``, it is replaced by one
#: rebinding, so a race between serve's executor threads costs at worst a
#: redundant simulation.
_last_silent: Optional[
    Tuple[tuple, Tuple[float, ...], Sequence[int], bytes]
] = None


def _keyed_trace(
    spec: BenchmarkSpec, max_instructions: Optional[int], seed: int
) -> Tuple[_TraceKey, Tuple[Instruction, ...]]:
    """The trace of ``spec`` and its key; consecutive calls with equal keys
    share one.

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
        return last
    trace = tuple(generate_trace(spec, max_instructions=max_instructions, seed=seed))
    _last_trace = (key, trace)
    return key, trace


def _trace_for(
    spec: BenchmarkSpec, max_instructions: Optional[int], seed: int
) -> Tuple[Instruction, ...]:
    """The trace of ``spec`` (see :func:`_keyed_trace`)."""
    return _keyed_trace(spec, max_instructions, seed)[1]


def _stays_silent(
    controllers: Dict[DomainId, DvfsController],
    frequencies: Tuple[float, ...],
    log: Sequence[int],
    dt: float,
) -> bool:
    """Whether ``controllers`` return no command at any tick of ``log``.

    Each ``observe`` call is the one the processor would make on the logged
    trajectory: tick ``k`` at ``t = t + dt`` from 0.0, as both cores push
    ticks, domains in ``CONTROLLED_DOMAINS`` order, each with the
    occupancy the tick latched and its regulator's frequency.  The calls
    change the controllers' state.
    """
    rows = [
        (column, controllers[domain].observe, frequencies[column])
        for column, domain in enumerate(CONTROLLED_DOMAINS)
        if domain in controllers
    ]
    if not rows:
        return True
    width = len(CONTROLLED_DOMAINS)
    t = 0.0
    for base in range(0, len(log), width):
        t = t + dt
        for column, observe, freq in rows:
            if observe(t, log[base + column], freq) is not None:
                return False
    return True


def _remember(key: tuple, processor, result: SimulationResult) -> None:
    """Keep a full-speed run for the silent schemes after it.

    Only a log with one entry per controlled domain for each tick the run
    made is kept: a log that missed a tick would replay as silent.
    """
    global _last_silent
    log = getattr(processor, "occupancy_log", None)
    if log is None or len(log) != len(CONTROLLED_DOMAINS) * processor._freq_samples:
        return
    try:
        kept: Sequence[int] = bytes(log)  # 1 byte an entry, not 8
    except ValueError:  # a queue held 256 or more
        kept = tuple(log)
    _last_silent = (
        key,
        tuple(processor.regulators[d].current_freq_ghz for d in CONTROLLED_DOMAINS),
        kept,
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
    )


def build_controllers(
    scheme: str,
    machine: Optional[MachineConfig] = None,
    pid_interval_ns: Optional[float] = None,
    adaptive_overrides: Optional[Dict[str, object]] = None,
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
            ad_config = AttackDecayConfig(capacity=machine.queue_capacity(domain))
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

    A run's trajectory depends on its controllers only through the
    commands they return.  So an untraced run right after the fast core's
    full-speed run of the same trace, machine, seed, history settings and
    initial frequencies first replays its controllers over the occupancies
    that run logged; if none returns a command, it returns a copy of that
    result relabeled with its own ``scheme``, and otherwise it simulates
    with new controllers (DESIGN §6d item 9).
    """
    spec = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    machine = machine or MachineConfig()
    # one effective seed drives both the trace generator and the processor's
    # jitter RNG: an explicit ``seed`` overrides the spec's default for both
    # (previously the override never reached the processor).
    effective_seed = spec.seed if seed is None else seed
    trace_key, trace = _keyed_trace(spec, max_instructions, effective_seed)
    make_controllers = partial(
        build_controllers,
        scheme,
        machine=machine,
        pid_interval_ns=pid_interval_ns,
        adaptive_overrides=adaptive_overrides,
    )
    controllers = make_controllers()
    key = None
    if obs is None:
        key = (
            trace_key,
            pickle.dumps(
                (machine, record_history, history_stride, initial_frequencies),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
            resolve_core(simcore),
        )
        silent = _last_silent
        if silent is not None and silent[0] == key:
            if _stays_silent(
                controllers, silent[1], silent[2], machine.sample_period_ns
            ):
                result: SimulationResult = pickle.loads(silent[3])
                result.scheme = scheme
                return result
            # the replay moved the controllers' state
            controllers = make_controllers()
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
    try:
        result = processor.run()
        if key is not None and not controllers:
            _remember(key, processor, result)
        return result
    finally:
        # free the processor by refcount, even when the run raises
        processor.release()
