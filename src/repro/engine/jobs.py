"""Job model of the sweep engine.

A :class:`SweepJob` is one fully-specified ``(benchmark x scheme x
parameter-overrides)`` simulation: everything
:func:`repro.harness.experiment.run_experiment` needs, captured as plain
picklable data so the job can cross a process boundary and be hashed
into a stable cache key.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from repro.mcd.domains import MachineConfig
from repro.obs.facade import ObsConfig
from repro.obs.spans import SpanContext
from repro.simcore import resolve_core
from repro.workloads.phases import BenchmarkSpec
from repro.workloads.suite import get_benchmark

if TYPE_CHECKING:
    from repro.mcd.processor import SimulationResult


@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work.

    ``benchmark`` is resolved to a full :class:`BenchmarkSpec` at
    construction time so the cache key covers the actual phase structure,
    not just a name that could silently change meaning between code
    versions.
    """

    benchmark: BenchmarkSpec
    scheme: str = "adaptive"
    machine: Optional[MachineConfig] = None
    max_instructions: Optional[int] = None
    seed: Optional[int] = None
    record_history: bool = False
    history_stride: int = 4
    pid_interval_ns: Optional[float] = None
    adaptive_overrides: Optional[Dict[str, object]] = None
    #: per-run observability config (picklable; a live Observability is not)
    obs: Optional[ObsConfig] = None
    #: simulation core ("ref"/"fast"); None defers to REPRO_SIMCORE
    simcore: Optional[str] = None
    #: parent span of this job's worker span (picklable, crosses the pool
    #: boundary).  Deliberately NOT in canonical_dict(): span ids are
    #: random per submission and cannot affect simulation outcomes, so
    #: keying on them would break content-addressed cache hits.
    span: Optional[SpanContext] = None

    @staticmethod
    def make(
        benchmark: Union[str, BenchmarkSpec],
        scheme: str = "adaptive",
        **kwargs: Any,
    ) -> "SweepJob":
        spec = (
            get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        )
        return SweepJob(benchmark=spec, scheme=scheme, **kwargs)

    @property
    def job_id(self) -> str:
        """Human-readable identity used in telemetry and progress output."""
        return f"{self.benchmark.name}/{self.scheme}"

    def canonical_dict(self) -> Dict[str, Any]:
        """Every simulation-affecting input, as JSON-stable plain data.

        This is the payload the content-addressed cache hashes; any field
        that can change the simulation's outcome must appear here.
        """
        payload = {"benchmark": _plain(dataclasses.asdict(self.benchmark))}
        payload.update(self._settings())
        return payload

    def canonical_json(self) -> str:
        """``json.dumps(canonical_dict(), sort_keys=True)``.

        The benchmark spec is most of the text (~40k characters for
        gsm-decode), so its JSON comes from a per-spec memo and is spliced
        in: the top-level items are joined exactly as ``json.dumps`` joins
        them, with its default separators.
        """
        texts = {
            key: json.dumps(value, sort_keys=True)
            for key, value in self._settings().items()
        }
        texts["benchmark"] = _spec_json(self.benchmark)
        return "{" + ", ".join(
            f"{json.dumps(key)}: {texts[key]}" for key in sorted(texts)
        ) + "}"

    def _settings(self) -> Dict[str, Any]:
        """:meth:`canonical_dict` without its ``benchmark`` entry."""
        machine = self.machine or MachineConfig()
        return {
            "scheme": self.scheme,
            "machine": _plain(dataclasses.asdict(machine)),
            "max_instructions": self.max_instructions,
            "seed": self.seed,
            "record_history": self.record_history,
            "history_stride": self.history_stride,
            "pid_interval_ns": self.pid_interval_ns,
            "adaptive_overrides": _plain(self.adaptive_overrides or {}),
            # obs never changes simulation outcomes, but it changes what the
            # stored result carries (probe_summary), so it is part of the key
            "obs": _plain(dataclasses.asdict(self.obs)) if self.obs else None,
            # the cores are bit-identical by contract, but keying on the
            # resolved core keeps their artifacts distinct so an equivalence
            # regression can never be masked by a cache hit from the other
            # core; resolving here also folds REPRO_SIMCORE into the key
            "simcore": resolve_core(self.simcore),
        }


#: canonical JSON text of up to 64 benchmark specs by ``id(spec)``, oldest
#: evicted first.
#: Each entry holds its spec, so the id cannot be reused while the entry
#: lives; specs are frozen, so the text cannot go stale.  Keys are computed
#: on the serve event loop and in engine threads alike, hence the lock.
_SPEC_JSON: "OrderedDict[int, Tuple[BenchmarkSpec, str]]" = OrderedDict()
_SPEC_JSON_MAX = 64
_SPEC_JSON_LOCK = threading.Lock()


def _spec_json(spec: BenchmarkSpec) -> str:
    """``json.dumps`` of the spec's plain form, memoized per spec object."""
    with _SPEC_JSON_LOCK:
        hit = _SPEC_JSON.get(id(spec))
    if hit is not None:
        return hit[1]
    text = json.dumps(_plain(dataclasses.asdict(spec)), sort_keys=True)
    with _SPEC_JSON_LOCK:
        _SPEC_JSON[id(spec)] = (spec, text)
        while len(_SPEC_JSON) > _SPEC_JSON_MAX:
            _SPEC_JSON.popitem(last=False)
    return text


def _plain(value: Any) -> Any:
    """Recursively convert to canonical JSON-serializable data."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def run_job(job: SweepJob) -> "SimulationResult":
    """Execute one job in the current process.

    Module-level (not a method) so a process pool can pickle it as the
    default worker entry point.
    """
    from repro.harness.experiment import run_experiment

    return run_experiment(
        job.benchmark,
        scheme=job.scheme,
        machine=job.machine,
        max_instructions=job.max_instructions,
        seed=job.seed,
        record_history=job.record_history,
        history_stride=job.history_stride,
        pid_interval_ns=job.pid_interval_ns,
        adaptive_overrides=dict(job.adaptive_overrides)
        if job.adaptive_overrides
        else None,
        obs=job.obs,
        simcore=job.simcore,
    )
