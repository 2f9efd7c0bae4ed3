"""Property: jobs that share a result-cache key simulate the same trace.

The sweep engine serves one cached result to every job with the same
``job_cache_key``, so an equal key must imply an equal trace.  The
generator assigns instruction kinds in the order of each phase's ``mix``
dict, an order dataclass equality ignores, so the generated job pairs
include ones whose specs differ only in the order of one phase's ``mix``.
"""

import dataclasses
import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.cache import job_cache_key
from repro.engine.jobs import SweepJob
from repro.workloads.generator import generate_trace
from repro.workloads.instructions import Instruction, InstructionKind
from repro.workloads.phases import BenchmarkSpec, PhaseSpec

_INSTRUCTIONS = 300


@st.composite
def raw_phases(draw):
    """(length, dep_density, mix items) of one phase.

    Weights are small integers: they sum exactly in any order, so a
    permuted mix normalizes to the same weights and differs only in order.
    """
    kinds = draw(
        st.lists(
            st.sampled_from(list(InstructionKind)), min_size=2, max_size=6, unique=True
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=len(kinds),
            max_size=len(kinds),
        )
    )
    length = draw(st.integers(min_value=50, max_value=400))
    dep_density = draw(st.sampled_from([0.3, 0.8]))
    return length, dep_density, list(zip(kinds, map(float, weights)))


def _spec(raw):
    return BenchmarkSpec(
        name="keyed",
        suite="spec2000int",
        phases=tuple(
            PhaseSpec(
                name=f"phase-{i}",
                length=length,
                mix=dict(items),
                dep_density=dep_density,
            )
            for i, (length, dep_density, items) in enumerate(raw)
        ),
    )


@st.composite
def job_pairs(draw):
    """Two jobs: the second may permute one phase's mix or change the seed."""
    raw = draw(st.lists(raw_phases(), min_size=1, max_size=3))
    index = draw(st.integers(min_value=0, max_value=len(raw) - 1))
    length, dep_density, items = raw[index]
    permuted = draw(st.permutations(items))
    other = list(raw)
    other[index] = (length, dep_density, permuted)
    seeds = st.sampled_from([1, 2])
    return tuple(
        SweepJob.make(_spec(r), max_instructions=_INSTRUCTIONS, seed=draw(seeds))
        for r in (raw, other)
    )


def _trace_digest(job):
    """SHA-256 over every field of every instruction of ``job``'s trace."""
    names = [field.name for field in dataclasses.fields(Instruction)]
    digest = hashlib.sha256()
    for inst in generate_trace(
        job.benchmark, max_instructions=job.max_instructions, seed=job.seed
    ):
        fields = [getattr(inst, name) for name in names]
        fields[names.index("kind")] = inst.kind.value
        digest.update(repr(fields).encode())
    return digest.hexdigest()


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(job_pairs())
def test_equal_cache_key_means_equal_trace(pair):
    first, second = pair
    if job_cache_key(first) == job_cache_key(second):
        assert _trace_digest(first) == _trace_digest(second)
