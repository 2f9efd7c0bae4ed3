"""Building a processor must not allocate per cache set or BTB set.

A default machine has 17,408 cache sets and 4,096 BTB sets.  Allocating a
container for each one up front made construction cost more than trace
generation on short runs, and because a processor's object graph is
cyclic, only the cyclic garbage collector could free them.  This guard
counts the GC-tracked objects a default processor adds for a
1,000-instruction trace on every core; an eager per-set allocation
anywhere puts the count in the tens of thousands.
"""

from __future__ import annotations

import gc

import pytest

from repro.simcore import CORES, create_processor
from repro.workloads.generator import generate_trace
from repro.workloads.suite import get_benchmark

#: far above what construction needs (a few hundred objects), far below
#: one object per cache or BTB set
_MAX_NEW_OBJECTS = 1000


def _tracked_objects_added(build) -> int:
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        processor = build()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del processor
    return added


@pytest.mark.parametrize("core", CORES)
def test_processor_construction_allocates_no_per_set_objects(core):
    trace = generate_trace(get_benchmark("gzip"), max_instructions=1000, seed=1)

    def build():
        return create_processor(trace=trace, simcore=core)

    build()  # imports and interned lookup tables are one-time costs
    added = _tracked_objects_added(build)
    assert added < _MAX_NEW_OBJECTS, (
        f"{core}: building a processor added {added} GC-tracked objects"
    )
