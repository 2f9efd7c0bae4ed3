"""Content-addressed on-disk cache of sweep results.

The cache key is a SHA-256 over the job's canonical JSON (benchmark
spec, scheme, machine config, overrides, instruction window, seed --
see :meth:`repro.engine.jobs.SweepJob.canonical_dict`) plus a cache
format tag and the persistence format version.  Identical jobs on
identical code therefore hash to the same file; any change to the spec,
the machine, or the serialization format changes the key and the stale
entry is simply never looked up again.

Entries are single-result ``.json.gz`` files written by
:mod:`repro.harness.persistence`, sharded into 256 two-hex-digit
subdirectories so no single directory grows unboundedly.  All cache
operations are best-effort: a corrupt, truncated, or version-mismatched
entry reads as a miss, and a failed write never aborts the sweep.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Optional

from repro.engine.jobs import SweepJob
from repro.harness import persistence
from repro.mcd.processor import SimulationResult

#: Bump when simulation semantics change in a way that invalidates old
#: cached results without changing the persistence format.
#: 2: results now carry step_events (and probe_summary when observed);
#:    version-1 entries predate both and must not be served.
#: 3: canonical_dict gained the resolved "simcore" field; version-2 keys
#:    were computed without it and would alias ref/fast results.
#: 4: the "batch" core joined CORES; bumping keeps any pre-batch artifact
#:    (written while "batch" was an invalid core name) from ever being
#:    served to the new backend's lookups.  The batch core has since been
#:    retired; "ref" and "fast" keys never changed, so the version stays
#:    (tests/engine/test_engine_cache.py pins one key per core).
CACHE_VERSION = 4

#: keys are sha256 hex digests; anything else (``../`` traversal, short
#: prefixes) is rejected before touching the filesystem.
_KEY_RE = re.compile(r"[0-9a-f]{64}")


def job_cache_key(job: SweepJob) -> str:
    """Stable hex digest addressing ``job``'s result on disk."""
    payload = "\n".join(
        (
            f"cache-version:{CACHE_VERSION}",
            f"format-version:{persistence.FORMAT_VERSION}",
            job.canonical_json(),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def entry_path(root: str, key: str) -> str:
    """On-disk path of cache entry ``key`` under ``root``."""
    return os.path.join(str(root), key[:2], f"{key}.json.gz")


def get_by_key(key: str, root: str) -> Optional[SimulationResult]:
    """Fetch a cached result directly by its content hash.

    This is the library face of ``GET /v1/results/{sha}``: any consumer
    holding a job's :func:`job_cache_key` can retrieve the deserialized
    :class:`~repro.mcd.processor.SimulationResult` without rebuilding the
    job.  Same contract as :meth:`ResultCache.get` -- a missing, corrupt,
    or version-mismatched entry reads as ``None``, never an exception.
    """
    if not _KEY_RE.fullmatch(key):
        return None
    try:
        results = persistence.load_result_objects(entry_path(root, key))
    except (OSError, ValueError, KeyError, EOFError):
        return None
    if len(results) != 1:
        return None
    return results[0]


class ResultCache:
    """Directory-backed result store addressed by :func:`job_cache_key`."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def path_for(self, job: SweepJob, key: Optional[str] = None) -> str:
        """On-disk path of ``job``'s entry; ``key`` is its
        :func:`job_cache_key`, hashed here when the caller has none."""
        return entry_path(self.root, job_cache_key(job) if key is None else key)

    def get_by_key(self, key: str) -> Optional[SimulationResult]:
        """:func:`get_by_key` against this cache's root."""
        return get_by_key(key, self.root)

    def get(
        self, job: SweepJob, key: Optional[str] = None
    ) -> Optional[SimulationResult]:
        """Return the cached result for ``job``, or ``None`` on a miss.

        A history-recording job only hits on an entry that carries a
        history, so ``record_history=True`` sweeps never get silently
        downgraded results (the key covers ``record_history``, making
        this automatic).  ``key`` is as in :meth:`path_for`.
        """
        return get_by_key(job_cache_key(job) if key is None else key, self.root)

    def put(
        self, job: SweepJob, result: SimulationResult, key: Optional[str] = None
    ) -> Optional[str]:
        """Store ``result`` under ``job``'s key; returns the path or
        ``None`` if the write failed (caching is best-effort).  ``key`` is
        as in :meth:`path_for`."""
        path = self.path_for(job, key)
        try:
            persistence.save_results(
                path, [result], include_history=job.record_history
            )
        except OSError:
            return None
        return path
