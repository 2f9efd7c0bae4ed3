"""Tests for the content-addressed result cache."""

import dataclasses
import os

import pytest

from repro.engine.cache import (
    CACHE_VERSION,
    ResultCache,
    entry_path,
    get_by_key,
    job_cache_key,
)
from repro.engine.jobs import SweepJob, run_job
from repro.mcd.domains import DomainId, MachineConfig
from repro.obs import ObsConfig
from repro.simcore import CORES, resolve_core


#: literal keys of one tiny job per core.  Every existing cache entry is
#: addressed by keys like these, so a change that moves them must be
#: deliberate and bump CACHE_VERSION; update these digests in the same
#: change.
PINNED_KEYS = {
    "ref": "76b1b3ed89385a2d6570714e9dacdc06807932a15e34cfbdd66c31315e7182d6",
    "fast": "da4c55dc28516c21fb8a4dd30429b6ae515632f61e147ce3ab36803a10adcbf7",
}


#: one key-changing override per simulation input of the ``job`` fixture;
#: ``benchmark`` has its own test and ``span`` must NOT change the key
#: (tests/engine/test_engine_obs.py), so those two are the only fields
#: test_key_cases_name_every_field lets a case list skip.
KEY_CHANGING_CASES = [
    dict(scheme="pid"),
    dict(max_instructions=2000),
    dict(seed=99),
    dict(record_history=True),
    dict(pid_interval_ns=100.0),
    dict(adaptive_overrides={"delay_scale": 2.0}),
    dict(machine=MachineConfig(rob_size=96)),
    dict(history_stride=8),
    dict(obs=ObsConfig()),
    dict(simcore=next(core for core in CORES if core != resolve_core(None))),
]


@pytest.fixture(scope="module")
def job():
    return SweepJob.make("adpcm-encode", scheme="adaptive", max_instructions=1500)


@pytest.fixture(scope="module")
def result(job):
    return run_job(job)


class TestCacheKey:
    def test_stable_across_instances(self, job):
        clone = SweepJob.make(
            "adpcm-encode", scheme="adaptive", max_instructions=1500
        )
        assert job_cache_key(job) == job_cache_key(clone)

    def test_is_hex_digest(self, job):
        key = job_cache_key(job)
        assert len(key) == 64
        int(key, 16)

    @pytest.mark.parametrize("other", KEY_CHANGING_CASES)
    def test_any_simulation_input_changes_key(self, job, other):
        kwargs = dict(scheme="adaptive", max_instructions=1500)
        kwargs.update(other)
        changed = SweepJob.make("adpcm-encode", **kwargs)
        assert job_cache_key(job) != job_cache_key(changed)

    def test_key_cases_name_every_field(self):
        """A new SweepJob field fails here until it gets a key case."""
        named = {field for case in KEY_CHANGING_CASES for field in case}
        assert named | {"benchmark", "span"} == {
            field.name for field in dataclasses.fields(SweepJob)
        }

    def test_different_benchmark_changes_key(self, job):
        other = SweepJob.make("gzip", scheme="adaptive", max_instructions=1500)
        assert job_cache_key(job) != job_cache_key(other)

    @pytest.mark.parametrize("core", sorted(PINNED_KEYS))
    def test_key_is_pinned_per_core(self, core):
        tiny = SweepJob.make(
            "adpcm-encode",
            scheme="adaptive",
            max_instructions=1000,
            seed=1,
            simcore=core,
        )
        assert CACHE_VERSION == 5
        assert job_cache_key(tiny) == PINNED_KEYS[core]


def _custom_spec():
    """A spec the registry does not hold, with text that needs escaping."""
    from repro.workloads.instructions import InstructionKind
    from repro.workloads.phases import BenchmarkSpec, PhaseSpec

    return BenchmarkSpec(
        name="custom-é",
        suite="spec2000int",
        phases=(
            PhaseSpec(
                name='tight "loop"',
                length=400,
                mix={InstructionKind.INT_ALU: 3.0, InstructionKind.LOAD: 1.0},
            ),
        ),
        notes="not in the registry ✓",
    )


#: jobs whose spliced JSON must equal json.dumps of their canonical dict
SPLICE_CASES = {
    "registry": dict(benchmark="gsm-decode", seed=3),
    "custom-machine": dict(
        benchmark="gzip", machine=MachineConfig(rob_size=96, jitter_sigma_ns=0.0)
    ),
    "obs": dict(benchmark="swim", obs=ObsConfig()),
    "overrides": dict(
        benchmark="mcf", adaptive_overrides={"delay_scale": 2.0, "q_ref": 6}
    ),
    "custom-spec": dict(benchmark=_custom_spec(), scheme="pid"),
}


class TestCanonicalJson:
    """canonical_json splices the memoized spec text into the top-level
    object; the result must stay byte-identical to the plain dump."""

    @pytest.mark.parametrize("case", sorted(SPLICE_CASES))
    def test_canonical_json_is_the_plain_dump(self, case):
        import json

        spliced = SweepJob.make(**SPLICE_CASES[case])
        plain = json.dumps(spliced.canonical_dict(), sort_keys=True)
        assert spliced.canonical_json() == plain
        # a second call serves the spec text from the memo
        assert spliced.canonical_json() == plain

    def test_canonical_dict_is_a_fresh_dict(self, job):
        first = job.canonical_dict()
        first["benchmark"]["name"] = "mutated"
        assert job.canonical_dict()["benchmark"]["name"] == "adpcm-encode"

    def test_replaced_spec_keys_alike(self, job):
        copy = dataclasses.replace(job, benchmark=dataclasses.replace(job.benchmark))
        assert copy.benchmark is not job.benchmark
        assert job_cache_key(copy) == job_cache_key(job)

    def test_changed_spec_changes_key(self, job):
        changed = dataclasses.replace(
            job, benchmark=dataclasses.replace(job.benchmark, notes="edited")
        )
        assert job_cache_key(changed) != job_cache_key(job)


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        assert cache.get(job) is None
        path = cache.put(job, result)
        assert path is not None and os.path.exists(path)
        loaded = cache.get(job)
        assert loaded is not None
        assert loaded.benchmark == result.benchmark
        assert loaded.scheme == result.scheme
        assert loaded.time_ns == pytest.approx(result.time_ns)
        assert loaded.energy.total == pytest.approx(result.energy.total)
        assert loaded.energy.chip_total == pytest.approx(result.energy.chip_total)
        assert loaded.transitions == result.transitions

    def test_entries_are_sharded_gzip_files(self, tmp_path, job):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for(job)
        key = job_cache_key(job)
        assert path.endswith(".json.gz")
        assert os.path.basename(os.path.dirname(path)) == key[:2]

    def test_corrupt_entry_reads_as_miss(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        with open(cache.path_for(job), "wb") as handle:
            handle.write(b"not gzip at all")
        assert cache.get(job) is None

    def test_history_preserved_when_job_records_it(self, tmp_path):
        job = SweepJob.make(
            "adpcm-encode", scheme="adaptive",
            max_instructions=1500, record_history=True,
        )
        result = run_job(job)
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        loaded = cache.get(job)
        assert loaded.history.time_ns == result.history.time_ns
        assert (
            loaded.history.frequency_ghz[DomainId.INT]
            == result.history.frequency_ghz[DomainId.INT]
        )

    def test_cache_version_participates_in_key(self, job, monkeypatch):
        before = job_cache_key(job)
        monkeypatch.setattr("repro.engine.cache.CACHE_VERSION", CACHE_VERSION + 1)
        assert job_cache_key(job) != before


class TestGetByKey:
    """Fetching cached results by bare content hash (the serve path)."""

    def test_roundtrip_by_hash(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        key = job_cache_key(job)

        loaded = get_by_key(key, str(tmp_path))
        assert loaded is not None
        assert loaded.benchmark == result.benchmark
        assert loaded.scheme == result.scheme
        assert loaded.time_ns == pytest.approx(result.time_ns)
        assert loaded.energy.total == pytest.approx(result.energy.total)

    def test_missing_key_is_none(self, tmp_path):
        assert get_by_key("a" * 64, str(tmp_path)) is None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "short",
            "A" * 64,  # uppercase: not a canonical digest
            "g" * 64,  # non-hex
            "../" + "a" * 61,  # traversal attempt
            "a" * 63 + "/",
        ],
    )
    def test_malformed_keys_rejected_without_touching_disk(self, tmp_path, bad):
        assert get_by_key(bad, str(tmp_path)) is None

    def test_corrupt_entry_is_none(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        key = job_cache_key(job)
        with open(entry_path(str(tmp_path), key), "wb") as handle:
            handle.write(b"garbage")
        assert get_by_key(key, str(tmp_path)) is None

    def test_bound_method_fetches_hit_and_miss(self, tmp_path, job, result):
        cache = ResultCache(str(tmp_path))
        cache.put(job, result)
        key = job_cache_key(job)
        assert cache.get_by_key(key) is not None
        assert cache.get_by_key("b" * 64) is None
