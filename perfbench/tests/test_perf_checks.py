"""The output checks: a wrong result and a refused request both count."""

import asyncio
import copy
import json

from pb import checks, serve, sweeps
from pb.checks import Tally


def _library_payload():
    from repro.engine import SweepJob, run_job

    job = SweepJob.make("swim", "adaptive", max_instructions=100, seed=3)
    return checks.result_payload(run_job(job))


def test_clean_tally_is_correct():
    tally = Tally()
    for _ in range(5):
        tally.ok()
    assert tally.correct and tally.error_rate == 0 and tally.exit_code() == 0


def test_perturbed_result_and_refused_request_fail_the_run():
    tally = Tally()
    library = _library_payload()
    served = dict(copy.deepcopy(library), sha="a" * 64)
    tally.ok()
    assert checks.served_result_matches(tally, "run", served, "a" * 64, library)
    perturbed = dict(copy.deepcopy(library), sha="a" * 64)
    perturbed["time_ns"] += 1.0
    tally.ok()
    assert not checks.served_result_matches(tally, "run", perturbed, "a" * 64, library)
    tally.refuse("step: HTTP 503")
    assert (tally.attempted, tally.wrong, tally.refused) == (3, 1, 1)
    assert tally.error_rate == 2 / 3
    assert not tally.correct and tally.exit_code() != 0


def test_result_with_another_hash_is_wrong():
    tally = Tally()
    library = _library_payload()
    tally.ok()
    served = dict(library, sha="b" * 64)
    assert not checks.served_result_matches(tally, "run", served, "a" * 64, library)
    assert tally.wrong == 1 and tally.exit_code() != 0


def test_failed_guard_makes_the_run_invalid():
    tally = Tally()
    tally.ok()
    tally.guard(False, "bursts were not batched")
    assert tally.error_rate == 0 and not tally.correct and tally.exit_code() != 0


class _Outcome:
    def __init__(self, job, result, from_cache=False):
        self.job, self.result, self.from_cache = job, result, from_cache
        self.ok, self.error, self.attempts = True, None, 1


def test_sweep_pass_with_a_changed_result_counts_as_wrong():
    from repro.engine import SweepJob, run_job

    job = SweepJob.make("swim", "pid", max_instructions=100, seed=5)
    result = run_job(job)
    state = sweeps.SweepState(seed=1, jobs=[job], workers=1)
    sweeps._check_pass(state, [_Outcome(job, result)])
    assert state.tally.correct
    other = run_job(SweepJob.make("swim", "pid", max_instructions=100, seed=6))
    sweeps._check_pass(state, [_Outcome(job, other)])
    assert state.tally.wrong == 1 and state.tally.exit_code() != 0


def test_refused_step_enters_latency_as_infinity():
    """A stub server refuses every controller step; the client counts it."""

    async def handler(reader, writer):
        while await reader.readline() not in (b"\r\n", b""):
            pass
        body = json.dumps({"error": "overloaded"}).encode()
        writer.write(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: "
                     + str(len(body)).encode() + b"\r\n\r\n" + body)
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        tally = Tally()
        leg = serve.Leg([serve.Connection("127.0.0.1", port)], tally, {})
        op = serve.Op(0.0, "step", step={"occupancy": [1, 2, 3]})
        await leg._step(op, asyncio.get_running_loop().time())
        server.close()
        await server.wait_closed()
        return tally, leg

    tally, leg = asyncio.run(scenario())
    assert tally.refused == 1 and tally.exit_code() != 0
    assert leg.latency["step"] == [float("inf")]


def test_unbatched_bursts_fail_the_guard():
    """Chance pairs of singles merge a run, but three bursts need three."""
    state = serve.ServeState(seed=1, scratch="", server=None, conns=[], loop=None, shas={})
    leg = serve.Leg([], state.tally, {})
    run = {"leg": leg, "before": {}, "after": {}, "bursts": 3,
           "coalescer": {"flushes": 150, "run_batch_calls": 149, "batched_runs": 150}}
    serve.guards(state, run)
    assert any(why.startswith("bursts were not batched") for why in state.tally.invalid)
    run["coalescer"] = {"flushes": 150, "run_batch_calls": 150, "batched_runs": 156}
    state.tally.invalid.clear()
    serve.guards(state, run)
    assert not any(why.startswith("bursts") for why in state.tally.invalid)
