"""Command-line interface: ``python -m repro`` or the ``repro-dvfs`` script.

Subcommands
-----------
``list``      list the benchmark suite (with fast-varying labels)
``run``       simulate one benchmark under one scheme
``compare``   compare schemes on one or more benchmarks
``sweep``     run a (benchmark x scheme) grid through the parallel sweep
              engine (worker pool, result cache, telemetry)
``trace``     run one benchmark with the observability layer on and write
              JSONL + Chrome-trace (Perfetto-loadable) artifacts
``serve``     start the DVFS HTTP service (job submission, SSE event
              streams, cached results by content hash, controller
              scoring); SIGINT/SIGTERM drain gracefully
``top``       live terminal dashboard polling a running service's
              ``/metrics`` (request rates, latency quantiles, engine and
              coalescer health)
``check``     run the statcheck static analyzer over the source tree
              (exit 0 clean / 1 findings / 2 analyzer error)
``analyze``   print the Section-4 stability analysis for a design point
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.linearize import linearize
from repro.analysis.model import ClosedLoopModel, ControllerModel, ServiceModel
from repro.analysis.stability import analyze
from repro.harness.comparison import aggregate, compare_schemes, sweep
from repro.harness.experiment import SCHEMES, run_experiment
from repro.harness.persistence import result_to_dict
from repro.harness.reporting import format_table
from repro.mcd.domains import DomainId
from repro.simcore import CORES
from repro.workloads.suite import BENCHMARKS


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [spec.name, spec.suite, len(spec.phases), spec.length,
         "fast" if spec.fast_varying else "steady"]
        for spec in BENCHMARKS.values()
    ]
    print(format_table(
        ["benchmark", "suite", "phases", "instructions", "variability"],
        rows,
        title="Benchmark suite",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.simcore import resolve_core

    try:
        core = resolve_core(args.simcore)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(
        args.benchmark,
        scheme=args.scheme,
        max_instructions=args.instructions,
        seed=args.seed,
        record_history=False,
        simcore=core,
    )
    if args.json:
        payload = result_to_dict(result)
        payload["simcore"] = core
        print(json.dumps(payload, indent=2))
        return 0
    print(f"benchmark            : {result.benchmark}")
    print(f"scheme               : {result.scheme}")
    print(f"simulation core      : {core}")
    print(f"instructions retired : {result.instructions}")
    print(f"execution time       : {result.time_ns / 1000:.2f} us")
    print(f"energy               : {result.energy.total:.0f} units")
    for domain in (DomainId.INT, DomainId.FP, DomainId.LS):
        print(f"mean f ({domain.value:3s})         : "
              f"{result.mean_frequency_ghz[domain]:.3f} GHz "
              f"({result.transitions[domain]} transitions)")
    print(f"branch mispredicts   : {result.branch_mispredict_rate:.3f}")
    print(f"L1D / L2 miss rate   : {result.l1d_miss_rate:.3f} / {result.l2_miss_rate:.3f}")
    return 0


def _scheme_result_dict(result) -> dict:
    return {
        "scheme": result.scheme,
        "energy_savings_pct": result.energy_savings_pct,
        "perf_degradation_pct": result.perf_degradation_pct,
        "edp_improvement_pct": result.edp_improvement_pct,
        "transitions": result.transitions,
    }


def _cmd_compare(args: argparse.Namespace) -> int:
    comparisons = [
        compare_schemes(
            name,
            schemes=tuple(args.schemes),
            max_instructions=args.instructions,
            seed=args.seed,
        )
        for name in args.benchmarks
    ]
    if args.json:
        payload = [
            {
                "benchmark": comp.benchmark,
                "suite": comp.suite,
                "schemes": [
                    _scheme_result_dict(comp.result_for(s))
                    for s in args.schemes
                ],
            }
            for comp in comparisons
        ]
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for comp in comparisons:
        for scheme in args.schemes:
            result = comp.result_for(scheme)
            rows.append(
                [comp.benchmark, scheme, result.energy_savings_pct,
                 result.perf_degradation_pct, result.edp_improvement_pct,
                 result.transitions]
            )
    print(format_table(
        ["benchmark", "scheme", "energy savings %", "perf degradation %",
         "EDP improvement %", "transitions"],
        rows,
        title="Scheme comparison vs full-speed baseline",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import EngineConfig, SweepEngine
    from repro.simcore import resolve_core

    try:
        core = resolve_core(args.simcore)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    unknown = sorted(set(args.benchmarks) - set(BENCHMARKS))
    if unknown:
        print(
            f"error: unknown benchmark(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(BENCHMARKS))})",
            file=sys.stderr,
        )
        return 2

    from repro.engine import shutdown_on_signals

    engine = SweepEngine(
        EngineConfig(
            workers=args.jobs,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            retries=args.retries,
            events_path=args.events,
            progress=args.progress and not args.json,
        )
    )
    # Ctrl-C / SIGTERM drain the sweep (in-flight jobs finish, queued
    # jobs cancel, telemetry + cache writes flush) instead of aborting.
    with shutdown_on_signals(engine):
        comparisons = sweep(
            args.benchmarks or sorted(BENCHMARKS),
            schemes=tuple(args.schemes),
            max_instructions=args.instructions,
            seed=args.seed,
            engine=engine,
            on_failure="skip",
            simcore=core,
        )
    summary = engine.telemetry.summary()
    if engine.shutdown_requested:
        print(
            f"sweep interrupted: {summary['cancelled']} job(s) cancelled "
            f"after draining in-flight work",
            file=sys.stderr,
        )

    if args.json:
        payload = {
            "simcore": core,
            "benchmarks": [
                {
                    "benchmark": comp.benchmark,
                    "suite": comp.suite,
                    "schemes": [
                        _scheme_result_dict(result) for result in comp.schemes
                    ],
                }
                for comp in comparisons
            ],
            "aggregate": {
                scheme: aggregate(comparisons, scheme)
                for scheme in args.schemes
            }
            if comparisons
            else {},
            "telemetry": summary,
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [comp.benchmark, result.scheme, result.energy_savings_pct,
             result.perf_degradation_pct, result.edp_improvement_pct,
             result.transitions]
            for comp in comparisons
            for result in comp.schemes
        ]
        print(format_table(
            ["benchmark", "scheme", "energy savings %", "perf degradation %",
             "EDP improvement %", "transitions"],
            rows,
            title="Sweep vs full-speed baseline",
        ))
        if comparisons:
            agg_rows = [
                [scheme, *aggregate(comparisons, scheme).values()]
                for scheme in args.schemes
            ]
            print(format_table(
                ["scheme", "energy savings %", "perf degradation %",
                 "EDP improvement %", "transitions"],
                agg_rows,
                title=f"Mean over {len(comparisons)} benchmarks",
            ))
        print(
            f"sweep ({core} core): {summary['jobs_run']} simulated, "
            f"{summary['cache_hits']} cache hits, "
            f"{summary['retries']} retries, "
            f"{summary['failures']} failures "
            f"in {summary['wall_s']:.2f}s "
            f"({summary['jobs_per_s']:.2f} jobs/s)"
        )
    if engine.shutdown_requested:
        return 130  # conventional interrupted-by-signal exit
    return 0 if summary["failures"] == 0 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.obs import ObsConfig, Observability
    from repro.obs.schema import validate_trace_files

    obs = Observability(
        ObsConfig(ring_size=args.ring, sample_stride=args.stride)
    )
    result = run_experiment(
        args.benchmark,
        scheme=args.scheme,
        max_instructions=args.instructions,
        seed=args.seed,
        record_history=False,
        obs=obs,
    )
    jsonl_path = os.path.join(args.out, "metrics.jsonl")
    chrome_path = os.path.join(args.out, "trace.chrome.json")
    obs.write_trace_files(jsonl_path, chrome_path)
    errors = validate_trace_files(jsonl_path, chrome_path)
    summary = result.probe_summary

    if args.json:
        payload = {
            "benchmark": result.benchmark,
            "scheme": result.scheme,
            "instructions": result.instructions,
            "time_ns": result.time_ns,
            "files": {"jsonl": jsonl_path, "chrome": chrome_path},
            "validation_errors": errors,
            "probe_summary": summary,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"benchmark       : {result.benchmark} ({result.scheme})")
        print(f"simulated       : {result.instructions} instructions, "
              f"{result.time_ns / 1000:.2f} us")
        trace_info = summary.get("trace") or {}
        print(f"trace events    : {trace_info.get('recorded', 0)} recorded, "
              f"{trace_info.get('dropped', 0)} dropped "
              f"(ring {trace_info.get('ring_size', args.ring)})")
        counters = summary.get("counters", {})
        for kind in sorted(k for k in counters if k.startswith("events.")):
            print(f"  {kind[len('events.'):]:17s}: {counters[kind]}")
        profile = summary.get("profile")
        if profile:
            print(f"throughput      : {profile['samples_per_s']:.0f} samples/s "
                  f"({profile['samples']} samples in {profile['wall_s']:.2f}s)")
            for phase, data in sorted(profile["phases"].items()):
                print(f"  {phase:17s}: {data['wall_s'] * 1e3:8.1f} ms "
                      f"({100 * data['share']:.1f}% of run)")
        print(f"jsonl           : {jsonl_path}")
        print(f"chrome trace    : {chrome_path} "
              f"(load in ui.perfetto.dev or chrome://tracing)")
        for problem in errors:
            print(f"SCHEMA ERROR: {problem}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal

    from repro.serve.app import ServeApp, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.jobs,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        executor_threads=args.threads,
        simcore=args.simcore,
    )
    app = ServeApp(config)

    async def _serve() -> None:
        host, port = await app.start()
        print(
            f"repro-dvfs serve: listening on http://{host}:{port} "
            f"(cache: {config.cache_dir or 'memory-only'}, "
            f"coalescing {config.max_batch}/{args.max_delay_ms:g}ms)",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        stopping: "asyncio.Future[None]" = loop.create_future()

        def _on_signal() -> None:
            if not stopping.done():
                stopping.set_result(None)
                return
            # second signal while draining: the user means it
            print("repro-dvfs serve: forced exit", file=sys.stderr)
            os._exit(130)

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, _on_signal)
        try:
            await stopping
            print(
                "repro-dvfs serve: draining in-flight jobs...",
                file=sys.stderr,
            )
            await app.stop()
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(signum)
        print("repro-dvfs serve: stopped", file=sys.stderr)

    asyncio.run(_serve())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    try:
        return run_top(
            host=args.host,
            port=args.port,
            interval_s=args.interval,
            iterations=1 if args.once else args.iterations,
            clear=not (args.no_clear or args.once),
        )
    except KeyboardInterrupt:
        return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.statcheck import cli as statcheck_cli

    return statcheck_cli.run_checked(args)


def _cmd_analyze(args: argparse.Namespace) -> int:
    service = ServiceModel(t1=args.t1, c2=args.c2)
    loop = ClosedLoopModel(
        controller=ControllerModel(step=args.step, t_m0=args.t_m0, t_l0=args.t_l0),
        service=service,
        q_ref=args.q_ref,
    )
    report = analyze(linearize(loop, f_op=args.f_op))
    print(report.summary())
    return 0


def _positive_int(text: str) -> int:
    """argparse type for run sizes: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dvfs",
        description="Adaptive-reaction-time DVFS for MCD processors (HPCA'05 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="simulate one benchmark under one scheme")
    run_p.add_argument("benchmark", choices=sorted(BENCHMARKS))
    run_p.add_argument("--scheme", choices=SCHEMES, default="adaptive")
    run_p.add_argument("--instructions", type=_positive_int, default=60_000,
                       help="truncate the run (phase proportions preserved)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the benchmark's deterministic RNG seed")
    run_p.add_argument("--simcore", choices=CORES, default=None,
                       help="simulation core (default: REPRO_SIMCORE env "
                            "var, then 'fast'; both are bit-identical)")
    run_p.add_argument("--json", action="store_true",
                       help="emit the full result as machine-readable JSON")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare schemes on benchmarks")
    cmp_p.add_argument("benchmarks", nargs="+", choices=sorted(BENCHMARKS))
    cmp_p.add_argument("--schemes", nargs="+",
                       choices=[s for s in SCHEMES if s != "full-speed"],
                       default=["adaptive", "attack-decay", "pid"])
    cmp_p.add_argument("--instructions", type=_positive_int, default=60_000)
    cmp_p.add_argument("--seed", type=int, default=None,
                       help="override every benchmark's RNG seed")
    cmp_p.add_argument("--json", action="store_true",
                       help="emit comparisons as machine-readable JSON")
    cmp_p.set_defaults(func=_cmd_compare)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a (benchmark x scheme) grid through the sweep engine",
    )
    # no ``choices`` here: argparse rejects the empty default of a
    # choices-constrained ``nargs="*"`` positional; _cmd_sweep validates.
    sweep_p.add_argument(
        "benchmarks", nargs="*", metavar="BENCHMARK",
        help="benchmarks to sweep (default: the whole suite)",
    )
    sweep_p.add_argument("--schemes", nargs="+",
                         choices=[s for s in SCHEMES if s != "full-speed"],
                         default=["adaptive", "attack-decay", "pid"])
    sweep_p.add_argument("--instructions", type=_positive_int, default=60_000)
    sweep_p.add_argument("--seed", type=int, default=None,
                         help="override every benchmark's RNG seed")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = in-process serial)")
    sweep_p.add_argument("--cache-dir", default=None, dest="cache_dir",
                         help="content-addressed result cache directory "
                              "(off when omitted)")
    sweep_p.add_argument("--events", default=None,
                         help="write a JSON-lines telemetry event log here")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock timeout in seconds")
    sweep_p.add_argument("--retries", type=int, default=1,
                         help="extra attempts after a job failure")
    sweep_p.add_argument("--simcore", choices=CORES, default=None,
                         help="simulation core for every job (default: "
                              "REPRO_SIMCORE env var, then 'fast')")
    sweep_p.add_argument("--no-progress", action="store_false",
                         dest="progress",
                         help="suppress per-job progress lines on stderr")
    sweep_p.add_argument("--json", action="store_true",
                         help="emit results + telemetry as JSON")
    sweep_p.set_defaults(func=_cmd_sweep)

    trace_p = sub.add_parser(
        "trace",
        help="run one benchmark with observability on; write JSONL + "
             "Chrome-trace artifacts",
    )
    trace_p.add_argument("benchmark", choices=sorted(BENCHMARKS))
    trace_p.add_argument("--scheme", choices=SCHEMES, default="adaptive")
    trace_p.add_argument("--instructions", type=_positive_int, default=20_000,
                         help="truncate the run (phase proportions preserved)")
    trace_p.add_argument("--seed", type=int, default=None,
                         help="override the benchmark's deterministic RNG seed")
    trace_p.add_argument("--out", default="trace-out",
                         help="output directory for metrics.jsonl and "
                              "trace.chrome.json")
    trace_p.add_argument("--ring", type=int, default=65536,
                         help="trace ring-buffer capacity (oldest events "
                              "beyond this are dropped)")
    trace_p.add_argument("--stride", type=int, default=1,
                         help="publish per-sample metric events every Nth "
                              "sampling period")
    trace_p.add_argument("--json", action="store_true",
                         help="emit the run + probe summary as JSON")
    trace_p.set_defaults(func=_cmd_trace)

    serve_p = sub.add_parser(
        "serve",
        help="start the DVFS HTTP service (runs, sweeps, SSE streams, "
             "results by hash, controller scoring)",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: loopback)")
    serve_p.add_argument("--port", type=int, default=8035,
                         help="bind port (0 picks an ephemeral port)")
    serve_p.add_argument("--cache-dir", default=None, dest="cache_dir",
                         help="content-addressed result cache directory; "
                              "also backs GET /v1/results/{sha} across "
                              "restarts (memory-only when omitted)")
    serve_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes per sweep engine")
    serve_p.add_argument("--threads", type=int, default=4,
                         help="simulation threads off the event loop")
    serve_p.add_argument("--max-batch", type=int, default=8,
                         dest="max_batch",
                         help="coalescer: most runs per engine call")
    serve_p.add_argument("--max-delay-ms", type=float, default=5.0,
                         dest="max_delay_ms",
                         help="coalescer: max added latency while waiting "
                              "to fill a batch")
    serve_p.add_argument("--simcore", choices=CORES, default=None,
                         help="default simulation core for submitted jobs")
    serve_p.set_defaults(func=_cmd_serve)

    top_p = sub.add_parser(
        "top",
        help="live terminal dashboard over a running service's /metrics",
    )
    top_p.add_argument("--host", default="127.0.0.1",
                       help="service host (default: 127.0.0.1)")
    top_p.add_argument("--port", type=int, default=8035,
                       help="service port (default: 8035)")
    top_p.add_argument("--interval", type=float, default=2.0,
                       help="seconds between scrapes (default: 2)")
    top_p.add_argument("--iterations", type=int, default=None,
                       help="stop after N redraws (default: run until ^C)")
    top_p.add_argument("--once", action="store_true",
                       help="scrape and render a single frame, no clearing")
    top_p.add_argument("--no-clear", action="store_true", dest="no_clear",
                       help="append frames instead of clearing the screen")
    top_p.set_defaults(func=_cmd_top)

    check_p = sub.add_parser(
        "check",
        help="statcheck static analysis (determinism / concurrency / "
             "pool-safety / probe-schema invariants)",
    )
    from repro.statcheck import cli as statcheck_cli

    statcheck_cli.add_arguments(check_p)
    check_p.set_defaults(func=_cmd_check)

    ana_p = sub.add_parser("analyze", help="Section-4 stability analysis")
    ana_p.add_argument("--t1", type=float, default=0.2,
                       help="frequency-independent time per instruction")
    ana_p.add_argument("--c2", type=float, default=1.0,
                       help="frequency-dependent cycles per instruction")
    ana_p.add_argument("--step", type=float, default=0.2, help="aggregate step gain")
    ana_p.add_argument("--t-m0", type=float, default=50.0, dest="t_m0")
    ana_p.add_argument("--t-l0", type=float, default=8.0, dest="t_l0")
    ana_p.add_argument("--q-ref", type=float, default=4.0, dest="q_ref")
    ana_p.add_argument("--f-op", type=float, default=0.6, dest="f_op",
                       help="operating frequency for linearization")
    ana_p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like a good unix tool
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
