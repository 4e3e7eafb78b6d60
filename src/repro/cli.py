"""Command-line interface: regenerate any experiment from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig2ab --n 4096 --rounds 40
    python -m repro.cli run table2
    python -m repro.cli bounds --n 1048576 --level high
    python -m repro.cli lint

``run`` executes one experiment from :mod:`repro.bench.experiments` and
prints the paper-style table; ``bounds`` evaluates the Theorem 7.1/7.2
bounds for a preset without running anything; ``lint`` runs the oblint
static-analysis suite (DESIGN.md §9).

Exit codes are part of the CLI contract (scripts and CI dispatch on
them, and ``tests/test_cli.py`` pins them):

* ``0`` — success / clean,
* ``1`` — lint findings or a failed security audit,
* ``2`` — the chaos differential oracle found a violation,
* ``64`` — malformed command line (BSD ``EX_USAGE``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from repro.bench import experiments
from repro.bench.reporting import format_table
from repro.core.config import SecurityLevel, WaffleConfig

__all__ = ["EXIT_CHAOS", "EXIT_LINT", "EXIT_USAGE", "EXPERIMENTS", "main"]

#: Lint findings (or failed audit) — "the code is wrong".
EXIT_LINT = 1
#: Chaos oracle violation — "the system misbehaved under faults".
EXIT_CHAOS = 2
#: Malformed command line (BSD sysexits.h EX_USAGE).
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with :data:`EXIT_USAGE` on bad usage.

    argparse's default exit code for usage errors is 2, which would
    collide with :data:`EXIT_CHAOS`; subparsers inherit this class via
    ``parser_class`` so ``repro chaos --bogus`` also exits 64.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

#: CLI name -> (callable, kwargs it accepts from the CLI).
EXPERIMENTS = {
    "fig2ab": (experiments.fig2ab_baselines, ("n", "rounds")),
    "fig2c": (experiments.fig2c_cores, ("n", "rounds")),
    "fig2d": (experiments.fig2d_cache, ("n", "rounds")),
    "fig3a": (experiments.fig3a_batch_size, ("n", "rounds")),
    "fig3b": (experiments.fig3b_real_fraction, ("n", "rounds")),
    "fig3c": (experiments.fig3c_fake_dummy, ("n", "rounds")),
    "fig3d": (experiments.fig3d_num_dummies, ("n", "rounds")),
    "table2": (experiments.table2_security_levels, ("n", "rounds")),
    "fig5": (experiments.fig5_correlated, ("n",)),
    "fig6": (experiments.fig6_tradeoff, ("n", "rounds")),
    "attack": (experiments.attack_correlated, ("n",)),
    "ablation-fake-policy": (experiments.ablation_fake_policy,
                             ("n", "rounds")),
    "attack-frequency": (experiments.frequency_attack_comparison, ("n",)),
    "low-security-leak": (experiments.low_security_distinguisher,
                          ("n", "rounds")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro", description="Waffle reproduction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--n", type=int, default=None,
                     help="scaled database size (default: experiment's)")
    run.add_argument("--rounds", type=int, default=None,
                     help="batch rounds per data point")
    run.add_argument("--json", action="store_true",
                     help="emit raw rows as JSON instead of a table")
    run.add_argument("--chart", action="store_true",
                     help="additionally render an ASCII chart when the "
                          "experiment produces an (x, y) series")

    bounds = sub.add_parser("bounds", help="evaluate Theorem 7.1/7.2 bounds")
    bounds.add_argument("--n", type=int, default=10**6)
    bounds.add_argument("--level", choices=[l.value for l in SecurityLevel],
                        default=None,
                        help="Table 2 preset (default: §8.2 defaults)")

    audit = sub.add_parser(
        "audit", help="run a workload and emit a security audit report")
    audit.add_argument("--n", type=int, default=2048)
    audit.add_argument("--rounds", type=int, default=200)
    audit.add_argument("--uniform", action="store_true",
                       help="uniform instead of Zipf-0.99 input")

    obs_p = sub.add_parser(
        "obs", help="run an instrumented workload and render the live "
                    "observability dashboard")
    obs_p.add_argument("--n", type=int, default=1024)
    obs_p.add_argument("--rounds", type=int, default=50)
    obs_p.add_argument("--window", type=int, default=10,
                       help="AlphaMonitor window size in rounds")
    obs_p.add_argument("--trace-out", default=None,
                       help="stream the JSONL trace to this file")
    obs_p.add_argument("--prom-out", default=None,
                       help="write a Prometheus text snapshot to this file")
    obs_p.add_argument("--workers", type=int, default=1,
                       help="run the batched crypto on a worker pool "
                            "(telemetry merges back per worker)")
    obs_p.add_argument("--profile", action="store_true",
                       help="render the span-tree profile (per-phase and "
                            "per-worker time decomposition)")
    obs_p.add_argument("--profile-out", default=None, metavar="PATH",
                       help="write the profile snapshot as JSON to PATH")

    chaos = sub.add_parser(
        "chaos", help="run seeded chaos episodes through the differential "
                      "oracle (fault injection + HA failover)")
    chaos.add_argument("--episodes", type=int, default=100,
                       help="number of episodes to sweep (default 100)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; episode i uses seed + i")
    chaos.add_argument("--ha", choices=["both", "replicated", "quorum"],
                       default="both", help="HA modes to alternate through")
    chaos.add_argument("--steps", type=int, default=16,
                       help="scheduling slots per episode")
    chaos.add_argument("--json", action="store_true",
                       help="emit the sweep report as JSON")
    chaos.add_argument("--save-failure", default=None, metavar="PATH",
                       help="write the first failing episode (shrunk unless "
                            "--no-shrink) as a JSON reproducer")
    chaos.add_argument("--replay", default=None, metavar="PATH",
                       help="run one episode from a reproducer file instead "
                            "of sweeping")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip minimizing failing episodes")

    bench = sub.add_parser(
        "bench", help="run the wall-clock benchmark harness "
                      "(sim/perf; real seconds, not simulated)")
    bench.add_argument("--parallel", action="store_true",
                       help="sweep the multi-core round engine instead of "
                            "the scalar-vs-batched kernel comparison")
    bench.add_argument("--workers", type=_worker_list, default=(1, 2, 4, 8),
                       metavar="W1,W2,...",
                       help="worker counts to sweep with --parallel "
                            "(default 1,2,4,8)")
    bench.add_argument("--n", type=int, default=None,
                       help="database size (default: harness default)")
    bench.add_argument("--rounds", type=int, default=None,
                       help="batch rounds per measurement")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="additionally write the JSON report to PATH")

    serve = sub.add_parser(
        "serve", help="run the asyncio round-coalescing server "
                      "(repro.serve) over TCP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = pick a free port)")
    serve.add_argument("--n", type=int, default=1024,
                       help="database size")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--policy",
                       choices=["on-fill", "max-wait", "fixed-interval",
                                "randomized-interval"],
                       default="max-wait",
                       help="round-release policy (DESIGN.md §13/§14)")
    serve.add_argument("--max-wait", type=float, default=0.01,
                       help="max-wait straggler deadline in seconds")
    serve.add_argument("--interval", type=float, default=0.02,
                       help="fixed/randomized-interval base period in "
                            "seconds")
    serve.add_argument("--jitter", type=float, default=None,
                       help="randomized-interval jitter half-width in "
                            "seconds (default interval/2)")
    serve.add_argument("--partitions", type=int, default=1,
                       help="serve a hash-partitioned deployment with "
                            "this many independent proxies "
                            "(DESIGN.md §14; --n is per partition)")
    serve.add_argument("--shard-workers", type=int, default=None,
                       help="threads executing partition rounds "
                            "concurrently (default: one per partition)")
    serve.add_argument("--queue-cap", type=int, default=1024,
                       help="admission cap on pending requests "
                            "(past it requests are shed as Overloaded)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many seconds then exit "
                            "(default 0 = until interrupted)")
    serve.add_argument("--demo-load", type=float, default=0.0,
                       metavar="RATE",
                       help="drive a seeded Poisson client load at RATE "
                            "req/s against the server for --duration")
    serve.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write final serving stats as JSON to PATH")

    lint = sub.add_parser(
        "lint", help="run the oblint static-analysis suite (DESIGN.md §9)")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--allowlist", default=None, metavar="PATH",
                      help="explicit .oblint.json (default: auto-discover "
                           "by walking up from the first path)")
    lint.add_argument("--json", action="store_true",
                      help="emit the report as JSON instead of text")
    lint.add_argument("--report-out", default=None, metavar="PATH",
                      help="additionally write the JSON report to PATH "
                           "(CI uploads this as an artifact)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list every rule and exit")
    return parser


def _run_experiment(args) -> int:
    func, accepted = EXPERIMENTS[args.experiment]
    kwargs = {}
    if args.n is not None and "n" in accepted:
        kwargs["n"] = args.n
    if args.rounds is not None and "rounds" in accepted:
        kwargs["rounds"] = args.rounds
    result = func(**kwargs)
    if isinstance(result, dict):
        print(json.dumps(_jsonable(result), indent=2))
        return 0
    if args.json:
        print(json.dumps(_jsonable(result), indent=2))
    else:
        rows = [{k: v for k, v in row.items() if not isinstance(v, dict)}
                for row in result]
        print(format_table(rows, title=args.experiment))
        if getattr(args, "chart", False):
            chart = _maybe_chart(args.experiment, rows)
            if chart:
                print()
                print(chart)
    return 0


#: experiment -> (x column, y column) for the --chart rendering.
_CHART_AXES = {
    "fig2c": ("cores", "throughput_ops"),
    "fig2d": ("cache_pct", "throughput_ops"),
    "fig3a": ("batch_size", "throughput_ops"),
    "fig3b": ("real_pct", "throughput_ops"),
    "fig3c": ("fake_dummy_pct", "throughput_ops"),
    "fig3d": ("dummies_pct_of_n", "throughput_ops"),
    "fig6": ("alpha_theory", "throughput_ops"),
}


def _maybe_chart(experiment: str, rows: list[dict]) -> str | None:
    from repro.analysis.visualize import line_chart

    axes = _CHART_AXES.get(experiment)
    if not axes or not rows:
        return None
    x, y = axes
    if x not in rows[0] or y not in rows[0]:
        return None
    points = [(float(row[x]), float(row[y])) for row in rows]
    return line_chart({y: points}, title=experiment, x_label=x, y_label=y)


def _jsonable(value):
    from collections import Counter

    if isinstance(value, Counter):
        return {str(k): v for k, v in value.items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "__dict__") and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in vars(value).items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _show_bounds(args) -> int:
    if args.level is None:
        config = WaffleConfig.paper_defaults(n=args.n)
        name = "paper defaults (§8.2)"
    else:
        config = WaffleConfig.security_preset(SecurityLevel(args.level),
                                              n=args.n)
        name = f"Table 2 '{args.level}' preset"
    print(f"{name} at N={args.n}:")
    print(f"  B={config.b} R={config.r} f_D={config.f_d} "
          f"C={config.c} D={config.d}")
    print(f"  alpha (Theorem 7.1)        : {config.alpha_bound()}")
    print(f"  alpha (implementation)     : {config.alpha_bound_effective()}")
    print(f"  beta  (Theorem 7.2)        : {config.beta_bound()}")
    print(f"  security score beta/alpha  : {config.security_score():.4f}")
    print(f"  bandwidth overhead         : {config.bandwidth_overhead():.2f}x")
    return 0


def _run_audit(args) -> int:
    from repro.analysis.report import security_audit
    from repro.bench.harness import run_waffle
    from repro.sim.costmodel import CostModel
    from repro.workloads.ycsb import YcsbWorkload

    config = WaffleConfig.paper_defaults(n=args.n, seed=1)
    workload = YcsbWorkload(args.n, read_proportion=0.5,
                            uniform=args.uniform, theta=0.99,
                            value_size=256, seed=2)
    items = dict(workload.initial_records())
    trace = workload.trace(config.r * args.rounds)
    _, datastore = run_waffle(config, items, trace, CostModel(),
                              record=True, log_ids=True)
    result = security_audit(datastore)
    print(result.markdown)
    return 0 if result.passed else 1


def _run_obs(args) -> int:
    from repro import obs
    from repro.analysis.monitor import AlphaMonitor, attach_monitor
    from repro.core.batch import ClientRequest
    from repro.core.datastore import WaffleDatastore
    from repro.crypto.keys import KeyChain
    from repro.obs.dashboard import render_dashboard
    from repro.obs.export import write_prometheus
    from repro.workloads.ycsb import YcsbWorkload

    config = WaffleConfig.paper_defaults(n=args.n, seed=1)
    handle = obs.enable(trace_path=args.trace_out)
    # Attached before the datastore is built so initialization writes
    # stream into the monitor — otherwise every steady-state read would
    # look like a read of an unobserved id.
    monitor = AlphaMonitor(alpha_budget=config.alpha_bound_effective(),
                           window_rounds=args.window)
    attach_monitor(handle.tracer, monitor)

    workload = YcsbWorkload(args.n, read_proportion=0.5, theta=0.99,
                            value_size=128, seed=2)
    items = dict(workload.initial_records())
    datastore = WaffleDatastore(config, items,
                                keychain=KeyChain.from_seed(1))
    pool = None
    if args.workers > 1:
        from repro.parallel import WorkerPool, attach_pool

        # min_batch=1 so even the dashboard-sized round shape exercises
        # the pool (paper-default batches are small).
        pool = WorkerPool(args.workers, min_batch=1)
        attach_pool(datastore.proxy, pool)
    try:
        trace = workload.trace(config.r * args.rounds)
        for i in range(args.rounds):
            chunk = trace[i * config.r:(i + 1) * config.r]
            datastore.execute_batch([
                ClientRequest(op=req.op, key=req.key, value=req.value)
                for req in chunk])
    finally:
        if pool is not None:
            pool.close()

    print(render_dashboard(handle.registry, monitor=monitor))
    if args.profile:
        from repro.obs.profile import render_profile

        print(render_profile(handle.registry, handle.tracer.records))
    if args.profile_out:
        from repro.obs.profile import profile_snapshot

        with open(args.profile_out, "w", encoding="utf-8") as out:
            json.dump(profile_snapshot(handle.registry,
                                       handle.tracer.records), out, indent=2)
        print(f"profile snapshot -> {args.profile_out}")
    if args.prom_out:
        write_prometheus(handle.registry, args.prom_out)
        print(f"prometheus snapshot -> {args.prom_out}")
    if args.trace_out:
        handle.tracer.flush()
        print(f"trace jsonl -> {args.trace_out}")
    obs.disable()
    return 0


def _run_chaos(args) -> int:
    from pathlib import Path

    from repro.testing import (
        Episode,
        run_episode,
        run_sweep,
        shrink_episode,
    )

    if args.replay is not None:
        episode = Episode.from_json(Path(args.replay))
        result = run_episode(episode)
        if args.json:
            print(json.dumps({
                "ok": result.ok,
                "rounds_committed": result.rounds_committed,
                "failovers": result.failovers,
                "aborted_attempts": result.aborted_attempts,
                "violations": [vars(v) for v in result.violations],
            }, indent=2))
        else:
            print(f"episode seed {episode.seed} ({episode.ha_mode}): "
                  + ("OK" if result.ok else "FAILED"))
            for violation in result.violations:
                print(f"  {violation}")
        return 0 if result.ok else EXIT_CHAOS

    modes = (("replicated", "quorum") if args.ha == "both"
             else (args.ha,))
    report = run_sweep(episodes=args.episodes, base_seed=args.seed,
                       ha_modes=modes, steps=args.steps)
    if args.json:
        print(json.dumps({
            "episodes": report.episodes,
            "rounds_committed": report.rounds_committed,
            "failovers": report.failovers,
            "aborted_attempts": report.aborted_attempts,
            "faults_injected": report.faults_injected,
            "failures": [
                {"seed": episode.seed, "ha_mode": episode.ha_mode,
                 "violations": [vars(v) for v in violations]}
                for episode, violations in report.failures
            ],
        }, indent=2))
    else:
        print(report.describe())
    if report.ok:
        return 0
    episode, _ = report.failures[0]
    if not args.no_shrink:
        shrunk = shrink_episode(
            episode, lambda e: not run_episode(e).ok)
        episode = shrunk.episode
        print(f"first failure shrunk: {shrunk.initial_size} -> "
              f"{shrunk.final_size} operations "
              f"({shrunk.evaluations} evaluations)")
    if args.save_failure:
        episode.to_json(args.save_failure)
        print(f"reproducer -> {args.save_failure}")
    return EXIT_CHAOS


def _worker_list(text: str) -> tuple[int, ...]:
    """Parse ``"1,2,4"`` into worker counts (argparse ``type=``)."""
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid worker list {text!r}; expected e.g. 1,2,4,8") from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"worker counts must be positive integers, got {text!r}")
    return counts


def _run_bench(args) -> int:
    from repro.sim.perf import run_parallel_benchmark, run_wallclock_benchmark

    kwargs = {}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.rounds is not None:
        kwargs["rounds"] = args.rounds
    if args.parallel:
        report = run_parallel_benchmark(worker_counts=args.workers,
                                        **kwargs)
        print(f"cpu_count={report['cpu_count']}  "
              f"digests_identical={report['digests_identical']}  "
              f"shard_identical={report['shard_equivalence']['identical']}")
        for workers, row in sorted(report["measured"].items()):
            modeled = report["modeled_speedup"].get(workers)
            print(f"  workers={workers}: "
                  f"{row['rounds_per_sec']:.2f} rounds/s "
                  f"(speedup {row['speedup']:.2f}x, "
                  f"model {modeled:.2f}x)")
        for transport, row in sorted(report["transports"].items()):
            print(f"  transport={transport} @ {row['workers']} workers: "
                  f"{row['rounds_per_sec']:.2f} rounds/s "
                  f"(speedup {row['speedup']:.2f}x)")
    else:
        report = run_wallclock_benchmark(**kwargs)
        e2e = report["end_to_end"]
        print(f"end-to-end speedup "
              f"{e2e['rounds_per_sec_speedup']:.2f}x "
              f"(trace identical: "
              f"{report['trace_equivalence']['identical']})")
        for name, row in report["kernels"].items():
            print(f"  kernel {name}: {row['speedup']:.2f}x")
    if args.out:
        # No sort_keys: the parallel report keys sweep tables by integer
        # worker count, which does not sort against its string keys.
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
            handle.write("\n")
        print(f"report -> {args.out}")
    return 0


def _run_serve(args) -> int:
    import asyncio

    from repro.core.datastore import WaffleDatastore
    from repro.errors import OverloadedError
    from repro.scaleout import PartitionedWaffle
    from repro.serve import (
        AsyncFrontend,
        AsyncServeClient,
        ServeServer,
        ShardedFrontend,
    )
    from repro.serve.policy import make_policy
    from repro.workloads.openloop import PoissonArrivals
    from repro.workloads.trace import Operation
    from repro.workloads.ycsb import YcsbWorkload, key_name

    if args.demo_load > 0 and args.duration <= 0:
        print("--demo-load requires a positive --duration", file=sys.stderr)
        return EXIT_USAGE
    if args.partitions < 1:
        print("--partitions must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    config = WaffleConfig.paper_defaults(n=args.n, seed=args.seed)

    def build_policy():
        # Each partition needs its own policy instance (schedules are
        # stateful); the same seed keeps randomized grids identical
        # across partitions so the merged schedule stays single-proxy.
        return make_policy(args.policy, config.r, max_wait_s=args.max_wait,
                           interval_s=args.interval, jitter_s=args.jitter,
                           seed=args.seed)

    if args.partitions > 1:
        # --n keys per partition, hash-balanced by the shared router.
        candidates = (key_name(i)
                      for i in range(64 * args.n * args.partitions + 4096))
        keys = PartitionedWaffle.plan_partitions(
            candidates, args.n, args.partitions, master_seed=args.seed)
        items = {key: b"serve-" + key.encode() for key in keys}
        store = PartitionedWaffle(config, items, args.partitions,
                                  master_seed=args.seed)
        frontend = ShardedFrontend(store,
                                   policy_factory=lambda i: build_policy(),
                                   queue_cap=args.queue_cap,
                                   shard_workers=args.shard_workers)
        demo_keys = keys
    else:
        workload = YcsbWorkload(args.n, read_proportion=0.5, theta=0.99,
                                value_size=128, seed=args.seed)
        datastore = WaffleDatastore(config, dict(workload.initial_records()),
                                    record=False)
        frontend = AsyncFrontend(datastore, policy=build_policy(),
                                 queue_cap=args.queue_cap)
        demo_keys = [key_name(i) for i in range(args.n)]

    async def demo_client(host: str, port: int) -> dict:
        stream = PoissonArrivals(args.demo_load, len(demo_keys),
                                 seed=args.seed)
        arrivals = stream.generate(args.duration)
        key_map = {key_name(i): key for i, key in enumerate(demo_keys)}
        workers = 8
        shares = [arrivals[i::workers] for i in range(workers)]
        counts = {"completed": 0, "shed": 0}

        async def worker(share) -> None:
            async with AsyncServeClient(host, port) as client:
                for arrival in share:
                    key = key_map[arrival.key]
                    try:
                        if arrival.op is Operation.WRITE:
                            await client.put(key, b"demo-write")
                        else:
                            await client.get(key)
                    except OverloadedError:
                        counts["shed"] += 1
                    else:
                        counts["completed"] += 1

        await asyncio.gather(*(worker(share) for share in shares))
        return counts

    async def run_server() -> dict:
        async with ServeServer(frontend, args.host, args.port) as server:
            host, port = server.address
            sharding = (f", partitions={args.partitions}"
                        if args.partitions > 1 else "")
            print(f"serving on {host}:{port} "
                  f"(policy {args.policy.replace('-', '_')}, R={config.r}, "
                  f"queue cap {args.queue_cap}{sharding})")
            demo: dict = {}
            if args.demo_load > 0:
                demo = await demo_client(host, port)
            elif args.duration > 0:
                await asyncio.sleep(args.duration)
            else:  # pragma: no cover - interactive path
                try:
                    while True:
                        await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    pass
            stats = frontend.stats()
            stats["connections_total"] = server.connections_total
            stats.update(demo)
            return stats

    try:
        stats = asyncio.run(run_server())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        stats = frontend.stats()
        print()
    for key, value in stats.items():
        print(f"  {key:18s}: {value}")
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2)
            handle.write("\n")
        print(f"stats -> {args.stats_json}")
    return 0


def _run_lint(args) -> int:
    from repro.lint import default_rules, run_lint

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.severity:7s} {rule.name}: "
                  f"{rule.description}")
        return 0
    report = run_lint(args.paths, allowlist=args.allowlist)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    return 0 if report.ok else EXIT_LINT


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            func, _ = EXPERIMENTS[name]
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:22s} {doc}")
        return 0
    if args.command == "run":
        return _run_experiment(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    return _show_bounds(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
