"""Run an interactive simulated Alto: ``python -m repro``.

Boots a freshly formatted pack (or ``--demo`` for a preloaded one) and
connects your terminal to the Executive.  Every command you type runs
against the simulated disk; ``quit`` exits.  This is a convenience shell
around :class:`repro.os.AltoOS` -- everything it does is available as
library calls.

``python -m repro crashtest`` instead runs the exhaustive crash-point
sweep (see :func:`repro.disk.faults.sweep`) over one ``--scenario``:

* ``canonical`` (the default): the canonical workload is crashed at every
  sector part-write (or torn there, with ``--tear``), the Scavenger
  recovers the pack, and every recovery invariant is checked (see
  :mod:`repro.fs.check`).  With ``--cached`` the workload runs on the
  write-back :class:`~repro.disk.cache.CachedDrive`, so crashes also land
  inside flush drains and lose whatever the cache had buffered;
* ``rebalance``: the slot-shipping protocol is crashed at every write
  across both packs (see :mod:`repro.server.rebalance`);
* ``failover``: a replicated file server is killed at every sector
  part-write mid-load, the standby is promoted by replaying the journal
  tail, and every acked write is proven to survive while retries stay
  at-most-once (see :mod:`repro.server.failover`; ``--no-maintain`` drops
  the maintenance patrol).

``python -m repro bench`` runs the benchmark regression harness (see
:mod:`repro.bench`): every ``benchmarks/bench_*.py`` measure, compared
against checked-in baselines, reported as ``BENCH_PR2.json``.

``python -m repro stats`` runs a scripted session and prints the unified
metrics snapshot (see :mod:`repro.obs`); ``--trace out.json`` on the REPL,
``crashtest``, ``serve``, and ``bench`` subcommands additionally records
simulated-time spans and writes them as Chrome ``trace_event`` JSON (open
in Perfetto).  See OBSERVABILITY.md.

``python -m repro serve`` runs the file-server demo (see
:mod:`repro.server`): N simulated workstations hammer one served
FileSystem over the packet network, concurrently and then sequentially,
and the throughput/latency comparison is printed.  See SERVER.md.
"""

from __future__ import annotations

import argparse
import sys

from .disk import DiskDrive, DiskImage, diablo31
from .os import AltoOS


def build_demo(os: AltoOS) -> None:
    """Preload files that make exploring pleasant."""
    os.fs.create_file("ReadMe.txt").write_data(
        b"Welcome to the simulated Alto.\n"
        b"Try: ls, type ReadMe.txt, write note.txt some text, free,\n"
        b"     copy ReadMe.txt Copy.txt, scavenge, compact, @Demo, quit\n"
    )
    os.fs.create_file("Demo.cm").write_data(
        b"write demo-output.txt the command file ran\n"
        b"type demo-output.txt\n"
        b"free\n"
    )


def _write_repl_trace(path: str, drive) -> None:
    from .obs import write_trace

    obs = drive.clock.obs
    trace = write_trace(path, [("alto", obs.tracer)], stats=obs.stats())
    spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(f"[trace written to {path}: {spans} spans]")


def stats_cmd(argv) -> int:
    """The ``stats`` subcommand: run a session, print the unified snapshot."""
    import json as _json

    from .disk import CachedDrive

    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Run a scripted session and print the unified metrics snapshot",
    )
    parser.add_argument("--script", metavar="TEXT",
                        default="ls; write note.txt hello; type note.txt; free; scavenge",
                        help=";-separated Executive commands to run first")
    parser.add_argument("--cached", action="store_true",
                        help="run on the write-back CachedDrive")
    parser.add_argument("--serve", type=int, default=None, metavar="CLIENTS",
                        help="run a served workload with this many workstations "
                             "instead of the Executive session, so the snapshot "
                             "carries server.request_us and friends")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="with --serve: front an N-shard cluster (snapshot "
                             "is the cluster-wide merged registry view)")
    parser.add_argument("--json", action="store_true",
                        help="print the snapshot as JSON instead of a table")
    parser.add_argument("--trace", metavar="PATH",
                        help="also record spans and write a Chrome trace JSON")
    args = parser.parse_args(argv)
    if args.shards is not None and args.serve is None:
        parser.error("--shards requires --serve")

    drive = None
    if args.serve is not None:
        from .server.loadgen import LoadGenerator, build_cluster, build_system

        if args.shards is not None:
            system = build_cluster(args.serve, shards=args.shards)
        else:
            system = build_system(args.serve)
        if args.trace:
            system.clock.obs.enable_tracing()
        LoadGenerator(system).run()
        # ClusterSystem.stats() merges the router and every shard machine;
        # histogram bucket counts sum across machines, so the quantile
        # lines below are true cluster-wide percentiles.
        stats = system.stats()
    else:
        image = DiskImage(diablo31())
        drive = CachedDrive(image) if args.cached else DiskDrive(image)
        if args.trace:
            drive.clock.obs.enable_tracing()
        os = AltoOS.format(drive)
        build_demo(os)
        script = "\n".join(part.strip() for part in args.script.split(";")) + "\nquit\n"
        os.run_executive(script)
        stats = drive.clock.obs.stats()

    if args.json:
        print(_json.dumps(stats, indent=1, sort_keys=True))
    else:
        from .obs import QUANTILES, format_quantile, snapshot_histogram_names, \
            snapshot_quantiles

        table = {name: value for name, value in stats.items()
                 if ".bucket." not in name}
        width = max(len(name) for name in table)
        group = None
        for name in sorted(table):
            prefix = name.split(".", 1)[0]
            if prefix != group:
                if group is not None:
                    print()
                group = prefix
            value = table[name]
            shown = f"{value:.3f}" if isinstance(value, float) else str(value)
            print(f"  {name:<{width}}  {shown}")
        hist_names = snapshot_histogram_names(stats)
        if hist_names:
            print()
            print("  -- quantiles (log-bucket estimates, simulated us) --")
            for name in hist_names:
                quantiles = snapshot_quantiles(stats, name)
                cells = "  ".join(
                    f"{format_quantile(q)} {quantiles[format_quantile(q)]:.0f}"
                    for q in QUANTILES)
                print(f"  {name:<{width}}  {cells}")
    if args.trace and drive is not None:
        _write_repl_trace(args.trace, drive)
    elif args.trace:
        from .obs import write_trace

        trace = write_trace(args.trace, [("cluster", system.clock.obs.tracer)],
                            stats=stats, stitch=True,
                            strip_prefixes=("fileserver.",))
        spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
        print(f"[trace written to {args.trace}: {spans} spans]")
    return 0


def crashtest(argv) -> int:
    """The ``crashtest`` subcommand: sweep every crash point and verify."""
    from .disk.faults import sweep

    parser = argparse.ArgumentParser(
        prog="python -m repro crashtest",
        description="Exhaustive crash-consistency sweep: crash a scenario at "
                    "every part-write and verify recovery at each point",
    )
    parser.add_argument("--scenario", default="canonical",
                        choices=("canonical", "rebalance", "failover"),
                        help="what to crash: the canonical file-system "
                             "workload, the shard-rebalancing pack-shipping "
                             "protocol (both packs), or the replicated "
                             "primary of the failover drill")
    parser.add_argument("--seed", type=int, default=1979,
                        help="seed for pack contents, workload, and torn-write garbage")
    parser.add_argument("--cylinders", type=int, default=20,
                        help="size of the test pack (tiny_test_disk cylinders)")
    parser.add_argument("--tear", action="store_true",
                        help="tear each write (prefix + garbage, checksum ruined) "
                             "instead of crashing cleanly before it")
    parser.add_argument("--cached", action="store_true",
                        help="run the workload on the write-back CachedDrive, so "
                             "crashes also hit flush drains and buffered data is lost")
    parser.add_argument("--no-maintain", action="store_true",
                        help="failover only: run without the continuous "
                             "incremental scavenge patrol on the primary")
    parser.add_argument("--points", metavar="N[,N...]",
                        help="sweep only these crash points (default: all)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every crash point as it is checked")
    parser.add_argument("--trace", metavar="PATH",
                        help="record spans from every clock in the sweep and "
                             "write one merged Chrome trace JSON")
    args = parser.parse_args(argv)

    if args.scenario == "failover" and (args.tear or args.cached):
        parser.error("--tear and --cached do not apply to --scenario failover")
    if args.scenario != "failover" and args.no_maintain:
        parser.error("--no-maintain applies only to --scenario failover")
    points = None
    if args.points:
        try:
            points = [int(p) for p in args.points.split(",")]
        except ValueError:
            parser.error(f"--points expects integers, got {args.points!r}")

    if args.trace:
        from .obs import runtime as obs_runtime

        obs_runtime.enable_trace_all()
    if args.scenario == "failover":
        from .server.failover import FailoverScenario

        scenario = FailoverScenario(args.seed, args.cylinders,
                                    maintain=not args.no_maintain)
    elif args.scenario == "rebalance":
        from .server.rebalance import ShippingScenario

        scenario = ShippingScenario(args.seed, args.cylinders, args.cached)
    else:
        from .fs.check import canonical_scenario

        scenario = canonical_scenario(args.seed, args.cylinders, args.cached)

    def narrate(report):
        print(f"  {report}  ({report.crash_reason})")

    try:
        result = sweep(scenario, points=points, tear=args.tear,
                       on_point=narrate if args.verbose else None)
    except (ValueError, RuntimeError) as exc:
        # A crash point outside 1..total, or a clean run that fails.
        parser.error(str(exc))
    if args.trace:
        import json as _json

        trace = obs_runtime.collect_trace()
        obs_runtime.disable_trace_all()
        with open(args.trace, "w", encoding="utf-8") as handle:
            _json.dump(trace, handle, indent=1, sort_keys=True)
            handle.write("\n")
        spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
        print(f"[trace written to {args.trace}: {spans} spans]")
    print(result.summary())
    for failure in result.failures:
        print(f"FAIL {failure}")
    if result.failures:
        flags = [flag for flag, on in (("--tear", args.tear),
                                       ("--cached", args.cached),
                                       ("--no-maintain", args.no_maintain)) if on]
        print(f"replay one point with: python -m repro crashtest "
              f"--scenario {args.scenario} --seed {args.seed} "
              f"{' '.join(flags + ['--points <N> -v'])}")
    return 0 if result.ok else 1


def serve_cmd(argv) -> int:
    """The ``serve`` subcommand: run the file-server load demo."""
    import json as _json

    from .server.loadgen import LoadGenerator, build_cluster, build_system

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="File-server demo: N workstations against one served pack",
    )
    parser.add_argument("--clients", type=int, default=8,
                        help="simulated workstations (default 8)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="serve from an N-shard cluster behind the hash "
                             "router instead of one server (each shard is its "
                             "own pack on its own simulated machine)")
    parser.add_argument("--seed", type=int, default=1979,
                        help="seed for every client's workload data")
    parser.add_argument("--file-bytes", type=int, default=2048,
                        help="approximate size of each client's file")
    parser.add_argument("--read-rounds", type=int, default=2,
                        help="times each client reads its file back")
    parser.add_argument("--uncached", action="store_true",
                        help="serve from the plain drive (no write-back cache)")
    parser.add_argument("--sequential-only", action="store_true",
                        help="skip the concurrent run")
    parser.add_argument("--concurrent-only", action="store_true",
                        help="skip the sequential baseline")
    parser.add_argument("--json", action="store_true",
                        help="print results as JSON instead of a table")
    parser.add_argument("--trace", metavar="PATH",
                        help="record request spans and write a Chrome trace JSON")
    args = parser.parse_args(argv)

    def run(mode: str):
        if args.shards is not None:
            system = build_cluster(args.clients, shards=args.shards,
                                   seed=args.seed, cached=not args.uncached)
        else:
            system = build_system(args.clients, cached=not args.uncached)
        if args.trace:
            system.clock.obs.enable_tracing()
            if args.shards is not None:
                for shard in system.shards:
                    shard.clock.obs.enable_tracing()
        generator = LoadGenerator(system, seed=args.seed,
                                  file_bytes=args.file_bytes,
                                  read_rounds=args.read_rounds)
        result = generator.run() if mode == "concurrent" else generator.run_sequential()
        return system, result

    results = []
    trace_system = None
    if not args.sequential_only:
        trace_system, concurrent = run("concurrent")
        results.append(concurrent)
    if not args.concurrent_only:
        _, sequential = run("sequential")
        results.append(sequential)

    if args.json:
        print(_json.dumps([r.to_json() for r in results], indent=1))
    else:
        for r in results:
            print(f"{r.mode}: {r.clients} clients, {r.requests} requests, "
                  f"{r.errors} errors")
            print(f"  simulated {r.elapsed_s:.3f}s   {r.requests_per_sec:.2f} req/s   "
                  f"p50 {r.p50_ms:.2f}ms   p99 {r.p99_ms:.2f}ms")
            print(f"  retries {r.retries}  busy-retries {r.busy_retries}  "
                  f"rejected {r.rejected}  flushes {r.flushes}")
        if args.shards is not None and trace_system is not None:
            shares = [int(s.stats().get("server.requests", 0))
                      for s in trace_system.shards]
            print(f"shard request shares: {shares} "
                  f"(map epoch {trace_system.router.shard_map.epoch})")
        if len(results) == 2 and results[0].elapsed_s > 0:
            speedup = results[1].elapsed_s / results[0].elapsed_s
            print(f"concurrent multiplexing speedup: x{speedup:.2f} "
                  f"(one batched flush per poll, "
                  f"{results[1].flushes} -> {results[0].flushes} flushes)")
    if args.trace and trace_system is not None:
        if args.shards is not None:
            from .obs import write_trace

            # One process lane per simulated machine -- router front (with
            # per-client tracks) plus every shard -- stitched into causal
            # per-request traces by trace_id flow events.  The router
            # addresses clients through fileserver.<client> proxy hosts;
            # stripping the prefix folds both views of a request into one
            # trace id.
            tracers = [("router", trace_system.clock.obs.tracer)]
            tracers += [(shard.host, shard.clock.obs.tracer)
                        for shard in trace_system.shards]
            trace = write_trace(args.trace, tracers,
                                stats=trace_system.stats(), stitch=True,
                                strip_prefixes=("fileserver.",))
            spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
            flows = sum(1 for e in trace["traceEvents"]
                        if e.get("ph") in ("s", "t", "f"))
            print(f"[trace written to {args.trace}: {spans} spans, "
                  f"{flows} flow steps]")
        else:
            _write_repl_trace(args.trace, trace_system.fs.drive)
    return 0


def top_cmd(argv) -> int:
    """The ``top`` subcommand: live latency dashboard over a serve run."""
    from .obs.top import TopDashboard
    from .server.loadgen import LoadGenerator, build_cluster, build_system

    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live text dashboard: request latency quantiles and "
                    "server counters, refreshed while a loadgen run is in "
                    "flight",
    )
    parser.add_argument("--clients", type=int, default=8,
                        help="simulated workstations (default 8)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="drive an N-shard cluster instead of one server")
    parser.add_argument("--seed", type=int, default=1979,
                        help="seed for every client's workload data")
    parser.add_argument("--read-rounds", type=int, default=2,
                        help="times each client reads its file back")
    parser.add_argument("--interval", type=int, default=25, metavar="REQS",
                        help="completed requests between refreshes (default 25)")
    parser.add_argument("--once", action="store_true",
                        help="non-interactive: render exactly one frame at the "
                             "end of the run (the CI smoke mode)")
    args = parser.parse_args(argv)

    if args.shards is not None:
        system = build_cluster(args.clients, shards=args.shards, seed=args.seed)
        title = f"repro top -- {args.shards}-shard cluster, {args.clients} clients"
    else:
        system = build_system(args.clients)
        title = f"repro top -- 1 server, {args.clients} clients"
    dashboard = TopDashboard(system.stats, interval=args.interval,
                             live=not args.once and sys.stdout.isatty(),
                             title=title)
    generator = LoadGenerator(system, seed=args.seed,
                              read_rounds=args.read_rounds)
    result = generator.run(progress=None if args.once else dashboard.tick)
    dashboard.refresh()
    print(f"run complete: {result.requests} requests in "
          f"{result.elapsed_s:.3f} simulated seconds "
          f"({result.requests_per_sec:.1f} req/s), "
          f"p99 {result.p99_hist_ms:.2f}ms")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "crashtest":
        return crashtest(argv[1:])
    if argv and argv[0] == "serve":
        return serve_cmd(argv[1:])
    if argv and argv[0] == "stats":
        return stats_cmd(argv[1:])
    if argv and argv[0] == "top":
        return top_cmd(argv[1:])
    if argv and argv[0] == "bench":
        from .bench import main as bench_main

        return bench_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive Executive on a simulated Alto (SOSP 1979 reproduction)",
    )
    parser.add_argument("--demo", action="store_true", help="preload demo files")
    parser.add_argument(
        "--script", metavar="TEXT",
        help="run these ;-separated commands instead of reading stdin",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record simulated-time spans and write a Chrome trace JSON on exit",
    )
    args = parser.parse_args(argv)

    image = DiskImage(diablo31())
    drive = DiskDrive(image)
    if args.trace:
        drive.clock.obs.enable_tracing()
    os = AltoOS.format(drive)
    if args.demo:
        build_demo(os)

    print(f"Alto OS reproduction -- {image.shape.name}, "
          f"{os.fs.free_pages()} free pages.  'quit' to exit.")

    if args.script is not None:
        script = "\n".join(part.strip() for part in args.script.split(";")) + "\nquit\n"
        before = len(os.display.text())
        output = os.run_executive(script)
        print(output)
        print(f"[simulated time: {drive.clock.now_s:.1f}s, "
              f"{drive.stats.commands} disk commands]")
        if args.trace:
            _write_repl_trace(args.trace, drive)
        return 0

    while True:
        try:
            line = input("> ")
        except (EOFError, KeyboardInterrupt):
            print()
            if args.trace:
                _write_repl_trace(args.trace, drive)
            return 0
        scrolled_before = os.display.scrolled
        snapshot = os.display.text()
        os.executive.execute(line)
        after = os.display.text()
        # Print only what the command added to the display.
        if after.startswith(snapshot) and os.display.scrolled == scrolled_before:
            sys.stdout.write(after[len(snapshot):])
        else:
            sys.stdout.write(after + "\n")
        sys.stdout.flush()
        if not line.strip().lower().startswith("quit") and line.strip().lower() != "quit":
            continue
        if args.trace:
            _write_repl_trace(args.trace, drive)
        return 0


if __name__ == "__main__":
    sys.exit(main())
