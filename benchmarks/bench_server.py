"""E12 -- File-server throughput under concurrent multiplexed load.

Not a paper claim with a number attached: section 5.2 reports that the
file-server configuration of the OS serves many workstations from one
machine, and the claim worth pinning is *structural* -- multiplexing N
clients through the event-driven engine must beat serving the same N
workloads to completion one client at a time, because the engine drains
all admitted writes through the elevator scheduler in one batched flush
per poll cycle and amortises its per-wakeup CPU charge.

Rows measure requests/sec and p50/p99 request latency at 1, 8, and 64
simulated clients (smoke profile: 1 and 8).  Baselines are exact: the
whole run is simulated time derived from one seed.
"""

from repro.server.loadgen import LoadGenerator, build_system

from paper import report

SEED = 1979

#: (clients, file_bytes, read_rounds) per scale row; small files at 64
#: clients keep the full profile's wall time reasonable.
SCALES = {
    1: (1, 2048, 2),
    8: (8, 2048, 2),
    64: (64, 1024, 1),
}


def serve_load(clients: int, sequential: bool = False):
    """Run the standard load at *clients* scale; returns the LoadResult."""
    n, file_bytes, read_rounds = SCALES[clients]
    system = build_system(n)
    generator = LoadGenerator(system, seed=SEED, file_bytes=file_bytes,
                              read_rounds=read_rounds)
    return generator.run_sequential() if sequential else generator.run()


def _row(result, suffix: str = ""):
    name = f"E12.server_{result.mode}_{result.clients}c{suffix}"
    return report(
        "E12",
        "(sec 5.2) one file server multiplexes many workstations",
        f"{result.clients} clients {result.mode}: "
        f"{result.requests_per_sec:.2f} req/s, "
        f"p50 {result.p50_ms:.2f}ms, p99 {result.p99_ms:.2f}ms, "
        f"{result.flushes} flushes",
        name=name,
        simulated_seconds=result.elapsed_s,
        cached=True,
        requests_per_sec=result.requests_per_sec,
        p50_ms=result.p50_ms,
        p99_ms=result.p99_ms,
        requests=result.requests,
        flushes=result.flushes,
        retries=result.retries,
        rejected=result.rejected,
    )


def test_concurrent_beats_sequential_at_scale():
    """64 concurrent clients must finish strictly faster (higher aggregate
    req/s) than the same 64 workloads served sequentially -- the batched
    flush per poll is the mechanism, visible in the flush counts."""
    concurrent = serve_load(64)
    sequential = serve_load(64, sequential=True)
    assert concurrent.errors == sequential.errors == 0
    assert concurrent.requests == sequential.requests
    assert concurrent.requests_per_sec > sequential.requests_per_sec
    assert concurrent.flushes < sequential.flushes


def test_served_load_is_deterministic():
    """Same seed and schedule: identical request counts, simulated time,
    and latency distribution."""
    first = serve_load(8)
    second = serve_load(8)
    assert first.to_json() == second.to_json()
    assert first.latencies_ms == second.latencies_ms


def bench(profile: str = "full"):
    """Structured entries for ``python -m repro bench``."""
    results = []
    scales = (1, 8) if profile == "smoke" else (1, 8, 64)
    for clients in scales:
        results.append(_row(serve_load(clients)))
    # The structural claim: at the largest scale, the sequential baseline
    # for the same workloads, so the report shows what multiplexing buys.
    top = scales[-1]
    sequential = serve_load(top, sequential=True)
    results.append(_row(sequential))
    concurrent_rps = results[-2].metrics["requests_per_sec"]
    assert concurrent_rps > sequential.requests_per_sec, (
        f"concurrent {concurrent_rps} req/s not above sequential "
        f"{sequential.requests_per_sec} req/s at {top} clients")
    return results
