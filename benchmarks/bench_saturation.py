"""E15 -- Saturation: open-loop offered load vs measured p50/p99.

The closed-loop load generator (E12/E13) cannot see saturation: every
client waits for its response before issuing again, so offered load
politely falls to whatever the server can do -- the coordinated-omission
trap.  ``LoadGenerator.run_open_loop`` instead draws a Poisson arrival
schedule up front and measures each request's latency **from its
scheduled arrival time**: when a station is still busy as its next
arrival falls due, the wait to even get on the wire counts.

Swept against a 4-shard cluster serving 1-page cached READs, the curve
has the classic shape this bench pins: latency is flat and low while the
offered rate is below cluster capacity (~1780 req/s with 8 stations --
up from ~1030 before the router stopped double-charging the response
relay to the producing shard's link; see E17 in EXPERIMENTS.md), and
past the knee the backlog grows without bound -- p99 is then set by the
*length of the run*, not the service time, roughly doubling with every
doubling of offered load.  The percentiles come from the
``loadgen.request_us`` log-bucket histogram (cross-checked against the
raw latency list inside the generator itself).
"""

from repro.server.loadgen import LoadGenerator, build_cluster

from paper import report

SEED = 1979
CLIENTS = 8
SHARDS = 4
DURATION_S = 1.0

#: Offered rates (req/s) per profile: the smoke sweep brackets the knee
#: with one point each side; the full sweep shows the whole curve.
SMOKE_RATES = (200, 1600, 6400)
FULL_RATES = (200, 400, 800, 1600, 3200, 6400)

#: Below this offered rate the cluster must keep up (achieved ~= offered).
BELOW_KNEE_RPS = 1600


def saturation_point(rate: float):
    """One open-loop run at *rate* req/s against the standard cluster."""
    system = build_cluster(CLIENTS, shards=SHARDS, seed=SEED)
    generator = LoadGenerator(system, seed=SEED)
    return generator.run_open_loop(rate, DURATION_S)


def _row(result, rate: int):
    return report(
        "E15",
        "(sec 5.2) offered load vs latency: the saturation curve",
        f"{rate} req/s offered at {SHARDS} shards: "
        f"achieved {result.requests_per_sec:.1f} req/s, "
        f"p50 {result.p50_hist_ms:.2f}ms, p99 {result.p99_hist_ms:.2f}ms",
        name=f"E15.saturation_{rate}rps",
        simulated_seconds=result.elapsed_s,
        cached=True,
        offered_rps=rate,
        achieved_rps=result.requests_per_sec,
        p50_ms=result.p50_hist_ms,
        p99_ms=result.p99_hist_ms,
        requests=result.requests,
        errors=result.errors,
    )


def test_below_knee_keeps_up_and_stays_fast():
    result = saturation_point(200)
    assert result.errors == 0
    # Achieved tracks offered within the rounding of a finite window.
    assert abs(result.requests_per_sec - 200) / 200 < 0.10
    assert result.p99_hist_ms < 50


def test_past_knee_p99_explodes():
    below = saturation_point(1600)
    above = saturation_point(6400)
    assert above.errors == below.errors == 0
    # Past capacity the backlog grows for the whole window: p99 is two
    # orders of magnitude above the uncongested tail.
    assert above.p99_hist_ms > below.p99_hist_ms * 10
    # ... while achieved throughput caps at cluster capacity.
    assert above.requests_per_sec < 6400 * 0.5


def test_open_loop_is_deterministic():
    first = saturation_point(400)
    second = saturation_point(400)
    assert first.to_json() == second.to_json()


def bench(profile: str = "full"):
    """Structured entries for ``python -m repro bench``."""
    rates = SMOKE_RATES if profile == "smoke" else FULL_RATES
    results = []
    by_rate = {}
    for rate in rates:
        result = saturation_point(rate)
        by_rate[rate] = result
        results.append(_row(result, rate))
    p99s = [by_rate[rate].p99_hist_ms for rate in rates]
    assert all(later >= earlier for earlier, later in zip(p99s, p99s[1:])), (
        f"p99 must grow with offered load, got {p99s}")
    assert p99s[-1] > p99s[0] * 10, (
        f"the sweep never saturated: p99 went {p99s[0]} -> {p99s[-1]}ms")
    for rate, result in by_rate.items():
        assert result.errors == 0, f"open-loop run at {rate} req/s saw errors"
        if rate <= BELOW_KNEE_RPS:
            assert abs(result.requests_per_sec - rate) / rate < 0.10, (
                f"below the knee the cluster must keep up: offered {rate}, "
                f"achieved {result.requests_per_sec}")
    return results
