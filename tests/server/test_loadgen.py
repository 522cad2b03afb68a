"""Load-generator tests: determinism and the concurrency win.

The acceptance bar for the server subsystem: two runs from the same seed
and schedule produce a byte-identical disk image and an identical metrics
snapshot, and multiplexing N clients beats serving them sequentially.
"""

import contextlib
import hashlib
from unittest import mock

import pytest

from repro.server import FileClient
from repro.server.loadgen import (
    LoadGenerator,
    build_cluster,
    build_system,
    percentile,
    run_session_storm,
)


def run_load(mode="concurrent", clients=6, seed=5):
    system = build_system(clients=clients, tiny=True)
    generator = LoadGenerator(system, seed=seed, file_bytes=700, read_rounds=1)
    result = generator.run() if mode == "concurrent" else generator.run_sequential()
    return system, result


def images_identical(img_a, img_b):
    for s1, s2 in zip(img_a.sectors(), img_b.sectors()):
        if (s1.header.pack() != s2.header.pack()
                or s1.label.pack() != s2.label.pack()
                or list(s1.value) != list(s2.value)):
            return False
    return True


def test_served_runs_are_deterministic():
    system_a, result_a = run_load()
    system_b, result_b = run_load()
    assert result_a.to_json() == result_b.to_json()
    assert result_a.latencies_ms == result_b.latencies_ms
    assert system_a.clock.now_us == system_b.clock.now_us
    assert system_a.clock.obs.stats() == system_b.clock.obs.stats()
    system_a.fs.flush()
    system_b.fs.flush()
    assert images_identical(system_a.fs.drive.image, system_b.fs.drive.image)


def test_different_seeds_diverge():
    system_a, result_a = run_load(seed=5)
    system_b, result_b = run_load(seed=6)
    assert result_a.to_json() != result_b.to_json()
    system_a.fs.flush()
    system_b.fs.flush()
    assert not images_identical(system_a.fs.drive.image, system_b.fs.drive.image)


def test_concurrent_beats_sequential():
    _, concurrent = run_load("concurrent")
    _, sequential = run_load("sequential")
    assert concurrent.errors == sequential.errors == 0
    assert concurrent.requests == sequential.requests
    assert concurrent.requests_per_sec > sequential.requests_per_sec
    assert concurrent.flushes < sequential.flushes


def test_served_files_verify_after_the_run():
    system, result = run_load()
    assert result.errors == 0
    names = [n for n in system.fs.list_files() if n.startswith("load")]
    assert len(names) == len(system.clients)
    for name in names:
        data = system.fs.open_file(name).read_data()
        assert 700 <= len(data) < 700 + 256             # seeded size window


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 51.0
    assert percentile(values, 0.99) == 99.0


def test_sequential_latencies_are_lower_but_wall_time_higher():
    """The tradeoff the benchmark reports: sequential requests see an idle
    server (low p50) but the aggregate run takes longer."""
    _, concurrent = run_load("concurrent")
    _, sequential = run_load("sequential")
    assert sequential.p50_ms <= concurrent.p50_ms
    assert sequential.elapsed_s > concurrent.elapsed_s


def test_histogram_and_list_percentiles_both_reported():
    """Satellite of the telemetry PR: the loadgen's raw-list percentiles
    and the ``loadgen.request_us`` registry histogram are reported side
    by side, and ``_result`` asserts they agree within one log bucket."""
    _, result = run_load()
    assert result.p50_hist_ms > 0
    assert result.p99_hist_ms >= result.p50_hist_ms
    # The histogram estimate never undershoots the true nearest-rank and
    # overshoots by at most a bucket width (12.5% at SUB_BUCKET_BITS=3).
    assert result.p99_hist_ms <= result.p99_ms * 1.126


def test_check_quantile_agreement_rejects_a_drifted_histogram():
    import pytest

    from repro.obs import Histogram
    from repro.server.loadgen import check_quantile_agreement

    hist = Histogram("h")
    for value in (100, 200, 400):
        hist.observe(value)
    assert check_quantile_agreement([100, 200, 400], hist, 0.5) >= 200
    hist.observe(10_000)  # histogram no longer matches the list
    with pytest.raises(AssertionError):
        check_quantile_agreement([100, 200, 400], hist, 1.0)


def test_open_loop_below_capacity_completes_everything():
    system = build_system(clients=4, tiny=True)
    result = LoadGenerator(system, seed=7).run_open_loop(100, 0.5)
    assert result.errors == 0
    assert result.mode == "open-loop" and result.requests > 0
    assert abs(result.requests_per_sec - 100) / 100 < 0.25
    assert result.p50_hist_ms > 0


def test_open_loop_is_deterministic_on_one_server():
    def run():
        system = build_system(clients=4, tiny=True)
        return LoadGenerator(system, seed=7).run_open_loop(100, 0.5)

    assert run().to_json() == run().to_json()


# -- Literal pins: every driving mode, end to end ----------------------------
#
# Each case runs one mode on a small seeded system and pins its final
# simulated clock, request and error counts, a digest of the sorted
# client-observed latencies (first send -> matched response, every
# request the stations made), the poll counts and the pack digest.  Any
# change to how the load generator drives the stations shows up here.


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


@contextlib.contextmanager
def _service_latencies():
    """Record ``now - first_sent_us`` for every response a station gets."""
    samples = []
    step = FileClient.step

    def recording_step(self, pending):
        response = step(self, pending)
        if response is not None:
            samples.append(self.clock.now_us - pending.first_sent_us)
        return response

    with mock.patch.object(FileClient, "step", recording_step):
        yield samples


def _fingerprint(system, result, samples):
    now_us = system.clock.now_us
    stats = system.stats()
    packs = []
    for fs in ([shard.fs for shard in system.shards]
               if hasattr(system, "shards") else [system.fs]):
        fs.flush()
        packs.append(fs.drive.image.digest())
    return (now_us, result.requests, result.errors, _digest(sorted(samples)),
            int(stats.get("server.polls", 0)),
            int(stats.get("router.polls", 0)), _digest(packs))


def _closed(mode, system):
    generator = LoadGenerator(system, seed=5, file_bytes=700, read_rounds=1)
    return generator.run() if mode == "concurrent" else generator.run_sequential()


def _open(system):
    return LoadGenerator(system, seed=7).run_open_loop(100, 0.5)


def _storm(system):
    return run_session_storm(clients=256, shared_files=8, system=system)


PIN_CASES = {
    "concurrent": (lambda: build_system(6, tiny=True),
                   lambda s: _closed("concurrent", s)),
    "sequential": (lambda: build_system(6, tiny=True),
                   lambda s: _closed("sequential", s)),
    "open-loop": (lambda: build_system(4, tiny=True), _open),
    "storm": (lambda: build_system(256, tiny=True), _storm),
    "cluster-concurrent": (lambda: build_cluster(6, shards=4, tiny=True),
                           lambda s: _closed("concurrent", s)),
    "cluster-sequential": (lambda: build_cluster(6, shards=4, tiny=True),
                           lambda s: _closed("sequential", s)),
    "cluster-open-loop": (lambda: build_cluster(4, shards=4, tiny=True),
                          _open),
}


def pin_case(name):
    build, run = PIN_CASES[name]
    system = build()
    with _service_latencies() as samples:
        result = run(system)
    assert all(client.pump is None for client in system.clients), (
        f"{name} left a station's pump bound to the server")
    return _fingerprint(system, result, samples)


#: (clock.now_us, requests, errors, latency digest, server.polls,
#: router.polls, pack digest) per case.  A concurrent run ends in the
#: round its last response lands: no trailing idle poll, no final wait.
PINS = {
    "concurrent": (2213844, 48, 0, "46d8b6a2fe995279", 8, 0,
                   "e3c581295a17d14e"),
    "sequential": (2877999, 48, 0, "86b214a0c715d45d", 48, 0,
                   "28dba9d59cef1a8e"),
    "open-loop": (1901468, 53, 0, "b60d9b95f8b4e426", 109, 0,
                  "546dac9022963736"),
    "storm": (3232275, 512, 0, "15f7822e8092062a", 32, 0,
              "806d5c15b83c40bf"),
    "cluster-concurrent": (1083932, 48, 0, "30d6faa6b19f6cd9", 32, 8,
                           "eb64c84137f74918"),
    "cluster-sequential": (2838331, 48, 0, "de102b30614035ec", 66, 48,
                           "00a1fbcf2066567d"),
    "cluster-open-loop": (1881666, 53, 0, "af04d48ccd8742ab", 69, 109,
                          "5160e54b9bb8b7f6"),
}


#: (p50_ms, p99_ms, p50_hist_ms, p99_hist_ms) of the one-server open loop.
PIN_OPEN_PERCENTILES = (2.342, 6.311, 2.559, 6.464)


@pytest.mark.parametrize("name", sorted(PINS))
def test_driving_mode_is_pinned(name):
    assert pin_case(name) == PINS[name]


def test_open_loop_percentiles_are_pinned():
    """The open loop measures from each arrival's scheduled time, which
    the service-latency digest above does not see."""
    result = _open(build_system(4, tiny=True))
    assert (result.p50_ms, result.p99_ms,
            result.p50_hist_ms, result.p99_hist_ms) == PIN_OPEN_PERCENTILES


def test_storm_wakeups_are_pinned():
    assert _storm(build_system(256, tiny=True)).wakeups == 536
