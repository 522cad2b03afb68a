"""The benchmark's own guards: determinism, output checks, one clock.

Run with ``python3 -m pytest perfbench`` from the checkout root (about a
minute).  They drive single rounds through the same code ``run.py``
uses.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from repro.net.network import PacketNetwork
from repro.server import FileClient

HERE = Path(__file__).resolve().parent

#: Never used while the benchmark was built or tuned.
HELD_OUT_SEED = 90_210

NAMES = sorted(workloads.WORKLOADS)


def counts(metrics):
    """The per-layer metrics that are not host times."""
    return {name: value for name, value in metrics.items()
            if not name.endswith("host_self_s")
            and name not in ("fsck.host_share", "maint.host_ms_per_slice",
                             "trace.host_s")}


def traced_round(cls, seed):
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        result = run.run_round(cls, seed, recorder)
    finally:
        recorder.uninstall()
    delta = tracing.window_delta(result.before, result.after)
    return result, recorder, tracing.layer_metrics(
        recorder, delta, result.host_s, result.workload)


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_repeats_exactly(name):
    cls = workloads.WORKLOADS[name]
    plain = run.run_round(cls, 1)
    first, _, first_metrics = traced_round(cls, 1)
    second, _, second_metrics = traced_round(cls, 1)
    assert plain.sim == first.sim == second.sim
    assert plain.tally.problems == {} and plain.tally.failed == 0
    assert counts(first_metrics) == counts(second_metrics)
    assert (tracing.window_delta(plain.before, plain.after)
            == tracing.window_delta(first.before, first.after))


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_passes_every_check(name):
    result = run.run_round(workloads.WORKLOADS[name], HELD_OUT_SEED)
    assert result.tally.problems == {}
    assert result.tally.failed == 0 and result.tally.attempted > 0
    assert result.sim["sim_samples"] >= 1000


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_the_traced_window(name):
    result, recorder, metrics = traced_round(workloads.WORKLOADS[name], 3)
    total = sum(metrics[f"{layer}.host_self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(result.host_s, rel=1e-9)
    assert metrics["trace.host_s"] == result.host_s
    assert recorder.spans and all(s[1] < s[0] for s in recorder.spans)
    if name == "maint-patrol":
        busiest = max(tracing.LAYERS, key=lambda l: metrics[f"{l}.host_self_s"])
        assert busiest == "fsck"
    else:
        assert metrics["fsck.calls"] == 0
    if name == "read-hot":
        assert metrics["disk.host_self_s"] < 0.01 * result.host_s


@pytest.mark.parametrize("name", NAMES)
def test_every_latency_is_read_from_the_serving_clock(name):
    workload = workloads.WORKLOADS[name](1)
    workload.setup()
    assert workload.tally.problems == {}
    stray = PacketNetwork()         # a wire with a clock of its own
    stray.attach("stray")
    workload.check_one_clock([FileClient(stray, "stray")])
    assert workload.tally.problems == {"one-clock": 1}


def test_untraced_run_never_loads_the_recorder():
    code = ("import sys, run; run.load_program(); import workloads; "
            "run.run_round(workloads.ReadHot, 1); "
            "print('tracing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rounds = [run.run_round(workloads.MaintPatrol, 1)]
    rounds[0].peak_rss_mb = 1.0
    e2e = run.end_to_end(rounds)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in e2e.items()}
    _, _, metrics = traced_round(workloads.MaintPatrol, 1)
    metrics["trace.overhead"] = 1.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in metrics}
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
