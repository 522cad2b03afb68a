"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 20 --trace 0

A run repeats *rounds* of the workload -- each a fresh machine room set up
from ``--seed`` and driven through one measured window -- until
``--seconds`` of host time have passed.  Host metrics are medians over
the rounds; simulated metrics must come out identical in every round
(the run is not correct otherwise), so they are read from the first.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with the span recorder of ``tracing.py`` wrapped
around every layer's entry points, prints the per-layer metrics of the
last traced round plus the tracing overhead, and writes that round's
spans to ``perfbench/out/``.  The last line of standard output is
always the JSON result; the exit status is 2 when the run could not
start (bad arguments, or no ``src/repro`` next to this directory).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Fewest rounds a run makes, whatever ``--seconds`` says.
MIN_ROUNDS = 3

#: The deterministic, simulated-clock end-to-end metrics.
SIM_METRICS = ("sim_p50_ms", "sim_p99_ms", "sim_max_ms", "sim_ops_per_s",
               "sim_capacity_rps")

UNITS = {
    "setup_s": "s", "host_s": "s", "host_ops_per_s": "1/s",
    "sim_p50_ms": "ms", "sim_p99_ms": "ms", "sim_max_ms": "ms",
    "sim_ops_per_s": "1/s", "sim_capacity_rps": "1/s", "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SOURCE}")


class RoundResult:
    """What one round measured."""

    def __init__(self, workload, setup_s: float, host_s: float,
                 before: dict, after: dict) -> None:
        self.workload = workload
        self.setup_s = setup_s
        self.host_s = host_s
        self.before = before
        self.after = after
        self.sim = {name: workload.sim.get(name, 0.0) for name in SIM_METRICS}
        self.sim["sim_samples"] = workload.sim.get("sim_samples", 0)
        #: Set on a run's first round only (see :func:`run_rounds`).
        self.peak_rss_mb = None

    @property
    def tally(self):
        return self.workload.tally


def run_round(cls, seed: int, recorder=None) -> RoundResult:
    """Set up, drive one window (traced when *recorder* is given), verify."""
    gc.collect()
    workload = cls(seed)
    started = perf_counter()
    workload.setup()
    set_up = perf_counter()
    before = workload.stats()
    if recorder is None:
        opened = perf_counter()
        workload.drive()
        host_s = perf_counter() - opened
    else:
        recorder.reset()
        recorder.recording = True
        try:
            recorder.run("driver", "drive", workload.drive)
        finally:
            recorder.recording = False
        # The window is the driver's root span, which closed last.
        root = recorder.spans[-1]
        host_s = root[5] - root[4]
    after = workload.stats()
    workload.verify()
    return RoundResult(workload, set_up - started, host_s, before, after)


def run_rounds(cls, seed: int, until: float, minimum: int, recorder=None):
    rounds = []
    while len(rounds) < minimum or perf_counter() < until:
        rounds.append(run_round(cls, seed, recorder))
        if len(rounds) == 1:
            # Memory of one machine room, read before later rounds can
            # add the program's own cross-round caches to it.
            rounds[0].peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return rounds


def outcome(rounds, problems):
    """``(correct, attempted, failed)`` over every round."""
    attempted = sum(r.tally.attempted for r in rounds)
    failed = sum(r.tally.failed for r in rounds)
    merged = {}
    for r in rounds:
        for check, count in r.tally.problems.items():
            merged[check] = merged.get(check, 0) + count
    for check, count in sorted(merged.items()):
        problems.append(f"check failed: {check} x{count}")
    if any(r.sim != rounds[0].sim for r in rounds):
        problems.append("simulated results differ between rounds of one seed")
    return not problems, attempted, failed


def end_to_end(rounds):
    first = rounds[0]
    values = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "host_s": statistics.median(r.host_s for r in rounds),
        "host_ops_per_s": statistics.median(
            r.tally.completed / r.host_s for r in rounds),
    }
    values.update({name: first.sim[name] for name in SIM_METRICS})
    values["peak_rss_mb"] = first.peak_rss_mb
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


def per_layer(cls, seed: int, seconds: float, started: float, problems):
    """Untraced rounds, then traced ones; the last traced round reports."""
    import tracing

    plain = run_rounds(cls, seed, started + seconds / 2, 2)
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        traced = run_rounds(cls, seed, started + seconds, 2, recorder)
    finally:
        recorder.uninstall()
    if any(r.sim != plain[0].sim for r in traced):
        problems.append("tracing changed the simulated results")
    last = traced[-1]
    delta = tracing.window_delta(last.before, last.after)
    metrics = tracing.layer_metrics(recorder, delta, last.host_s,
                                    last.workload)
    metrics["trace.overhead"] = (statistics.median(r.host_s for r in traced)
                                 / statistics.median(r.host_s for r in plain))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{cls.name}-seed{seed}-spans.csv.gz"
    count = recorder.write(path)
    print(f"{count} spans of the last traced round written to "
          f"{path.relative_to(ROOT)}")
    units = {name: layer_unit(name) for name in metrics}
    return plain + traced, {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or name.endswith("_ms_per_slice"):
        return "ms"
    if name.endswith(("_ratio", "_share", "overhead")) or "_per_" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = perf_counter()
    problems = []
    if args.trace:
        rounds, metrics = per_layer(cls, args.seed, args.seconds, started,
                                    problems)
    else:
        rounds = run_rounds(cls, args.seed, started + args.seconds,
                            MIN_ROUNDS)
        metrics = end_to_end(rounds)
    correct, attempted, failed = outcome(rounds, problems)
    print(f"{cls.name}: seed {args.seed}, {len(rounds)} rounds, "
          f"{rounds[0].sim['sim_samples']} latency samples per round")
    for problem in problems:
        print(f"  {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
