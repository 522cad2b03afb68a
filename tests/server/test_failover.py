"""The failover drill: kill the primary mid-load, lose nothing acked.

The exhaustive sweep (every part-write a crash point) is the CLI's and
CI's job -- ``python -m repro crashtest --scenario failover``.  Here the
drill is pinned at test speed: the clean run, a handful of representative
crash points (early, mid-stream, late), and the CLI plumbing itself.
"""

import pytest

from repro.disk import FaultPlan, sweep
from repro.server.failover import FailoverScenario, workload_files


def test_clean_drill_acks_the_whole_workload():
    scenario = FailoverScenario()
    scenario.run(FaultPlan)
    report = scenario.verify(0, "")
    assert report.ok, report.problems
    assert report.crash_point == 0
    assert report.tail_records == 0              # nothing crashed
    assert report.promotion_us == 0
    # Every page of every workload file was acked and verified.
    pages = sum(len(data) // 512 + 1 for _, data in workload_files(1979))
    assert report.acked_pages == pages


def test_workload_is_seed_deterministic():
    assert workload_files(7) == workload_files(7)
    assert workload_files(7) != workload_files(8)


@pytest.mark.parametrize("point", [5, 45, 90])
def test_swept_crash_points_lose_no_acked_write(point):
    result = sweep(FailoverScenario(), points=[point])
    assert result.ok, result.summary()
    assert result.points_tested == 1
    report = result.reports[0]
    assert report.crash_point == point
    assert report.promotion_us > 0               # the standby was promoted
    assert not report.problems


def test_failover_cli_sweep_subsample(capsys):
    from repro.__main__ import main

    assert main(["crashtest", "--scenario", "failover",
                 "--points", "45", "-v"]) == 0
    out = capsys.readouterr().out
    assert "zero acked writes lost" in out
