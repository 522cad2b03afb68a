"""The crash-point sweep driver (repro.disk.faults.sweep).

The canonical workload, the rebalance shipping protocol and the failover
drill are all swept by the one driver, so its bookkeeping is pinned here
once for all of them: the exact number of crash points each scenario has,
the 1..total range check, the "never fired" verdict, the failing clean
run, and the write count plans share across packs.
"""

import pytest

from repro.disk import (
    CrashReport,
    CrashScenario,
    DiskDrive,
    DiskImage,
    FaultPlan,
    Label,
    count_writes,
    sweep,
    tiny_test_disk,
)
from repro.disk.faults import WriteCount
from repro.disk.sector import VALUE_WORDS
from repro.errors import PowerFailure
from repro.fs.check import canonical_scenario
from repro.server.failover import FailoverScenario
from repro.server.rebalance import ShippingScenario

SCENARIOS = {
    "canonical": canonical_scenario,
    "canonical-cached": lambda: canonical_scenario(cached=True),
    "rebalance": ShippingScenario,
    "rebalance-cached": lambda: ShippingScenario(cached=True),
    "failover": FailoverScenario,
    "failover-no-maintain": lambda: FailoverScenario(maintain=False),
}

#: Crash points per scenario at the default seed and pack size.  A change
#: here means the workload's write pattern changed: re-derive the
#: documented sweep results (EXPERIMENTS.md, SERVER.md) with it.
TOTALS = {
    "canonical": 72,
    "canonical-cached": 66,
    "rebalance": 59,
    "rebalance-cached": 55,
    "failover": 97,
    "failover-no-maintain": 93,
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_counting_pass_finds_the_pinned_number_of_crash_points(name):
    assert count_writes(SCENARIOS[name]()) == TOTALS[name]


@pytest.mark.parametrize("name", ["canonical", "rebalance", "failover"])
def test_out_of_range_point_rejected(name):
    with pytest.raises(ValueError, match="outside 1.."):
        sweep(SCENARIOS[name](), points=[10_000])


def write_sector(drive, address):
    """One label+value command: two part-writes."""
    drive.write_label_value(address, Label.free(), [address] * VALUE_WORDS)


class ShrinkingScenario(CrashScenario):
    """Writes two sectors on its counting run, then one on every replay."""

    def __init__(self, clean_ok=True):
        self.image = DiskImage(tiny_test_disk())
        self.runs = 0
        self.clean_ok = clean_ok

    def run(self, plan):
        drive = DiskDrive(self.image, fault_injector=plan(self.image, 1))
        sectors = 2 if self.runs == 0 else 1
        self.runs += 1
        for address in range(sectors):
            write_sector(drive, address)

    def verify(self, crash_point, crash_reason):
        report = CrashReport(crash_point=crash_point, crash_reason=crash_reason)
        if not self.clean_ok:
            report.note("clean run checks out wrong")
        return report


def test_a_fault_that_never_fires_fails_the_point():
    result = sweep(ShrinkingScenario(), points=[1, 3])
    assert result.total_writes == 4
    fired, missed = result.reports
    assert fired.ok and fired.crash_reason
    assert not missed.ok and not missed.crash_reason
    assert "never fired" in missed.problems[0]
    assert not result.ok and result.failures == [missed]


def test_a_failing_clean_run_stops_the_sweep():
    with pytest.raises(RuntimeError, match="clean run failed"):
        sweep(ShrinkingScenario(clean_ok=False))


def test_plans_sharing_a_write_count_crash_at_one_global_write():
    writes = WriteCount()
    first, second = DiskImage(tiny_test_disk()), DiskImage(tiny_test_disk())
    plans = [FaultPlan(first, writes=writes), FaultPlan(second, writes=writes)]
    for plan in plans:
        plan.crash_at_write(3)
    write_sector(DiskDrive(first, fault_injector=plans[0]), 0)
    with pytest.raises(PowerFailure):
        write_sector(DiskDrive(second, fault_injector=plans[1]), 0)
    assert writes.seen == 3
    assert plans[1].crashed and not plans[0].crashed


@pytest.mark.parametrize("argv", [
    ["--scenario", "failover", "--tear"],
    ["--scenario", "failover", "--cached"],
    ["--no-maintain"],
    ["--scenario", "rebalance", "--no-maintain"],
])
def test_cli_rejects_options_the_scenario_lacks(argv):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["crashtest"] + argv)
    assert exit_info.value.code == 2
