"""Crash consistency of OutLoad (ISSUE 1 tentpole applied to world swap).

:meth:`WorldSwapper.atomic_outload` promises old-state-or-new-state at every
write boundary.  An exhaustive 2077-point sweep (clean and torn alternating)
holds offline; here a deterministic sample of those points keeps the promise
under continuous test at pytest cost.  The plain :meth:`outload` gets the
weaker-but-honest check: a crash mid-write may lose the state file, but the
loss is always *detected* (checksums -> BadStateFile), never silent.  Both
run their sampled points through the crash-sweep driver.
"""

from repro.disk import (
    CrashReport,
    CrashScenario,
    DiskDrive,
    DiskImage,
    count_writes,
    sweep,
    tiny_test_disk,
)
from repro.errors import BadStateFile
from repro.fs import FileSystem, Scavenger
from repro.world import Machine, SHADOW_SUFFIX, WorldSwapper

STATE_FILE = "Swatee"
OLD_MARK, NEW_MARK = 0xAAAA, 0xBBBB


def build_world():
    """A pack holding one committed world image (phaseA, OLD_MARK)."""
    image = DiskImage(tiny_test_disk(cylinders=30))
    fs = FileSystem.format(DiskDrive(image))
    machine = Machine()
    machine.set_register(0, OLD_MARK)
    WorldSwapper(fs, machine).outload(STATE_FILE, "prog", "phaseA")
    fs.sync()
    return image


def run_outload(image, plan=None, atomic=True):
    """Mount and OutLoad the NEW state (phaseB, NEW_MARK) through *plan*."""
    drive = DiskDrive(image, fault_injector=plan)
    fs = FileSystem.mount(drive)
    machine = Machine()
    machine.set_register(0, NEW_MARK)
    swapper = WorldSwapper(fs, machine)
    if atomic:
        swapper.atomic_outload(STATE_FILE, "prog", "phaseB")
    else:
        swapper.outload(STATE_FILE, "prog", "phaseB")
    fs.sync()


def recover_and_inload(image):
    """Scavenge the wreckage, remount, InLoad; return (phase, marker)."""
    Scavenger(DiskDrive(image)).scavenge()
    fs = FileSystem.mount(DiskDrive(image))
    machine = Machine()
    program, phase = WorldSwapper(fs, machine).inload(STATE_FILE)
    assert program == "prog"
    return phase, machine.get_register(0)


class OutloadScenario(CrashScenario):
    """OutLoad the NEW state over the committed OLD one; recovery must
    InLoad one of the two.  The plain OutLoad may instead leave a state
    file its checksums reject: those points are counted in ``detected``."""

    def __init__(self, seed, atomic):
        self.seed = seed
        self.atomic = atomic
        self.baseline = build_world()
        self.detected = 0

    def run(self, plan):
        self.image = self.baseline.snapshot()
        run_outload(self.image, plan(self.image, self.seed), atomic=self.atomic)

    def verify(self, crash_point, crash_reason):
        report = CrashReport(crash_point=crash_point, crash_reason=crash_reason)
        try:
            phase, marker = recover_and_inload(self.image)
        except BadStateFile as exc:
            if self.atomic:
                report.note(f"atomic OutLoad left a bad state file: {exc}")
            else:
                self.detected += 1  # torn image caught by the state checksums
            return report
        if (phase, marker) not in {("phaseA", OLD_MARK), ("phaseB", NEW_MARK)}:
            report.note(f"got phase={phase} marker={marker:#x}")
        return report


def sample_points(total, repro_seed, count=12):
    """A deterministic spread: the edges plus seeded interior points."""
    import random

    rng = random.Random(repro_seed)
    interior = rng.sample(range(2, total), min(count - 2, total - 2))
    return sorted({1, total, *interior})


class TestAtomicOutload:
    def test_old_or_new_at_sampled_crash_points(self, repro_seed):
        scenario = OutloadScenario(repro_seed, atomic=True)
        total = count_writes(scenario)
        assert total > 50  # a world image is many pages
        points = sample_points(total, repro_seed)
        for tear in (False, True):
            result = sweep(scenario, points=points, tear=tear)
            assert result.ok, f"tear={tear}: " + "; ".join(
                str(r) for r in result.failures)

    def test_uninterrupted_atomic_outload_commits_and_cleans_up(self):
        image = build_world()
        run_outload(image, atomic=True)
        fs = FileSystem.mount(DiskDrive(image))
        assert STATE_FILE + SHADOW_SUFFIX not in fs.list_files()
        phase, marker = recover_and_inload(image)
        assert (phase, marker) == ("phaseB", NEW_MARK)

    def test_shadow_fallback_when_commit_was_interrupted(self):
        """Crash in the commit window (old deleted, shadow not yet renamed):
        InLoad must find the complete new state under the shadow name."""
        image = build_world()
        fs = FileSystem.mount(DiskDrive(image))
        machine = Machine()
        machine.set_register(0, NEW_MARK)
        swapper = WorldSwapper(fs, machine)
        # Reproduce atomic_outload stopped right before the rename.
        from repro.world.statefile import pack_state

        state = machine.capture()
        data = pack_state(
            state["memory"], state["registers"], "prog", "phaseB", state["typeahead"]
        )
        fs.create_file(STATE_FILE + SHADOW_SUFFIX).write_data(data)
        fs.delete_file(STATE_FILE)
        fs.sync()

        phase, marker = recover_and_inload(image)
        assert (phase, marker) == ("phaseB", NEW_MARK)


class TestPlainOutload:
    def test_crash_is_detected_never_silent(self, repro_seed):
        """The in-place OutLoad may lose the old state, but a crashed write
        is always either a valid state or a checksum-detected BadStateFile."""
        scenario = OutloadScenario(repro_seed, atomic=False)
        points = sample_points(count_writes(scenario), repro_seed, count=8)
        result = sweep(scenario, points=points, tear=True)
        assert result.ok, "; ".join(str(r) for r in result.failures)
        # At least one sampled point must actually exercise the detection
        # path, or the test proves nothing.
        assert scenario.detected > 0
