"""The failover drill: kill the primary mid-load, promote, prove zero loss.

The claim replication (:mod:`repro.server.replica`) makes is sharp: a
primary crash at *any* instant loses no acknowledged write, and no
request is ever executed twice on the surviving service.  This module
proves it the way the repo proves every durability claim -- by crashing
at **every** part-write the primary performs and checking the invariants
at each point (``python -m repro crashtest --scenario failover``, the same
sweep driver as the canonical workload and the rebalance protocol).

One drill (:class:`FailoverScenario`) builds a deterministic lab:

* a primary :class:`~repro.server.replica.ReplicatedFileServer` behind a
  :class:`~repro.server.router.ShardRouter`, with incremental
  scavenge/compaction (:class:`~repro.fs.online.OnlineMaintenance`)
  interleaving with service -- the always-on configuration;
* a :class:`~repro.server.replica.ReplicaStandby` fed a snapshot and the
  live sector journal;
* one client station writing a seeded batch of files page by page,
  recording each page only once its ``ST_OK`` arrives -- the *acked set*,
  the drill's ground truth.

The sweep driver (:func:`~repro.disk.faults.sweep`) kills the primary's
drive at the chosen part-write of the bootstrap and upload.  The drill then
promotes the standby (replaying the journal tail queued on the link),
swaps it into the router, and checks:

1. **Zero acknowledged loss** -- every page in the acked set is on the
   promoted pack, byte for byte.
2. **At-most-once across failover** -- a retry of a pre-crash completed
   request is answered from the router's surviving replay cache
   (``router.replayed`` advances; the promoted server never sees it).
3. **Service resumes** -- the interrupted file is rewritten (absolute
   page writes are idempotent, so re-execution of an unacknowledged
   write is safe), the rest of the workload runs, and a full read-back
   of every file matches, with the promoted pack passing
   :func:`~repro.fs.fsck.check_image`.

The driver's counting pass is the clean drill: the whole workload runs
with maintenance slices interleaved and replication gating every
response, then the read-back and pack check run too.  Only the bootstrap
and upload writes are crash points; the read-back's patrol writes are not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..disk.drive import DiskDrive
from ..disk.faults import CrashReport, CrashScenario, PlanFactory
from ..disk.geometry import tiny_test_disk
from ..disk.image import DiskImage
from ..fs.filesystem import FileSystem
from ..fs.fsck import check_image
from ..fs.online import ONLINE_TOLERATED_ISSUES, OnlineMaintenance
from ..net.network import PacketNetwork
from ..words import words_to_bytes
from .client import (DEFAULT_POLL_INTERVAL_US, FileClient, PendingRequest,
                     page_chunks)
from .replica import ReplicaStandby, ReplicatedFileServer, promote
from .router import ShardRouter

PRIMARY_HOST = "shard00"
STANDBY_HOST = "standby00"
CLIENT_HOST = "ws000"

#: Files the drill's workload writes (name, seeded size range).
WORKLOAD_FILES = 6
WORKLOAD_MIN_BYTES = 120
WORKLOAD_MAX_BYTES = 1900

#: Issue kinds a live, serving pack may show (see repro.fs.online); the
#: scavenger does not rewrite directory page hints, so stale hints are
#: tolerated too (they self-heal through the hint ladder), and so are
#: the lab's seeded garbage labels while the patrol is still reaching
#: them (the promoted pack is always fully scavenged, so they never
#: survive a failover).
_TOLERATED = set(ONLINE_TOLERATED_ISSUES) | {"stale-entry-hint",
                                             "garbage-label"}

#: Structurally garbage labels seeded on the primary pack for the patrol
#: to find: in use, but without the ordinary-file serial flag.
SEEDED_GARBAGE_LABELS = 10


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

@dataclass
class FailoverReport(CrashReport):
    """One crash point's failover verdict."""

    acked_pages: int = 0         #: pages acknowledged before the crash
    tail_records: int = 0        #: journal records replayed at promotion
    promotion_us: int = 0        #: simulated promotion time
    replay_probe: bool = False   #: retry answered from the replay cache

    def __str__(self) -> str:
        return (f"crash@{self.crash_point} acked={self.acked_pages} "
                f"tail={self.tail_records} "
                f"promotion={self.promotion_us / 1000:.1f}ms: {self.status()}")


# ----------------------------------------------------------------------------
# The lab
# ----------------------------------------------------------------------------

class _Lab:
    """One deterministic failover lab: cluster, standby, client, workload."""

    def __init__(self, seed: int, cylinders: int, maintain: bool,
                 plan: PlanFactory) -> None:
        self.maintain = maintain
        shape = tiny_test_disk(cylinders=cylinders)
        self.image = DiskImage(shape)
        # Format with a throwaway drive so the sweep's write coordinates
        # cover only the served workload, not pack setup.
        FileSystem.format(DiskDrive(self.image))
        self._seed_wear(seed)
        drive = DiskDrive(self.image, fault_injector=plan(self.image, seed))
        fs = FileSystem.mount(drive)
        self.network = PacketNetwork()
        self.network.attach(PRIMARY_HOST, clock=drive.clock)
        self.standby = ReplicaStandby(self.network,
                                      tiny_test_disk(cylinders=cylinders),
                                      host=STANDBY_HOST)
        self.primary = ReplicatedFileServer(fs, self.network, self.standby,
                                            host=PRIMARY_HOST)
        if maintain:
            # Continuous patrol: the maintainer keeps sweeping for as long
            # as the machine is up, so its map syncs are always producing
            # journal traffic -- which is what puts a real replayable tail
            # on the link when the crash lands between ship and apply.
            self.primary.maintenance = OnlineMaintenance(fs, continuous=True)
        self.router = ShardRouter([self.primary], self.network)
        self.network.attach(CLIENT_HOST)
        self.client = FileClient(self.network, CLIENT_HOST, pump=self.cycle)
        self.promoted = False
        self._cycles = 0
        self.files = workload_files(seed)

    def _seed_wear(self, seed: int) -> None:
        """Scatter structurally garbage labels over the fresh pack.

        They model a torn past life for the maintenance patrol to find:
        each repair is a pair of journaled part-writes, so the drill's
        crash sweep gets points where maintenance traffic -- not just
        client traffic -- is what must survive the failover.
        """
        from ..disk.sector import Label

        rng = random.Random(seed ^ 0x0DD)
        total = self.image.shape.total_sectors()
        untouched = [address for address in range(2, total)
                     if self.image._sectors[address] is None]
        for address in rng.sample(untouched,
                                  min(SEEDED_GARBAGE_LABELS, len(untouched))):
            # In use (serial is neither free nor bad) yet unparseable
            # (no ordinary-serial flag): exactly what the sweep frees.
            self.image.sector(address).set_label_words(
                Label(serial=0x0042, version=1, page_number=1,
                      length=0).pack())

    def cycle(self) -> int:
        """One cluster cycle: the router, and the standby every other turn.

        The standby lagging by a cycle is the interesting schedule: a
        crash then leaves shipped-but-unapplied journal records queued on
        the link, which promotion must replay (the ``tail_records`` the
        report counts).
        """
        served = self.router.poll()
        self._cycles += 1
        if not self.promoted and self._cycles % 2 == 0:
            self.standby.poll()
        return served


def workload_files(seed: int) -> List[Tuple[str, bytes]]:
    """The drill's seeded workload: deterministic names and contents."""
    rng = random.Random(seed ^ 0x5EED)
    files = []
    for index in range(WORKLOAD_FILES):
        size = rng.randrange(WORKLOAD_MIN_BYTES, WORKLOAD_MAX_BYTES)
        files.append((f"drill{index}.dat",
                      bytes(rng.randrange(256) for _ in range(size))))
    return files


# ----------------------------------------------------------------------------
# The drill
# ----------------------------------------------------------------------------

class FailoverScenario(CrashScenario):
    """The drill as a crash scenario: upload, crash, promote, verify.

    :meth:`run` builds a fresh lab and uploads the workload, recording
    each page once its ``ST_OK`` arrives; :meth:`verify` promotes the
    standby if the primary died, proves the invariants, resumes the
    workload, and checks the read-back and the serving pack.  With
    *maintain* off the primary runs without the maintenance patrol.
    """

    def __init__(self, seed: int = 1979, cylinders: int = 20,
                 maintain: bool = True) -> None:
        self.seed = seed
        self.cylinders = cylinders
        self.maintain = maintain

    def run(self, plan: PlanFactory) -> None:
        self.lab = lab = _Lab(self.seed, self.cylinders, self.maintain, plan)
        self.acked: Dict[Tuple[str, int], bytes] = {}
        self.probe: Optional[PendingRequest] = None
        self.progress = 0
        client = lab.client
        lab.primary.replication.bootstrap()
        for name, data in lab.files:
            handle, _ = client.open(name, create=True)
            for page, chunk in page_chunks(data):
                # Keep the pending request: the drill reuses its packets
                # as the at-most-once probe.
                pending = client.submit(client.build_write(handle, page, chunk))
                client.wait(pending)
                self.acked[(name, page)] = chunk
                self.probe = pending
            client.close(handle)
            self.progress += 1

    def verify(self, crash_point: int, crash_reason: str) -> FailoverReport:
        lab = self.lab
        report = FailoverReport(crash_point=crash_point,
                                crash_reason=crash_reason,
                                acked_pages=len(self.acked))
        if crash_reason:
            replayed_before = lab.router.stats().get("router.replayed", 0)
            promo = promote(lab.standby)
            lab.router.promote_shard(0, promo.server)
            if lab.maintain:
                promo.server.maintenance = OnlineMaintenance(promo.server.fs)
            lab.promoted = True
            report.tail_records = promo.tail_records
            report.promotion_us = promo.elapsed_us
            _verify_acked(promo.server.fs, self.acked, report)
            if self.probe is not None:
                _probe_replay(lab, self.probe, replayed_before, report)
            # Resume: rewrite the interrupted file from page one (absolute
            # page writes make re-execution of unacknowledged work safe),
            # then finish the remaining files.
            for name, data in lab.files[self.progress:]:
                lab.client.write_file(name, data)
        _verify_readback(lab, report)
        _verify_pack(lab, report)
        return report

    def summary(self, result) -> str:
        verdict = ("zero acked writes lost" if result.ok
                   else f"{len(result.failures)} FAILED")
        fired = sum(1 for r in result.reports if r.crash_reason)
        worst = max((r.promotion_us for r in result.reports), default=0)
        return (f"{result.points_tested}/{result.total_writes} failover crash "
                f"points swept ({fired} fired): {verdict}; worst promotion "
                f"{worst / 1000:.1f}ms")


def _verify_acked(fs: FileSystem, acked: Dict[Tuple[str, int], bytes],
                  report: FailoverReport) -> None:
    """Invariant 1: every acknowledged page is on the promoted pack."""
    by_file: Dict[str, List[int]] = {}
    for name, page in acked:
        by_file.setdefault(name, []).append(page)
    for name, pages in sorted(by_file.items()):
        try:
            file = fs.open_file(name)
        except Exception as exc:
            report.note(f"acked file {name} lost at failover "
                        f"({type(exc).__name__})")
            continue
        last = file.last_page_number
        for page in sorted(pages):
            chunk = acked[(name, page)]
            if page > last:
                report.note(f"acked page {name}:{page} lost at failover")
                continue
            contents = file.read_page(page)
            got = words_to_bytes(contents.value, nbytes=max(len(chunk), 1))
            if got[:len(chunk)] != chunk:
                report.note(f"acked page {name}:{page} corrupt at failover")


def _probe_replay(lab: _Lab, probe: PendingRequest, replayed_before: int,
                  report: FailoverReport) -> None:
    """Invariant 2: a pre-crash retry hits the surviving replay cache."""
    client = lab.client
    for packet in probe.packets:
        lab.network.send(packet)
    response = None
    for _ in range(64):
        lab.cycle()
        response = client._check_arrivals(probe)
        if response is not None:
            break
        client.clock.advance_us(DEFAULT_POLL_INTERVAL_US, "server.client.wait")
    if response is None or not response.ok:
        report.note("replay probe: pre-crash request got no cached answer")
        return
    replayed_after = lab.router.stats().get("router.replayed", 0)
    if replayed_after <= replayed_before:
        report.note("replay probe: answer was not served from the cache")
        return
    report.replay_probe = True


def _verify_readback(lab: _Lab, report: FailoverReport) -> None:
    """Invariant 3: the whole workload reads back through the front door."""
    for name, data in lab.files:
        try:
            got = lab.client.read_file(name)
        except Exception as exc:
            report.note(f"read-back of {name} failed "
                        f"({type(exc).__name__}: {exc})")
            continue
        if got != data:
            report.note(f"read-back of {name} mismatches "
                        f"({len(got)} vs {len(data)} bytes)")


def _verify_pack(lab: _Lab, report: FailoverReport) -> None:
    """The serving pack is structurally sound (live-tolerated kinds aside)."""
    image = lab.standby.image if lab.promoted else lab.image
    for issue in check_image(image).issues:
        if issue.kind not in _TOLERATED:
            report.note(f"pack check: {issue.kind} at {issue.address} "
                        f"({issue.detail})")
