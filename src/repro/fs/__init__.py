"""The Alto file system (section 3): pages, files, directories, hints,
the scavenger, and the compacting scavenger."""

from .allocator import PageAllocator
from .check import (
    Change,
    RecoveryReport,
    WorkloadScenario,
    canonical_build,
    canonical_scenario,
    canonical_workload,
    check_recovery,
    prefix_consistent,
    snapshot_files,
)
from .compactor import CompactionReport, Compactor, compact
from .descriptor import (
    BOOT_PAGE_ADDRESS,
    DESCRIPTOR_LEADER_ADDRESS,
    DESCRIPTOR_NAME,
    DiskDescriptor,
)
from .directory import DirEntry, Directory
from .file import AltoFile, FULL_PAGE
from .fsck import CheckReport, Issue, check_image
from .filesystem import FileSystem, ROOT_DIRECTORY_NAME, SERIAL_LEASE
from .hints import ConsecutiveReader, HintLadder, KthPageHints, LadderStats, RUNGS
from .journal import JournaledDirectory, JournalRecord, recover_directory
from .volumes import DrivePair, copy_all_files, copy_file, duplicate_pack
from .leader import LeaderPage, MAX_NAME_LENGTH
from .names import (
    FIRST_VERSION,
    FileId,
    FullName,
    MAX_PAGE_NUMBER,
    make_serial,
    page_number_from_label,
)
from .online import (
    MaintenanceInvariantError,
    MaintenanceReport,
    ONLINE_TOLERATED_ISSUES,
    OnlineMaintenance,
)
from .page import PageContents, PageIO
from .scavenger import ScavengeReport, Scavenger, SweptPage, scavenge

__all__ = [
    "AltoFile",
    "BOOT_PAGE_ADDRESS",
    "Change",
    "CheckReport",
    "CompactionReport",
    "Compactor",
    "ConsecutiveReader",
    "DESCRIPTOR_LEADER_ADDRESS",
    "DESCRIPTOR_NAME",
    "DirEntry",
    "DrivePair",
    "Directory",
    "DiskDescriptor",
    "FIRST_VERSION",
    "FULL_PAGE",
    "FileId",
    "FileSystem",
    "FullName",
    "HintLadder",
    "Issue",
    "JournalRecord",
    "JournaledDirectory",
    "KthPageHints",
    "LadderStats",
    "LeaderPage",
    "MAX_NAME_LENGTH",
    "MAX_PAGE_NUMBER",
    "MaintenanceInvariantError",
    "MaintenanceReport",
    "ONLINE_TOLERATED_ISSUES",
    "OnlineMaintenance",
    "PageAllocator",
    "PageContents",
    "PageIO",
    "ROOT_DIRECTORY_NAME",
    "RUNGS",
    "RecoveryReport",
    "SERIAL_LEASE",
    "ScavengeReport",
    "Scavenger",
    "SweptPage",
    "WorkloadScenario",
    "canonical_build",
    "canonical_scenario",
    "canonical_workload",
    "check_image",
    "check_recovery",
    "compact",
    "copy_all_files",
    "copy_file",
    "duplicate_pack",
    "make_serial",
    "page_number_from_label",
    "prefix_consistent",
    "recover_directory",
    "scavenge",
    "snapshot_files",
]
