"""The compilation manager (the paper's IRM, §8-9).

The IRM sits *above* the compiler primitives (compile, execute,
dehydrate, rehydrate, import/export pid extraction) and *below* the user:
it scans sources for dependencies, decides what to recompile, maintains
the bin-file cache, and drives type-safe linking.

Three builders implement the recompilation spectrum the paper discusses:

- :class:`repro.cm.make.TimestampBuilder` -- classical ``make``:
  timestamps plus transitive cascade.  The baseline.
- :class:`repro.cm.manager.CutoffBuilder` -- the paper's contribution:
  recompile a unit only when its own source changed or an *imported
  interface pid* changed; an interface-preserving recompilation of an
  import stops the cascade ("cutoff recompilation").
- :class:`repro.cm.smart.SmartBuilder` -- Tichy-style smart
  recompilation at per-exported-name granularity, the upper bound the
  paper positions cutoff against.
"""

from repro.cm.project import Project
from repro.cm.depend import DependencyError, DepGraph, analyze
from repro.cm.backend import DirectoryBackend, StoreBackend
from repro.cm.store import (
    BinRecord,
    BinStore,
    CorruptRecord,
    SaveStats,
    StoreError,
    StoreFullError,
    StoreHealthReport,
    StoreLockedError,
)
from repro.cm.remote import (
    RemoteBackend,
    StoreServer,
    register_loopback,
    serve_socket,
    unregister_loopback,
)
from repro.cm.report import BuildReport, UnitOutcome
from repro.cm.make import TimestampBuilder
from repro.cm.manager import CutoffBuilder
from repro.cm.smart import SmartBuilder
from repro.cm.parallel import ParallelBuildError, ReadySet
from repro.cm.supervise import SupervisePolicy, Supervisor
from repro.cm.daemon import (
    BuildDaemon,
    DaemonError,
    DaemonReply,
    serve,
)
from repro.cm.group import Group, GroupBuilder
from repro.cm.descfile import DescFileError, load_group_file
from repro.cm.stable import StableArchiveError, parse_archive, stabilize

__all__ = [
    "Project",
    "DepGraph",
    "DependencyError",
    "analyze",
    "BinRecord",
    "BinStore",
    "StoreBackend",
    "DirectoryBackend",
    "RemoteBackend",
    "StoreServer",
    "register_loopback",
    "unregister_loopback",
    "serve_socket",
    "CorruptRecord",
    "SaveStats",
    "StoreError",
    "StoreFullError",
    "StoreHealthReport",
    "StoreLockedError",
    "BuildReport",
    "UnitOutcome",
    "TimestampBuilder",
    "CutoffBuilder",
    "SmartBuilder",
    "ParallelBuildError",
    "ReadySet",
    "SupervisePolicy",
    "Supervisor",
    "BuildDaemon",
    "DaemonError",
    "DaemonReply",
    "serve",
    "Group",
    "GroupBuilder",
    "DescFileError",
    "load_group_file",
    "StableArchiveError",
    "stabilize",
    "parse_archive",
]
