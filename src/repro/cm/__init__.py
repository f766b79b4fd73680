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

Each name below loads on first use (:mod:`repro._lazy`): a directory
build imports the builders and the store, never the daemon, the remote
store client, the pool or the fault harness.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.cm.project": ("Project",),
    "repro.cm.depend": ("DepGraph", "DependencyError", "ReadySet",
                        "analyze"),
    "repro.cm.backend": ("StoreBackend", "DirectoryBackend"),
    "repro.cm.store": ("BinRecord", "BinStore", "CorruptRecord",
                       "SaveStats", "StoreError", "StoreFullError",
                       "StoreHealthReport", "StoreLockedError"),
    "repro.cm.remote": ("RemoteBackend", "StoreServer", "register_loopback",
                        "unregister_loopback", "serve_socket"),
    "repro.cm.report": ("BuildReport", "UnitOutcome"),
    "repro.cm.make": ("TimestampBuilder",),
    "repro.cm.manager": ("CutoffBuilder",),
    "repro.cm.smart": ("SmartBuilder",),
    "repro.cm.parallel": ("ParallelBuildError",),
    "repro.cm.supervise": ("SupervisePolicy", "Supervisor"),
    "repro.cm.daemon": ("BuildDaemon", "DaemonError", "DaemonReply",
                        "serve"),
    "repro.cm.group": ("Group", "GroupBuilder"),
    "repro.cm.descfile": ("DescFileError", "load_group_file"),
    "repro.cm.stable": ("StableArchiveError", "stabilize", "parse_archive"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
