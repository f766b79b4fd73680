"""repro: a reproduction of Appel & MacQueen,
"Separate Compilation for Standard ML" (PLDI 1994).

The package builds, from scratch, everything the paper's mechanisms need:

- a compiler front end and elaborator for a substantial Standard ML
  subset (:mod:`repro.lang`, :mod:`repro.semant`, :mod:`repro.elab`);
- a dynamic semantics (:mod:`repro.dynamic`) and interactive top level
  (:mod:`repro.interactive`);
- the paper's contribution: compilation units with import/export pid
  vectors (:mod:`repro.units`), dehydration/rehydration of static
  environments (:mod:`repro.pickle`), intrinsic pids via 128-bit CRC
  (:mod:`repro.pids`), type-safe linkage (:mod:`repro.linker`), and the
  IRM compilation manager with cutoff recompilation plus timestamp and
  smart baselines (:mod:`repro.cm`);
- synthetic workloads for the evaluation (:mod:`repro.workload`).

Quickstart::

    from repro import CutoffBuilder, Project

    project = Project.from_sources({
        "base": "structure Base = struct fun double x = x * 2 end",
        "app":  "structure App = struct val answer = Base.double 21 end",
    })
    builder = CutoffBuilder(project)
    print(builder.build().summary())          # 2 compiled
    exports = builder.link()
    print(exports["app"].structures["App"].values["answer"])   # 42

The names above load on first use: ``import repro`` imports none of the
subsystems, and ``from repro import CutoffBuilder`` imports only what
the builder needs (:mod:`repro._lazy`).  So a directory build never
loads the daemon, the fault harness, the REPL or the workload
generator.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.basis": ("Basis", "BASIS_PID", "make_basis"),
    "repro.cm": ("Project", "BinStore", "BinRecord", "BuildReport",
                 "CutoffBuilder", "TimestampBuilder", "SmartBuilder",
                 "Group", "GroupBuilder", "DependencyError"),
    "repro.elab": ("ElabError",),
    "repro.lang": ("LexError", "ParseError"),
    "repro.linker": ("LinkError", "Linker", "check_consistency"),
    "repro.pickle": ("PickleError", "UnpickleError", "dehydrate",
                     "rehydrate"),
    "repro.pids": ("crc128_hex", "intrinsic_pid"),
    "repro.units": ("CompiledUnit", "Session", "compile_unit",
                    "execute_unit"),
    "repro.interactive": ("REPL", "VisibleCompiler"),
    "repro.workload": ("generate_workload",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
