"""Compilation units: the paper's core model (§3).

::

    compile : source × statenv → codeUnit
    codeUnit = statenv × code × imports × exports
    execute : codeUnit × dynenv → dynenv

A :class:`CompiledUnit` carries its exported static environment, its
"code" (elaborated AST -- our stand-in for closed machine code), the list
of import pids, and its own export pid.  A unit loaded from a bin
payload is header-backed: pids and imports at once, the environment and
code decoded when first needed.  :class:`Session` is the process-wide
identity registry mapping stamps to (pid, index) pairs and back -- what
the dehydrater and rehydrater plug into.
"""

from repro.units.unit import CompiledUnit, DynExport, PhaseTimes
from repro.units.session import Session
from repro.units.pipeline import compile_unit, execute_unit

__all__ = [
    "CompiledUnit",
    "DynExport",
    "PhaseTimes",
    "Session",
    "compile_unit",
    "execute_unit",
]
