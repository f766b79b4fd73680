"""Top-level elaboration entry point."""

from __future__ import annotations

import repro.elab.modules  # noqa: F401  (registers module-dec handlers)
from repro.elab.core import Elaborator
from repro.lang import ast
from repro.semant.env import Env


def elaborate_decs(decs: list[ast.Dec],
                   context: Env) -> tuple[Env, Elaborator]:
    """Elaborate a sequence of top-level declarations against ``context``.

    Returns the frame of new bindings (the unit's static export) and the
    elaborator (whose ``new_stamps`` set identifies the stamps this unit
    owns -- needed by the pickler and the intrinsic-pid hasher).

    The AST is annotated in place; the caller keeps it as the unit's
    "code".
    """
    el = Elaborator(context)
    frame = el.push_frame()
    for dec in decs:
        el.elab_dec(dec)
    el.pop_frame()
    export = Env()
    export.absorb(frame)
    return export, el
