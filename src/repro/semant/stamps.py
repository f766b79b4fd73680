"""Stamps: per-session unique identifiers for generative semantic objects.

Section 4 of the paper: "Every 'significant' object (module, signature,
structure or type constructor) has its own 'stamp', and the exported
environment will contain both a stamp and a persistent identifier (pid)."

Stamps give object identity that survives pickling: the dehydrater keys
external references on (defining unit's pid, the object's export index),
and the rehydrater finds the live object by looking that pair up in the
session's registry (:class:`repro.units.session.Session`).

Stamps are deliberately *not* globally persistent -- two sessions
elaborating the same source produce different stamp numbers.  That is
exactly why intrinsic pids (:mod:`repro.pids.intrinsic`) alpha-convert
stamps before hashing.
"""

from __future__ import annotations

import itertools


class Stamp:
    """A unique identity token.

    Identity is by object; ``id`` is a monotone integer used only for
    printing, ordering and as a dictionary key.
    """

    __slots__ = ("id",)

    def __init__(self, id: int):
        self.id = id

    def __repr__(self) -> str:
        return f"<stamp {self.id}>"

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other: object) -> bool:
        return self is other


class StampGenerator:
    """Issues fresh stamps; one per session (or per test, for isolation)."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def fresh(self) -> Stamp:
        return Stamp(next(self._counter))


#: The default session-wide generator.  Elaboration and rehydration draw
#: every stamp in one Python process from this counter (the pickler and
#: the session registry key objects by stamp id, so ids must be unique
#: within a session); a test that builds semantic objects by hand uses
#: its own generator over an id range this one never reaches.
_DEFAULT = StampGenerator()


def default_generator() -> StampGenerator:
    return _DEFAULT


def fresh_stamp() -> Stamp:
    """Issue a stamp from the session-wide generator."""
    return _DEFAULT.fresh()
