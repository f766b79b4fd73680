"""The pickler: dehydration and rehydration of static environments.

Section 4 of the paper: compiled static environments must be written to
"bin" files for use in later sessions.  Doing this naively has two
problems the paper names explicitly, and this package solves both the
same way SML/NJ did:

1. *Sharing*: static environments form DAGs (and cycles, through
   datatypes); copying them as trees explodes exponentially.  The pickler
   memoizes every semantic object, emitting back-references, so the bin
   file is linear in the object graph (benchmark T4 measures this).
2. *External references*: an environment may point into objects owned by
   other compilation units (or the pervasive basis).  "We 'dehydrate' the
   environment by identifying the external pointers and replacing them by
   stubs" -- a stub names the defining unit's pid and the object's export
   index.  Rehydration resolves stubs through a registry built from the
   context units, "replacing the stubs with the right pointers".
"""

from repro.pickle.pickler import (
    PickleError,
    Pickler,
    UnpickleError,
    Unpickler,
    UnresolvedStubError,
    dehydrate,
    rehydrate,
)

__all__ = [
    "PickleError",
    "UnpickleError",
    "Pickler",
    "Unpickler",
    "UnresolvedStubError",
    "dehydrate",
    "rehydrate",
]
