"""Helpers shared across the test suite."""

import os

from repro.cm.store import LOCK_NAME


def store_files(store_dir: str) -> dict[str, bytes]:
    """``{filename: bytes}`` for every regular file directly in
    ``store_dir``.  The store lock is left out: it is transient
    bookkeeping, not build output."""
    out = {}
    for entry in sorted(os.listdir(store_dir)):
        path = os.path.join(store_dir, entry)
        if entry != LOCK_NAME and os.path.isfile(path):
            with open(path, "rb") as fh:
                out[entry] = fh.read()
    return out
