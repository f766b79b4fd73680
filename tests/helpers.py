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


class _Killed(Exception):
    """The simulated ``kill -9`` of :func:`kill_at_save`."""


def kill_at_save(supervisor, builder, n: int):
    """Run ``supervisor.build(builder)`` and kill the build right after
    its ``n``-th store save, so the store on disk is exactly that
    checkpoint.  Returns the report as it stood at the kill."""
    store = builder.store
    save = store.save_directory
    saves = 0

    def save_then_die(*args, **kwargs):
        nonlocal saves
        stats = save(*args, **kwargs)
        saves += 1
        if saves == n:
            raise _Killed
        return stats

    store.save_directory = save_then_die
    try:
        supervisor.build(builder)
    except _Killed:
        return supervisor.report
    finally:
        del store.save_directory
    raise AssertionError(f"the build finished in fewer than {n} saves")
