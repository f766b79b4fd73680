"""The store's I/O seams: the filesystem and the remote transport's errors.

The bin store never touches the OS directly; every disk access goes
through a :class:`FileSystem`.  Production code uses :data:`REAL_FS`;
the fault harness (:mod:`repro.cm.faults`) subclasses it to crash,
stall, fill the disk or interleave two writers at exact points.  The
remote backend (:mod:`repro.cm.remote`) reports every failed request as
a :class:`TransportError`, which it turns into offline-and-local-miss.

This module is small and imports nothing of the package, so the store,
its backends and the remote client load it without loading the fault
harness.
"""

from __future__ import annotations

import os


class FileSystem:
    """The store's I/O seam; this implementation is the real filesystem."""

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            return f.read()

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def create_exclusive(self, path: str, data: bytes) -> bool:
        """Create ``path`` holding ``data`` iff it does not already
        exist; the creation itself is atomic (O_CREAT | O_EXCL)."""
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return True

    def release_lock(self, path: str) -> None:
        self.remove(path)

    def stat_signature(self, path: str) -> tuple | None:
        """A cheap change probe: ``(mtime_ns, size)`` of ``path``, or
        None when it is absent/unreadable.  Two equal signatures mean
        the file has (almost certainly) not changed; the build daemon
        uses this to refresh sources and the store incrementally
        instead of re-reading everything per request."""
        try:
            st = os.stat(path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def pid_alive(self, pid: int) -> bool:
        """Is a process with this pid running?  Non-positive and
        out-of-range pids are never alive (and never signalled)."""
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        except (OverflowError, ValueError):
            return False
        return True


REAL_FS = FileSystem()


# -- the network seam ----------------------------------------------------


class TransportError(Exception):
    """A remote-store request failed at the transport layer: the
    connection dropped, the response frame was truncated, or its
    integrity check failed.  The remote backend converts every one of
    these into *offline-and-local-miss* -- a build never sees this
    exception (see :mod:`repro.cm.remote`)."""


class TransportTimeout(TransportError):
    """A remote-store request exceeded its deadline."""
