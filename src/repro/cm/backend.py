"""Store backends: where bin-record pairs physically live.

:class:`repro.cm.store.BinStore` implements the *semantics* of the bin
store -- integrity verification, the damage taxonomy, incremental
saves, quarantine -- but delegates the *placement* of bytes to a
:class:`StoreBackend`: get/put/has/list over record pairs plus
manifest read and write.  Everything the store guarantees (every
corruption is a quarantined miss, two racing writers leave a healthy
store) is therefore proven per backend by one parameterized conformance
suite (``tests/cm/test_store_backend_conformance.py``) instead of once
for a hard-coded directory walk.

There are two backends:

- :class:`DirectoryBackend` (this module) -- the ``.bin`` directory:
  ``<stem>.bin`` / ``<stem>.bin.json`` pairs next to ``MANIFEST.json``.
  Every local store is one.
- :class:`~repro.cm.remote.RemoteBackend` -- a store server fronted by
  a local write-through cache (itself a :class:`DirectoryBackend`)
  that keeps every pair it fetched or wrote.
  :func:`configured_backend` picks it when a store URL is given, which
  is the one choice the CLI and the daemon make.

A backend's pair operations are *byte-level*: header and payload are
opaque blobs here.  Verification (checksums, digests, manifest
reconciliation) stays in :class:`~repro.cm.store.BinStore`, so every
backend inherits the PR 2 damage taxonomy by construction.  The
directory backend routes all IO through the
:class:`repro.cm.seam.FileSystem` seam, so the crash/ENOSPC/
interleaving fault harnesses drive it, and the remote backend's cache,
unchanged.
"""

from __future__ import annotations

import errno
import json
import os
import time

from repro.cm.seam import REAL_FS, FileSystem
from repro.obs.history import PROFILE_DIR

#: On-disk header format version; bump when the pickle registry or the
#: record layout changes incompatibly.  Unsupported records are skipped
#: at load (treated as cache misses).  v4 added the interface-slicing
#: fields ``binding_pids`` / ``used_bindings``.  v5 hashes source
#: digests, ``payload_digest`` (formerly the CRC-128 ``payload_crc``)
#: and ``record_digest`` with BLAKE2b-128, and the record digest covers
#: the header alone.  The optional ``dep_summary`` field needs no bump:
#: a reader that predates it ignores it, and a record without it loads
#: (its unit is parsed).
FORMAT_VERSION = 5
#: Versions the store reads.  Only the current one: a record of an
#: older format (v3, v4) is a stale-format miss that recompiles once,
#: and the save that follows writes it as :data:`FORMAT_VERSION`.
COMPAT_FORMATS = (5,)

HEADER_SUFFIX = ".bin.json"
PAYLOAD_SUFFIX = ".bin"
TMP_SUFFIX = ".tmp"
MANIFEST_NAME = "MANIFEST.json"
LOCK_NAME = "store.lock"
#: Where damaged record files are moved aside (``quarantine=True``).
QUARANTINE_DIR = "quarantine"

#: Store-directory entries that are never record files and are left
#: alone by listing and pruning (``PROFILE_DIR`` holds each manager's
#: build profile, :mod:`repro.obs.history`).
_SKIP_ENTRIES = frozenset({
    MANIFEST_NAME, LOCK_NAME, QUARANTINE_DIR, PROFILE_DIR,
})


class StoreError(Exception):
    """Base class for bin-store failures."""


class StoreLockedError(StoreError):
    """The store's lock file is held by a live process."""


class StoreFullError(StoreError):
    """A save ran out of disk space and aborted *cleanly*.

    The tmp file of the failed write is swept (best effort), the dirty
    set is untouched (a later save retries everything), and every
    record pair already on disk is either fully old or fully new -- a
    half-updated pair (new payload, old header) fails its whole-record
    digest on load and degrades to a quarantined cache miss, never a
    corrupt load.
    """


def _disk_full(err: OSError) -> bool:
    return err.errno in (errno.ENOSPC, errno.EDQUOT)


# -- record filenames ----------------------------------------------------

_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def escape_name(name: str) -> str:
    """Escape a unit name into a safe filename stem.

    Injective: anything outside ``[A-Za-z0-9._-]`` (including ``%`` and
    path separators) is percent-encoded byte-wise, a leading dot is
    escaped (no hidden/relative filenames), and the empty name maps to
    the otherwise-unreachable stem ``"%"``.
    """
    out: list[str] = []
    for ch in name:
        if ch in _SAFE_CHARS:
            out.append(ch)
        else:
            out.extend("%%%02X" % b for b in ch.encode("utf-8"))
    escaped = "".join(out)
    if not escaped:
        return "%"
    if escaped[0] == ".":
        escaped = "%2E" + escaped[1:]
    return escaped


def unescape_name(stem: str) -> str:
    """Best-effort inverse of :func:`escape_name` (for labelling damage
    whose header is unreadable; healthy names come from the header)."""
    if stem == "%":
        return ""
    out = bytearray()
    i = 0
    while i < len(stem):
        ch = stem[i]
        if ch == "%" and i + 3 <= len(stem):
            try:
                out.append(int(stem[i + 1:i + 3], 16))
                i += 3
                continue
            except ValueError:
                pass
        out.extend(ch.encode("utf-8"))
        i += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError:
        return stem


def record_stem(entry: str) -> str | None:
    """The record stem of a store-managed filename, or None if the file
    is not one of ours."""
    if entry.endswith(TMP_SUFFIX):
        entry = entry[:-len(TMP_SUFFIX)]
    if entry.endswith(HEADER_SUFFIX):
        return entry[:-len(HEADER_SUFFIX)]
    if entry.endswith(PAYLOAD_SUFFIX):
        return entry[:-len(PAYLOAD_SUFFIX)]
    return None


# -- manifest bytes ------------------------------------------------------


def encode_manifest(records: dict[str, str]) -> bytes:
    """The canonical manifest bytes for a ``{stem: unit name}`` table.
    Every backend writes exactly these bytes, so a store server's
    manifest is byte-identical to a local store's for the same
    records."""
    return json.dumps({"format": FORMAT_VERSION, "records": dict(records)},
                      indent=1, sort_keys=True).encode("utf-8")


def parse_manifest(data: bytes) -> dict[str, str]:
    """Parse manifest bytes into ``{stem: unit name}``; raises
    ``ValueError`` on damage or a stale format (callers decide whether
    that is quarantinable damage or merely 'no manifest')."""
    payload = json.loads(data.decode("utf-8"))
    if payload["format"] not in COMPAT_FORMATS:
        raise ValueError("stale-format manifest")
    records = payload["records"]
    if not (isinstance(records, dict)
            and all(isinstance(k, str) and isinstance(v, str)
                    for k, v in records.items())):
        raise ValueError("records is not a name table")
    return records


# -- the store lock ------------------------------------------------------


class StoreLock:
    """A pid-stamped lock file guarding a store directory: one writer
    saves at a time.

    Stale locks (owner dead, or content torn beyond parsing) are broken
    and noted.  A lock held by a live process blocks until ``timeout``;
    then ``acquire(required=True)`` raises :class:`StoreLockedError`
    while ``required=False`` (read paths) proceeds without the lock and
    records a note.  Liveness, not just process identity, is what the
    breaker tests: a *live* writer that is merely slow keeps its lock
    (see the SlowFS tests).
    """

    def __init__(self, dir_path: str, fs: FileSystem | None = None,
                 timeout: float = 5.0, poll: float = 0.02):
        self.fs = fs if fs is not None else REAL_FS
        self.lock_path = os.path.join(dir_path, LOCK_NAME)
        self.timeout = timeout
        self.poll = poll
        self.notes: list[str] = []
        self.held = False

    def acquire(self, required: bool = True) -> bool:
        fs = self.fs
        content = json.dumps({"pid": os.getpid()}).encode()
        deadline = time.monotonic() + self.timeout
        while True:
            if fs.create_exclusive(self.lock_path, content):
                self.held = True
                return True
            owner = self._owner()
            if owner is None or not fs.pid_alive(owner):
                self.notes.append(
                    f"broke stale store lock (owner pid {owner})")
                fs.remove(self.lock_path)
                continue
            if time.monotonic() >= deadline:
                if required:
                    raise StoreLockedError(
                        f"store is locked by live pid {owner} "
                        f"({self.lock_path})")
                self.notes.append(
                    f"store locked by live pid {owner}; "
                    f"reading without the lock")
                return False
            time.sleep(self.poll)

    def _owner(self) -> int | None:
        return lock_owner(self.fs, self.lock_path)

    def release(self) -> None:
        if self.held:
            self.fs.release_lock(self.lock_path)
            self.held = False

    def __enter__(self) -> "StoreLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def lock_owner(fs: FileSystem, lock_path: str) -> int | None:
    """The pid recorded in a lock file, or None when the lock is
    unreadable/torn (treated as stale by every breaker)."""
    try:
        data = json.loads(fs.read_bytes(lock_path))
        return int(data["pid"])
    except Exception:
        return None


# -- the protocol --------------------------------------------------------


class StoreBackend:
    """Where one bin store's bytes live (see the module docstring).

    The core surface is get/put/has/list over record *pairs*
    (header bytes + payload bytes, keyed by the escaped-name stem) plus
    manifest read and write; the rest -- the store lock, pruning,
    quarantine, signatures -- exists so fsck, the daemon's change
    detection and the supervisor's checkpoints work against any
    backend.

    Attributes every backend carries:

    - ``fs``: the *local* filesystem seam (the remote backend's is its
      cache's) -- checkpoints ride through it;
    - ``root``: the local anchor directory (store dir, or the remote
      backend's cache dir): the store lock lives here;
    - ``key``: the backend's identity for "is this save going where the
      load came from" bookkeeping;
    - ``label``: what health reports print as the store's location;
    - ``notes``: informational messages (e.g. "remote store offline")
      the store drains into its health report;
    - ``shared``: other clients build into the same store, so a record
      this client's project lacks may be theirs and a build never
      removes it.
    """

    shared = False

    # -- lifecycle --------------------------------------------------------

    def open(self) -> None:
        """Make the backend writable (create the root directory)."""
        raise NotImplementedError

    def exists(self) -> bool:
        """Is there a store here at all (for 'no store directory'
        notes)?"""
        raise NotImplementedError

    # -- record pairs ------------------------------------------------------

    def list_pairs(self, notes: list[str] | None = None
                   ) -> tuple[set[str], set[str]]:
        """``(header stems, payload stems)`` of every record half
        present; appends "ignoring ..." informational notes."""
        raise NotImplementedError

    def read_header(self, stem: str) -> bytes:
        raise NotImplementedError

    def read_payload(self, stem: str) -> bytes:
        raise NotImplementedError

    def has_payload(self, stem: str) -> bool:
        raise NotImplementedError

    def put(self, stem: str, header_bytes: bytes,
            payload: bytes) -> None:
        """Write one record pair, payload first, each half atomically;
        a disk-full aborts cleanly as :class:`StoreFullError`."""
        raise NotImplementedError

    # -- manifest ----------------------------------------------------------

    def manifest_present(self) -> bool:
        raise NotImplementedError

    def manifest_label(self) -> str:
        """A human-readable location for the manifest (health-report
        ``path`` fields)."""
        raise NotImplementedError

    def read_manifest_bytes(self) -> bytes | None:
        """The manifest bytes, or None when absent; raises ``OSError``
        on an unreadable manifest."""
        raise NotImplementedError

    def write_manifest(self, data: bytes) -> None:
        """Replace the manifest atomically (callers hold the store
        lock)."""
        raise NotImplementedError

    # -- locks -------------------------------------------------------------

    def store_lock(self, timeout: float):
        raise NotImplementedError

    # -- maintenance -------------------------------------------------------

    def prune(self, live_stems: set[str]) -> list[str]:
        """Cleanup at the end of a save, under the store lock: remove
        tmp debris and record pairs not in ``live_stems``.  Returns
        what was removed."""
        raise NotImplementedError

    def ensure_quarantine_dir(self) -> str | None:
        """Create the quarantine directory; returns an error string on
        failure (quarantine-aside is then skipped)."""
        raise NotImplementedError

    def quarantine_pair(self, stem: str) -> tuple[bool, str | None]:
        """Move a damaged pair aside; never half-moves (a failure rolls
        the moved half back).  Returns ``(moved, error)``."""
        raise NotImplementedError

    def signature(self) -> tuple:
        """A cheap change signature: two equal signatures mean no other
        writer touched the store in between (the daemon's incremental
        refresh probe)."""
        raise NotImplementedError

    # -- addressing and bookkeeping ---------------------------------------

    def describe(self, stem: str, suffix: str) -> str:
        """A human-readable location for one record file (health-report
        ``path`` fields)."""
        raise NotImplementedError

    def covers(self, path: str) -> bool:
        """Does a save/checkpoint aimed at directory ``path`` belong to
        this backend?  (The supervisor and daemon address checkpoints
        by the store directory; the store routes them here.)"""
        return os.path.abspath(path) == os.path.abspath(self.root)


# -- the directory backend -----------------------------------------------


class DirectoryBackend(StoreBackend):
    """A store directory: record pairs next to the manifest."""

    def __init__(self, root: str, fs: FileSystem | None = None):
        self.fs = fs if fs is not None else REAL_FS
        self.root = root
        self.key = os.path.abspath(root)
        self.label = root
        self.notes: list[str] = []

    # -- placement --------------------------------------------------------

    def path_of(self, stem: str, suffix: str) -> str:
        return os.path.join(self.root, stem + suffix)

    def describe(self, stem: str, suffix: str) -> str:
        return self.path_of(stem, suffix)

    # -- lifecycle --------------------------------------------------------

    def open(self) -> None:
        self.fs.makedirs(self.root)

    def exists(self) -> bool:
        return self.fs.isdir(self.root)

    # -- record pairs ------------------------------------------------------

    def list_pairs(self, notes: list[str] | None = None
                   ) -> tuple[set[str], set[str]]:
        header: set[str] = set()
        payload: set[str] = set()
        for entry in self.fs.listdir(self.root):
            if entry in _SKIP_ENTRIES:
                continue
            if entry.endswith(TMP_SUFFIX):
                if notes is not None:
                    notes.append(f"ignoring leftover temp file {entry}")
            elif entry.endswith(HEADER_SUFFIX):
                header.add(entry[:-len(HEADER_SUFFIX)])
            elif entry.endswith(PAYLOAD_SUFFIX):
                payload.add(entry[:-len(PAYLOAD_SUFFIX)])
            elif notes is not None:
                notes.append(f"ignoring unrecognized file {entry}")
        return header, payload

    def read_header(self, stem: str) -> bytes:
        return self.fs.read_bytes(self.path_of(stem, HEADER_SUFFIX))

    def read_payload(self, stem: str) -> bytes:
        return self.fs.read_bytes(self.path_of(stem, PAYLOAD_SUFFIX))

    def has_payload(self, stem: str) -> bool:
        return self.fs.exists(self.path_of(stem, PAYLOAD_SUFFIX))

    def put(self, stem: str, header_bytes: bytes, payload: bytes) -> None:
        fs = self.fs
        payload_file = self.path_of(stem, PAYLOAD_SUFFIX)
        header_file = self.path_of(stem, HEADER_SUFFIX)
        try:
            fs.write_bytes(payload_file + TMP_SUFFIX, payload)
            fs.replace(payload_file + TMP_SUFFIX, payload_file)
            fs.write_bytes(header_file + TMP_SUFFIX, header_bytes)
            fs.replace(header_file + TMP_SUFFIX, header_file)
        except OSError as err:
            if not _disk_full(err):
                raise
            self._sweep_tmps((payload_file, header_file))
            raise StoreFullError(
                f"disk full while saving record {stem!r} in {self.root}: "
                f"{err}") from err

    def delete(self, stem: str) -> None:
        """Remove both halves of a pair (absence is not an error)."""
        self.fs.remove(self.path_of(stem, HEADER_SUFFIX))
        self.fs.remove(self.path_of(stem, PAYLOAD_SUFFIX))

    def _sweep_tmps(self, files: tuple[str, ...]) -> None:
        """Best-effort removal of tmp files after a failed write (frees
        the very space the failed save was starved of)."""
        for name in files:
            try:
                self.fs.remove(name + TMP_SUFFIX)
            except OSError:
                pass

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def manifest_present(self) -> bool:
        return self.fs.exists(self._manifest_path())

    def manifest_label(self) -> str:
        return self._manifest_path()

    def read_manifest_bytes(self) -> bytes | None:
        if not self.manifest_present():
            return None
        return self.fs.read_bytes(self._manifest_path())

    def write_manifest(self, data: bytes) -> None:
        fs = self.fs
        manifest_file = self._manifest_path()
        try:
            fs.write_bytes(manifest_file + TMP_SUFFIX, data)
            fs.replace(manifest_file + TMP_SUFFIX, manifest_file)
        except OSError as err:
            if not _disk_full(err):
                raise
            self._sweep_tmps((manifest_file,))
            raise StoreFullError(
                f"disk full while writing manifest in {self.root}: "
                f"{err}") from err

    def merge_manifest(self, adds: dict[str, str]) -> None:
        """Read-modify-write: add ``adds``, keep everything else.  The
        remote backend keeps its cache's manifest this way (it names
        exactly the cached stems)."""
        try:
            raw = self.read_manifest_bytes()
            merged = parse_manifest(raw) if raw is not None else {}
        except (OSError, ValueError):
            merged = {}
        merged.update(adds)
        self.write_manifest(encode_manifest(merged))

    # -- locks -------------------------------------------------------------

    def store_lock(self, timeout: float) -> StoreLock:
        return StoreLock(self.root, fs=self.fs, timeout=timeout)

    # -- maintenance -------------------------------------------------------

    def prune(self, live_stems: set[str]) -> list[str]:
        fs = self.fs
        pruned: list[str] = []
        for entry in fs.listdir(self.root):
            if entry in _SKIP_ENTRIES:
                continue
            stem = record_stem(entry)
            if stem is None:
                continue  # not a store-managed file: leave it alone
            if entry.endswith(TMP_SUFFIX) or stem not in live_stems:
                fs.remove(os.path.join(self.root, entry))
                pruned.append(entry)
        return pruned

    def ensure_quarantine_dir(self) -> str | None:
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            self.fs.makedirs(qdir)
        except OSError as err:
            return f"cannot create {qdir}: {err}"
        return None

    def quarantine_pair(self, stem: str) -> tuple[bool, str | None]:
        fs = self.fs
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        done: list[tuple[str, str]] = []
        for suffix in (PAYLOAD_SUFFIX, HEADER_SUFFIX):
            src = self.path_of(stem, suffix)
            dst = os.path.join(qdir, stem + suffix)
            try:
                if not fs.exists(src):
                    continue
                fs.replace(src, dst)
            except OSError as err:
                # Roll the already-moved half back: never half-move.
                for m_src, m_dst in reversed(done):
                    try:
                        fs.replace(m_dst, m_src)
                    except OSError:
                        pass
                return False, str(err)
            done.append((src, dst))
        return bool(done), None

    def signature(self) -> tuple:
        fs = self.fs
        if not fs.isdir(self.root):
            return ()
        try:
            entries = fs.listdir(self.root)
        except OSError:
            return ("unreadable",)
        out = []
        for entry in entries:
            if entry.endswith(TMP_SUFFIX):
                continue
            if (entry == MANIFEST_NAME
                    or entry.endswith(HEADER_SUFFIX)
                    or entry.endswith(PAYLOAD_SUFFIX)):
                out.append((entry, fs.stat_signature(
                    os.path.join(self.root, entry))))
        return tuple(out)


def configured_backend(path: str,
                       url: str | None = None) -> StoreBackend | None:
    """The backend a CLI run or the daemon was configured with: the
    remote backend for a store URL, with ``path`` as its write-through
    cache, else None -- the store paths then use the directory at
    ``path`` each time they touch it."""
    if not url:
        return None
    from repro.cm.remote import remote_backend_from_url
    return remote_backend_from_url(url, path)
