"""The bin-file store: persistent compilation results.

A :class:`BinRecord` is one bin file: header (name, source digest, export
pid, import pid list, logical build time, slice pids, the source's
dependency summary, builder-specific extras) plus the dehydrated
payload.  :class:`BinStore` is the store; it survives
"sessions" (builder instances), which is the whole point -- cross-session
reuse is what dehydration buys.

The store's *semantics* live here; the *placement* of bytes lives in a
:class:`repro.cm.backend.StoreBackend` (the ``.bin`` directory, or a
remote server fronted by a local cache -- see :mod:`repro.cm.backend`
and :mod:`repro.cm.remote`).  The on-disk form
is engineered so that *no* damage can cost more than a recompile, and
every kind of damage is detected and named:

- **Integrity.** Every header carries a digest of its payload plus a
  whole-record digest over the canonical header, which includes the
  payload digest.  Both are BLAKE2b-128
  (:func:`repro.digest.content_digest`), and a save or a load hashes
  each payload once; pids keep the paper's CRC-128.  A load verifies
  both digests; any mismatch, torn write, orphaned header/payload or
  unparsable JSON becomes a typed :class:`CorruptRecord` in the store's
  :class:`StoreHealthReport` and the unit silently degrades to a cache
  miss.  Records of another format version are reported stale and
  recompile once.  ``load_directory`` never raises on damage, and a
  missing store loads empty with a note; it is the one way the CLI and
  the daemon open a store.
- **Atomicity.** Records are written payload-first via tmp-file +
  ``os.replace`` under a pid-stamped lock file (stale locks -- dead
  owner or torn content -- are detected and broken).  A crash between
  the two renames leaves a checksum mismatch, never a half-parsed record.
  The lock admits one writer at a time, so two builders saving into one
  store take turns and the last complete save wins.
- **Manifest.**  ``MANIFEST.json`` lists the live records; records on
  disk but not in the manifest (a crash after a record write) are
  ignored, records in the manifest but missing on disk are reported.
- **Incremental saves.** Only records dirtied since the last save/load
  are rewritten; on-disk records whose units were removed are pruned.
  :meth:`BinStore.save_directory` returns a :class:`SaveStats` saying
  exactly what was written.
- **Safe names.** Record filenames are percent-escaped (a unit named
  ``../x`` cannot escape the store directory); the real name rides in
  the header and is round-tripped on load.

All disk access goes through the :class:`repro.cm.seam.FileSystem`
seam, so the fault-injection harness can kill a save at every possible
point -- against any backend -- and prove recovery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.cm.backend import (  # noqa: F401  (re-exported surface)
    COMPAT_FORMATS,
    FORMAT_VERSION,
    HEADER_SUFFIX,
    LOCK_NAME,
    MANIFEST_NAME,
    PAYLOAD_SUFFIX,
    QUARANTINE_DIR,
    TMP_SUFFIX,
    DirectoryBackend,
    StoreBackend,
    StoreError,
    StoreFullError,
    StoreLock,
    StoreLockedError,
    encode_manifest,
    escape_name,
    unescape_name,
    _disk_full,
)
from repro.cm.backend import record_stem as _record_stem
from repro.cm.depend import DepSummary
from repro.cm.seam import REAL_FS, FileSystem
from repro.digest import content_digest
from repro.obs.meter import NULL_METER, BuildMeter

#: Damage kinds whose on-disk files quarantine-aside may move (the
#: rest either have no files -- ``missing-record`` -- or describe the
#: manifest/IO layer, not a record pair).
_QUARANTINABLE_KINDS = frozenset({
    "bad-header-json", "malformed-header", "name-mismatch",
    "orphaned-header", "orphaned-payload", "payload-checksum-mismatch",
    "record-digest-mismatch",
})

#: Header fields a loadable record must carry.
_REQUIRED_FIELDS = ("name", "source_digest", "export_pid", "imports",
                    "built_at", "binding_pids", "used_bindings",
                    "payload_digest", "record_digest")


# -- health reporting ----------------------------------------------------


@dataclass
class CorruptRecord:
    """One piece of quarantined damage.

    ``kind`` is the failure taxonomy: ``bad-header-json``,
    ``malformed-header``, ``name-mismatch``, ``orphaned-header``,
    ``orphaned-payload``, ``payload-checksum-mismatch``,
    ``record-digest-mismatch``, ``missing-record``, ``bad-manifest``,
    ``io-error``, ``unreadable``, ``rehydrate-failed``,
    ``stable-archive``, ``stable-rehydrate-failed``,
    ``stable-unit-skipped``.
    """

    name: str
    kind: str
    path: str = ""
    detail: str = ""


@dataclass
class StoreHealthReport:
    """What a load (or fsck) found: healthy records, quarantined damage,
    version-skipped records, and informational notes (broken stale
    locks, ignored temp files)."""

    path: str = ""
    scanned: int = 0
    loaded: list[str] = field(default_factory=list)
    corrupt: list[CorruptRecord] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def add(self, name: str, kind: str, path: str = "",
            detail: str = "") -> None:
        self.corrupt.append(CorruptRecord(name, kind, path, detail))

    def quarantined(self) -> set[str]:
        """Unit names with at least one corrupt entry."""
        return {c.name for c in self.corrupt if c.name}

    def kinds_for(self, name: str) -> list[str]:
        return [c.kind for c in self.corrupt if c.name == name]

    def summary(self) -> str:
        if self.ok:
            extra = (f", {len(self.stale)} stale-format skipped"
                     if self.stale else "")
            return (f"store healthy: {len(self.loaded)} record(s)"
                    f"{extra}")
        return (f"store damaged: {len(self.corrupt)} problem(s), "
                f"{len(self.loaded)} healthy record(s)")

    def render_text(self) -> str:
        lines = [f"bin store {self.path or '(unsaved)'}: "
                 + ("HEALTHY" if self.ok else "DAMAGED")]
        lines.append(f"  records: {len(self.loaded)} healthy, "
                     f"{len(self.corrupt)} corrupt, "
                     f"{len(self.stale)} stale-format")
        for c in self.corrupt:
            label = c.name if c.name else "?"
            where = f"  {c.path}" if c.path else ""
            why = f": {c.detail}" if c.detail else ""
            lines.append(f"  corrupt [{c.kind}] {label}{where}{why}")
        for name in self.stale:
            lines.append(f"  stale-format (skipped): {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "scanned": self.scanned,
            "loaded": list(self.loaded),
            "stale": list(self.stale),
            "corrupt": [
                {"name": c.name, "kind": c.kind, "path": c.path,
                 "detail": c.detail}
                for c in self.corrupt
            ],
            "notes": list(self.notes),
        }


@dataclass
class SaveStats:
    """What one :meth:`BinStore.save_directory` actually did."""

    records_written: int = 0
    records_skipped: int = 0
    bytes_written: int = 0
    pruned: list[str] = field(default_factory=list)


# -- records -------------------------------------------------------------


@dataclass
class BinRecord:
    name: str
    source_digest: str
    export_pid: str
    imports: list[tuple[str, str]]
    payload: bytes
    built_at: int = 0  # logical clock at build time (make-level data)
    #: Per-exported-binding intrinsic pids ("ns:name" -> pid).  Empty
    #: when the unit has no slice data (a stable-library provider):
    #: "no slice info -> fall back to whole-pid cutoff".
    binding_pids: dict = field(default_factory=dict)
    #: What this unit used of each import when it was compiled:
    #: provider unit -> {"ns:name": the provider's binding pid then}.
    #: An empty pid means the provider had no slice data at the time.
    used_bindings: dict = field(default_factory=dict)
    #: The dependency summary of the source this record was compiled
    #: from; None on records written before summaries were stored,
    #: whose units a new session parses.
    dep_summary: DepSummary | None = None
    extra: dict = field(default_factory=dict)


def _record_digest(header: dict) -> str:
    """The whole-record digest: BLAKE2b-128 over the canonical JSON of
    the header minus ``record_digest`` itself.  The header holds the
    payload digest, so this covers the payload without hashing it a
    second time."""
    core = {k: v for k, v in header.items() if k != "record_digest"}
    canon = json.dumps(core, sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
    return content_digest(canon)


class BinStore:
    """A collection of bin records, keyed by unit name."""

    def __init__(self, fs: FileSystem | None = None,
                 backend: StoreBackend | None = None):
        self.fs = fs if fs is not None else (
            backend.fs if backend is not None else REAL_FS)
        #: Where this store's bytes live; None until the first
        #: save/load pins one (a plain directory save pins the local
        #: backend for that path).
        self.backend: StoreBackend | None = backend
        #: Telemetry seam (no-op unless a tracing builder attaches one).
        self.meter: BuildMeter = NULL_METER
        self._records: dict[str, BinRecord] = {}
        #: Records changed since the last save/load (save rewrites only
        #: these).
        self._dirty: set[str] = set()
        #: Unit names removed since the last save (their on-disk files
        #: are pruned at the next save).
        self._removed: set[str] = set()
        #: Backend key this store's clean records mirror, if any.
        self._loaded_from: str | None = None
        #: The loaded manifest was torn or stale-format: the next save
        #: must rewrite it even if no record is dirty.
        self._manifest_stale: bool = False
        #: Stems of the record pairs saves wrote or pruned since the
        #: last :meth:`signature_after_saves`; None when nothing was
        #: saved since.
        self._saved_stems: set[str] | None = None
        #: What the last load found; trivially healthy for a fresh store.
        self.health = StoreHealthReport()
        #: Cumulative payload bytes accepted, for benchmark reporting.
        self.bytes_written = 0

    def get(self, name: str) -> BinRecord | None:
        return self._records.get(name)

    def put(self, record: BinRecord) -> None:
        self._records[record.name] = record
        self._dirty.add(record.name)
        self._removed.discard(record.name)
        self.bytes_written += len(record.payload)

    def remove(self, name: str) -> None:
        if self._records.pop(name, None) is not None:
            self._removed.add(name)
        self._dirty.discard(name)

    def names(self) -> list[str]:
        return sorted(self._records)

    def dirty_names(self) -> list[str]:
        return sorted(self._dirty)

    def clear(self) -> None:
        self._removed.update(self._records)
        self._records.clear()
        self._dirty.clear()

    def total_payload_bytes(self) -> int:
        return sum(len(r.payload) for r in self._records.values())

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- disk persistence ---------------------------------------------------

    def _header_bytes(self, record: BinRecord) -> bytes:
        """A record's header as written: compact JSON (any spelling
        loads, since the record digest is over a canonical form)."""
        header = {
            "format": FORMAT_VERSION,
            "name": record.name,
            "source_digest": record.source_digest,
            "export_pid": record.export_pid,
            "imports": record.imports,
            "built_at": record.built_at,
            "binding_pids": record.binding_pids,
            "used_bindings": record.used_bindings,
            "extra": record.extra,
            "payload_digest": content_digest(record.payload),
        }
        if record.dep_summary is not None:
            header["dep_summary"] = record.dep_summary.to_json()
        header["record_digest"] = _record_digest(header)
        return json.dumps(header, separators=(",", ":")).encode("utf-8")

    def _backend_for(self, path: str) -> StoreBackend:
        """The backend a save/checkpoint aimed at ``path`` should use:
        this store's pinned backend when the path is its anchor (the
        supervisor and daemon address checkpoints by the store
        directory), otherwise the directory at ``path``."""
        if self.backend is not None and self.backend.covers(path):
            backend = self.backend
            if (isinstance(backend, DirectoryBackend)
                    and backend.fs is not self.fs):
                # The caller swapped ``store.fs`` (fault harnesses do):
                # rebuild the backend over the new seam.
                backend = DirectoryBackend(backend.root, fs=self.fs)
            return backend
        return DirectoryBackend(path, fs=self.fs)

    def unsaved(self) -> bool:
        """Does this store hold changes no save has written: a dirty or
        removed record, or a manifest the last load found torn or
        stale?"""
        return bool(self._dirty or self._removed or self._manifest_stale)

    def save_directory(self, path: str,
                       lock_timeout: float = 5.0) -> SaveStats:
        """Write the store to ``path`` atomically and incrementally.

        ``path`` addresses a backend: this store's own backend when the
        path is its anchor directory (so daemon saves and supervisor
        checkpoints transparently hit remote stores), otherwise the
        directory at ``path``.  Only dirty
        records are rewritten (payload first, header second, each via
        tmp-file + atomic rename); removed units' files and unknown
        record debris are pruned; the manifest is refreshed.  The whole
        save runs under the store lock, so a second writer waits its
        turn (up to ``lock_timeout`` seconds, then
        :class:`StoreLockedError`) and the last complete save wins.
        Returns what was actually written.
        """
        backend = self._backend_for(path)
        with self.meter.span("store.save", cat="store", path=path) as sp:
            stats = self._save(backend, lock_timeout)
            sp.set(records=stats.records_written,
                   bytes=stats.bytes_written, pruned=len(stats.pruned))
            if self.meter.enabled:
                self.meter.counter("store.bytes_saved",
                                   stats.bytes_written)
            return stats

    def _save(self, backend: StoreBackend,
              lock_timeout: float) -> SaveStats:
        backend.open()
        stats = SaveStats()
        lock = backend.store_lock(lock_timeout)
        lock.acquire(required=True)
        try:
            dirty = (set(self._records)
                     if backend.key != self._loaded_from
                     else set(self._dirty))
            changed = bool(dirty or self._removed
                           or backend.key != self._loaded_from
                           or self._manifest_stale)
            for name in sorted(dirty):
                record = self._records[name]
                stem = escape_name(name)
                header_bytes = self._header_bytes(record)
                backend.put(stem, header_bytes, record.payload)
                stats.records_written += 1
                stats.bytes_written += len(record.payload) + len(header_bytes)
            stats.records_skipped = len(self._records) - len(dirty)

            if changed:
                manifest_bytes = encode_manifest(
                    {escape_name(n): n for n in self._records})
                backend.write_manifest(manifest_bytes)
                stats.bytes_written += len(manifest_bytes)

            live = {escape_name(n) for n in self._records}
            stats.pruned.extend(backend.prune(live))

            saved = self._saved_stems or set()
            saved.update(escape_name(name) for name in dirty)
            saved.update(_record_stem(entry) for entry in stats.pruned)
            self._saved_stems = saved
            self._dirty.clear()
            self._removed.clear()
            self._loaded_from = backend.key
            self._manifest_stale = False
            self.backend = backend
            return stats
        finally:
            lock.release()

    @classmethod
    def load_directory(cls, path: str, fs: FileSystem | None = None,
                       lock_timeout: float = 5.0,
                       meter: BuildMeter = NULL_METER,
                       quarantine: bool = False,
                       backend: StoreBackend | None = None) -> "BinStore":
        """Load a store, quarantining every kind of damage.

        ``path`` names a local store directory; pass ``backend``
        explicitly for a remote store.  A missing directory is an empty
        store whose health notes say so; the first save creates it.
        Never raises on damage: a corrupt, torn,
        orphaned or unreadable record becomes a :class:`CorruptRecord`
        in ``store.health`` and the affected unit is simply absent (a
        cache miss).  ``meter`` observes the scan and every quarantine
        decision; it stays attached to the returned store.

        With ``quarantine=True`` the damaged record files are also
        moved *aside* into a ``quarantine/`` subdirectory for later
        inspection (so the next load starts clean).  The move itself is
        hardened: if it fails -- disk full, permissions -- the record
        stays exactly where it was and the damage remains an in-memory
        miss; a pair is never half-moved.
        """
        with meter.span("store.load", cat="store", path=path) as sp:
            store = cls._load_directory(path, fs, lock_timeout, meter,
                                        quarantine, backend)
            sp.set(records=len(store._records),
                   corrupt=len(store.health.corrupt),
                   stale=len(store.health.stale))
            if meter.enabled:
                for c in store.health.corrupt:
                    meter.event("store.quarantine", cat="store",
                                unit=c.name, kind=c.kind)
            return store

    @classmethod
    def _load_directory(cls, path: str, fs: FileSystem | None,
                        lock_timeout: float, meter: BuildMeter,
                        quarantine: bool = False,
                        backend: StoreBackend | None = None) -> "BinStore":
        fs = fs if fs is not None else (
            backend.fs if backend is not None else REAL_FS)
        if backend is None:
            backend = DirectoryBackend(path, fs=fs)
        store = cls(fs=fs, backend=backend)
        store.meter = meter
        report = store.health
        report.path = backend.label
        if not backend.exists():
            report.notes.extend(backend.notes)
            del backend.notes[:]
            report.notes.append(f"no store directory at {backend.label}")
            return store

        lock = backend.store_lock(lock_timeout)
        got = lock.acquire(required=False)
        report.notes.extend(lock.notes)
        try:
            try:
                header_stems, payload_stems = backend.list_pairs(
                    notes=report.notes)
            except OSError as err:
                report.add("", "io-error", backend.label, str(err))
                report.notes.extend(backend.notes)
                del backend.notes[:]
                return store

            manifest = _read_manifest(backend, report)
            if manifest is None and backend.manifest_present():
                # A torn or stale-format manifest survives a no-op
                # session unless the next save is forced to heal it.
                store._manifest_stale = True

            report.scanned = len(header_stems)
            loaded_stems: dict[str, str] = {}  # stem -> unit name
            for stem in sorted(header_stems):
                try:
                    name = store._load_record(backend, stem, report)
                except Exception as err:  # absolute no-raise guarantee
                    report.add(unescape_name(stem), "unreadable",
                               backend.describe(stem, HEADER_SUFFIX),
                               f"{type(err).__name__}: {err}")
                    name = None
                if name is not None:
                    loaded_stems[stem] = name

            for stem in sorted(payload_stems - header_stems):
                report.add(unescape_name(stem), "orphaned-payload",
                           backend.describe(stem, PAYLOAD_SUFFIX),
                           "payload file has no header")

            if manifest is not None:
                known = {c.name for c in report.corrupt}
                for stem, name in sorted(manifest.items()):
                    if stem not in header_stems and \
                            stem not in payload_stems and \
                            name not in known:
                        report.add(name, "missing-record",
                                   backend.describe(stem, HEADER_SUFFIX),
                                   "listed in manifest but not on disk")
                for stem, name in sorted(loaded_stems.items()):
                    if stem not in manifest:
                        # A crash left a record the manifest never saw;
                        # drop it (a later save prunes the files).
                        store._records.pop(name, None)
                        report.notes.append(
                            f"ignoring unmanifested record {name!r} "
                            f"(crash leftover)")

            if quarantine and report.corrupt:
                store._quarantine_aside(backend, report)

            report.notes.extend(backend.notes)
            del backend.notes[:]
            report.loaded = sorted(store._records)
            store._loaded_from = backend.key
            store.bytes_written = 0
            return store
        finally:
            if got:
                lock.release()

    def _quarantine_aside(self, backend: StoreBackend,
                          report: StoreHealthReport) -> None:
        """Move damaged record file pairs into ``quarantine/``.

        Hardened against the disk-full fault family: any failure while
        moving a pair rolls the already-moved half back (a record is
        never half-moved), the record stays an in-memory miss exactly
        as before, and the failure is *noted* -- this path never
        raises.  Moved stems are healed out of the manifest so the next
        load does not report them as ``missing-record``.
        """
        stems: dict[str, str] = {}  # stem -> unit name (for notes)
        for c in report.corrupt:
            if c.kind not in _QUARANTINABLE_KINDS or not c.path:
                continue
            stem = _record_stem(os.path.basename(c.path))
            if stem is not None:
                stems[stem] = c.name
        if not stems:
            return
        err = backend.ensure_quarantine_dir()
        if err is not None:
            report.notes.append(f"quarantine-aside skipped: {err}")
            return
        moved: list[str] = []
        for stem in sorted(stems):
            did_move, move_err = backend.quarantine_pair(stem)
            if move_err is not None:
                report.notes.append(
                    f"quarantine-aside failed for {stem!r}: {move_err}; "
                    f"record left in place (in-memory miss)")
                continue
            if did_move:
                moved.append(stem)
                if self.meter.enabled:
                    self.meter.event("store.quarantine_aside",
                                     cat="store", unit=stems[stem],
                                     stem=stem)
        if moved:
            report.notes.append(
                f"moved {len(moved)} damaged record(s) aside to "
                f"{QUARANTINE_DIR}/")
            self._heal_manifest(backend, moved, report)

    def _heal_manifest(self, backend: StoreBackend, moved: list[str],
                       report: StoreHealthReport) -> None:
        """Drop moved stems from MANIFEST.json (best effort; a failed
        heal just means the next load reports ``missing-record``)."""
        try:
            manifest = _read_manifest(backend, StoreHealthReport())
            if manifest is None:
                return
            gone = set(moved)
            healed = {s: n for s, n in manifest.items() if s not in gone}
            if healed == manifest:
                return
            backend.write_manifest(encode_manifest(healed))
        except (OSError, StoreError) as err:
            report.notes.append(
                f"quarantine-aside: manifest heal skipped: {err}")

    def _load_record(self, backend: StoreBackend, stem: str,
                     report: StoreHealthReport) -> str | None:
        """Verify and load one record; returns its unit name when
        healthy, otherwise records the damage and returns None."""
        header_file = backend.describe(stem, HEADER_SUFFIX)
        display = unescape_name(stem)
        try:
            raw = backend.read_header(stem)
        except OSError as err:
            report.add(display, "io-error", header_file, str(err))
            return None
        try:
            header = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            report.add(display, "bad-header-json", header_file, str(err))
            return None
        if not isinstance(header, dict):
            report.add(display, "bad-header-json", header_file,
                       "header is not a JSON object")
            return None
        if header.get("format") not in COMPAT_FORMATS:
            report.stale.append(display)
            return None
        missing = [f for f in _REQUIRED_FIELDS if f not in header]
        if missing:
            report.add(display, "malformed-header", header_file,
                       f"missing field(s): {', '.join(missing)}")
            return None
        name = header["name"]
        if not isinstance(name, str) or escape_name(name) != stem:
            report.add(display, "name-mismatch", header_file,
                       f"header names {name!r}, which does not belong "
                       f"in file {stem + HEADER_SUFFIX!r}")
            return None

        payload_file = backend.describe(stem, PAYLOAD_SUFFIX)
        if not backend.has_payload(stem):
            report.add(name, "orphaned-header", header_file,
                       "payload file missing")
            return None
        try:
            payload = backend.read_payload(stem)
        except OSError as err:
            report.add(name, "io-error", payload_file, str(err))
            return None
        if content_digest(payload) != header["payload_digest"]:
            report.add(name, "payload-checksum-mismatch", payload_file,
                       "payload bytes do not match the header's digest")
            return None
        if _record_digest(header) != header["record_digest"]:
            report.add(name, "record-digest-mismatch", header_file,
                       "whole-record digest mismatch (header tampered "
                       "or torn)")
            return None
        imports = header["imports"]
        if not (isinstance(imports, list)
                and all(isinstance(p, list) and len(p) == 2
                        and all(isinstance(x, str) for x in p)
                        for p in imports)):
            report.add(name, "malformed-header", header_file,
                       "imports is not a list of (name, pid) pairs")
            return None
        binding_pids = header["binding_pids"]
        if not _is_str_table(binding_pids):
            report.add(name, "malformed-header", header_file,
                       "binding_pids is not a {key: pid} table")
            return None
        used_bindings = header["used_bindings"]
        if not (isinstance(used_bindings, dict)
                and all(isinstance(k, str) and _is_str_table(v)
                        for k, v in used_bindings.items())):
            report.add(name, "malformed-header", header_file,
                       "used_bindings is not a {provider: {key: pid}} "
                       "table")
            return None
        # Absent on records written before summaries were stored.
        dep_summary = None
        if "dep_summary" in header:
            try:
                dep_summary = DepSummary.from_json(header["dep_summary"])
            except ValueError as err:
                report.add(name, "malformed-header", header_file,
                           f"dep_summary: {err}")
                return None

        self._records[name] = BinRecord(
            name=name,
            source_digest=header["source_digest"],
            export_pid=header["export_pid"],
            imports=[tuple(pair) for pair in imports],
            payload=payload,
            built_at=header["built_at"],
            binding_pids=binding_pids,
            used_bindings=used_bindings,
            dep_summary=dep_summary,
            extra=header.get("extra", {}),
        )
        return name

    @classmethod
    def fsck(cls, path: str, fs: FileSystem | None = None,
             lock_timeout: float = 5.0,
             quarantine: bool = False,
             backend: StoreBackend | None = None) -> StoreHealthReport:
        """Check a store's health without building anything: the
        directory at ``path``, or ``backend`` for a remote store.  ``quarantine=True`` also moves
        damaged files aside (see :meth:`load_directory`)."""
        return cls.load_directory(path, fs=fs, lock_timeout=lock_timeout,
                                  quarantine=quarantine,
                                  backend=backend).health

    @staticmethod
    def disk_signature(path: str, fs: FileSystem | None = None,
                       backend: StoreBackend | None = None):
        """A cheap change signature of a store: for a directory, the
        ``{filename: (mtime_ns, size)}`` map of every record file and
        the manifest (a map, so listing order cannot move it); for a
        remote store, the server's revision.  Two equal signatures mean
        no other writer has touched the store since the first was
        taken; the build daemon takes one per request and reloads the
        store only when it moved (another process built, fsck
        quarantined something, a test reached in).  Locks, tmp files
        and quarantine debris are excluded -- they come and go without
        changing the records clients would load."""
        if backend is None:
            backend = DirectoryBackend(path, fs=fs)
        return backend.signature()

    def signature_after_saves(self, sig):
        """``sig``, a :meth:`disk_signature` of this store taken before
        its latest saves, brought up to date with the files those saves
        wrote or pruned -- a restat of each, not a listing (a remote
        backend asks the server for its revision).  ``sig`` itself when
        nothing was saved since the last call."""
        if self._saved_stems is None:
            return sig
        stems, self._saved_stems = self._saved_stems, None
        return self.backend.resign(sig, stems)


def _is_str_table(value) -> bool:
    """Is ``value`` a ``{str: str}`` dict (the slice-field shape)?"""
    return (isinstance(value, dict)
            and all(isinstance(k, str) and isinstance(v, str)
                    for k, v in value.items()))


def _read_manifest(backend: StoreBackend,
                   report: StoreHealthReport) -> dict[str, str] | None:
    """Parse the manifest into {stem: unit name}; damage is reported
    and treated as 'no manifest' (every healthy record then loads)."""
    manifest_file = backend.manifest_label()
    try:
        raw = backend.read_manifest_bytes()
        if raw is None:
            return None
        data = json.loads(raw.decode("utf-8"))
        records = data["records"]
        if data["format"] not in COMPAT_FORMATS:
            report.notes.append("stale-format manifest ignored")
            return None
        if not (isinstance(records, dict)
                and all(isinstance(k, str) and isinstance(v, str)
                        for k, v in records.items())):
            raise ValueError("records is not a name table")
        return records
    except Exception as err:
        report.add("", "bad-manifest", manifest_file,
                   f"{type(err).__name__}: {err}")
        return None
