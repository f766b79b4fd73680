"""The remote store backend: a shared, fleet-wide compilation cache.

Intrinsic pids are content hashes, so bin records are natural keys for
a cache shared across machines: most builds become pure hits on records
some other client compiled.  This module supplies the three pieces:

- :class:`StoreServer` -- the authoritative store, wrapping a local
  :class:`~repro.cm.backend.DirectoryBackend` and dispatching framed
  requests under one lock.  The server stores *raw*
  record bytes -- its directory is a perfectly ordinary store that
  ``--fsck`` can check directly.
- Transports -- :class:`LoopbackTransport` calls a server in-process
  (tests, benchmarks); :class:`SocketTransport` speaks the same framed
  protocol over TCP (``rbs://host:port``).  Every frame carries a
  CRC-128, so a truncated or garbled response is a
  :class:`~repro.cm.seam.TransportError` at the codec, never garbage
  handed to the store.
- :class:`RemoteBackend` -- the client: a
  :class:`~repro.cm.backend.StoreBackend` fronting the server with a
  local write-through cache (a plain store directory) that keeps every
  pair it fetched or wrote.  Pids are intrinsic, so a cached record
  stays valid until its unit changes, and the cache needs no size cap.

The frame codec compresses each blob that zlib makes smaller, in both
directions, so records cross the wire compressed with no flag to set.

**Failure semantics** (the PR 2 contract, extended over the network):

- *At-rest damage on the server* (a corrupted record file) is fetched
  verbatim and fails the client's checksums exactly as local damage
  would -- same taxonomy, same quarantined miss; ``quarantine=True``
  heals the *server's* files.
- *Transport faults* (drop, timeout, truncation, garbling) trip the
  backend's **offline latch**: the session stops talking to the server,
  the load degrades to whatever the local cache holds, and everything
  else is a clean ``store-miss`` recompile.  A build never sees a
  transport exception, and its outputs are byte-identical to a no-cache
  build.
- *Racing writers* with separate caches meet at the server: record
  puts and manifest writes are atomic per request, so the server store
  stays healthy and the last save's manifest wins.  A build never
  removes a record its project lacks (the backend is ``shared``): it
  may be another client's, and server-side GC is an operator action.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import zlib

from repro.cm.backend import (
    HEADER_SUFFIX,
    MANIFEST_NAME,
    DirectoryBackend,
    StoreBackend,
    StoreError,
    StoreLock,
    encode_manifest,
    parse_manifest,
)
from repro.cm.seam import (
    REAL_FS,
    FileSystem,
    TransportError,
    TransportTimeout,
)
from repro.digest import content_digest
from repro.pids.crc128 import crc128_hex

#: Frame magic: "repro bin store, framing v1".
_MAGIC = b"RBS1"


# -- the frame codec -----------------------------------------------------


def encode_frame(meta: dict, blob: bytes = b"") -> bytes:
    """``MAGIC + u32(meta_len) + meta + u32(blob_len) + blob + crc``.
    The blob is zlib-compressed whenever that makes it smaller, and the
    meta then carries ``"z": 1``.  The trailing CRC-128 (hex, 32 bytes)
    covers everything before it; :func:`decode_frame` rejects any frame
    that fails it, which is how wire truncation/garbling becomes a
    typed transport error instead of bytes the store has to guess
    about."""
    if blob:
        packed = zlib.compress(blob, 6)
        if len(packed) < len(blob):
            meta, blob = dict(meta, z=1), packed
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (_MAGIC + struct.pack(">I", len(meta_bytes)) + meta_bytes
            + struct.pack(">I", len(blob)) + blob)
    return body + crc128_hex(body).encode("ascii")


def decode_frame(data: bytes) -> tuple[dict, bytes]:
    """Inverse of :func:`encode_frame` (the blob comes back
    decompressed); raises :class:`~repro.cm.seam.TransportError` on
    any framing, integrity or compression failure."""
    if len(data) < len(_MAGIC) + 4 + 4 + 32:
        raise TransportError("short frame")
    body, crc = data[:-32], data[-32:]
    if body[:len(_MAGIC)] != _MAGIC:
        raise TransportError("bad frame magic")
    if crc128_hex(body).encode("ascii") != crc:
        raise TransportError("frame integrity check failed")
    off = len(_MAGIC)
    (meta_len,) = struct.unpack_from(">I", body, off)
    off += 4
    meta_bytes = body[off:off + meta_len]
    off += meta_len
    (blob_len,) = struct.unpack_from(">I", body, off)
    off += 4
    blob = body[off:off + blob_len]
    if len(meta_bytes) != meta_len or len(blob) != blob_len:
        raise TransportError("frame length mismatch")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as err:
        raise TransportError(f"unparsable frame meta: {err}") from err
    if meta.pop("z", 0):
        try:
            blob = zlib.decompress(blob)
        except zlib.error as err:
            raise TransportError(f"bad frame compression: {err}") from err
    return meta, blob


# -- the server ----------------------------------------------------------


class StoreServer:
    """The authoritative store behind a remote backend.

    Wraps a store directory (a
    :class:`~repro.cm.backend.DirectoryBackend`) and dispatches one
    framed request at a time under a lock, bumping a revision counter
    on every mutation -- the client's cheap change signature.  Ordinary exceptions during an op travel
    back as an ``error`` meta field (the client raises them as
    ``OSError``: io-error damage, a local miss); only the *frame* layer
    produces transport errors.
    """

    def __init__(self, root: str, fs: FileSystem | None = None):
        self.backend = DirectoryBackend(root, fs=fs)
        self.lock = threading.RLock()
        self.rev = 0
        self.requests = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def handle_bytes(self, request: bytes) -> bytes:
        """Decode, dispatch, encode -- the whole server side of one
        request.  Frame-level damage in the *request* is reported as an
        error meta (the response frame itself is always well-formed)."""
        self.requests += 1
        self.bytes_in += len(request)
        try:
            meta, blob = decode_frame(request)
        except TransportError as err:
            response = encode_frame({"error": f"bad request frame: {err}"})
            self.bytes_out += len(response)
            return response
        try:
            out_meta, out_blob = self.handle(meta, blob)
        except Exception as err:  # travels back as an op error
            out_meta, out_blob = (
                {"error": f"{type(err).__name__}: {err}"}, b"")
        response = encode_frame(out_meta, out_blob)
        self.bytes_out += len(response)
        return response

    def handle(self, meta: dict, blob: bytes) -> tuple[dict, bytes]:
        op = meta.get("op")
        backend = self.backend
        with self.lock:
            if op == "open":
                backend.open()
                self.rev += 1
                return {"ok": True}, b""
            if op == "exists":
                return {"exists": backend.exists()}, b""
            if op == "rev":
                return {"rev": self.rev}, b""
            if op == "list":
                notes: list[str] = []
                headers, payloads = backend.list_pairs(notes=notes)
                return {"headers": sorted(headers),
                        "payloads": sorted(payloads),
                        "notes": notes}, b""
            if op == "fetch":
                stem = meta["stem"]
                header = payload = None
                try:
                    header = backend.read_header(stem)
                except OSError:
                    pass
                try:
                    payload = backend.read_payload(stem)
                except OSError:
                    pass
                out = {"has_header": header is not None,
                       "has_payload": payload is not None,
                       "header_len": len(header or b"")}
                return out, (header or b"") + (payload or b"")
            if op == "put":
                header_len = meta["header_len"]
                backend.open()
                backend.put(meta["stem"], blob[:header_len],
                            blob[header_len:])
                self.rev += 1
                return {"ok": True}, b""
            if op == "manifest_read":
                data = backend.read_manifest_bytes()
                return {"present": data is not None}, data or b""
            if op == "manifest_write":
                backend.open()
                backend.write_manifest(blob)
                self.rev += 1
                return {"ok": True}, b""
            if op == "quarantine_ensure":
                return {"qerror": backend.ensure_quarantine_dir()}, b""
            if op == "quarantine_pair":
                moved, err = backend.quarantine_pair(meta["stem"])
                if moved:
                    self.rev += 1
                return {"moved": moved, "qerror": err}, b""
            raise ValueError(f"unknown op {op!r}")


# -- transports ----------------------------------------------------------


class LoopbackTransport:
    """An in-process transport: request bytes straight into a
    :class:`StoreServer`.  Still byte-level -- the frame codec (and a
    wrapping :class:`~repro.cm.faults.FaultyTransport`) sees exactly
    what a socket would carry."""

    def __init__(self, server: StoreServer):
        self.server = server

    def send(self, request: bytes) -> bytes:
        return self.server.handle_bytes(request)

    def close(self) -> None:
        pass


class SocketTransport:
    """The framed protocol over TCP: each direction is
    ``u32(frame_len) + frame``.  One persistent connection, lazily
    opened; any socket failure is a transport error (the client's
    offline latch takes it from there)."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as err:
                raise TransportError(
                    f"cannot connect to {self.host}:{self.port}: "
                    f"{err}") from err
        return self._sock

    def send(self, request: bytes) -> bytes:
        with self._lock:
            try:
                sock = self._connect()
                sock.sendall(struct.pack(">I", len(request)) + request)
                raw_len = self._read_exact(sock, 4)
                (length,) = struct.unpack(">I", raw_len)
                return self._read_exact(sock, length)
            except socket.timeout as err:
                self.close()
                raise TransportTimeout(str(err)) from err
            except OSError as err:
                self.close()
                raise TransportError(str(err)) from err

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise TransportError("connection closed mid-frame")
            buf += chunk
        return buf

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class _SocketHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        sock = self.request
        while True:
            try:
                raw_len = SocketTransport._read_exact(sock, 4)
            except TransportError:
                return  # client hung up between requests
            (length,) = struct.unpack(">I", raw_len)
            request = SocketTransport._read_exact(sock, length)
            response = self.server.store_server.handle_bytes(request)
            sock.sendall(struct.pack(">I", len(response)) + response)


class _ThreadingTCP(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_socket(server: StoreServer, host: str = "127.0.0.1",
                 port: int = 0):
    """Serve a :class:`StoreServer` over TCP in a daemon thread.
    Returns ``(tcp_server, bound_port)``; call ``tcp_server.shutdown()``
    to stop."""
    tcp = _ThreadingTCP((host, port), _SocketHandler)
    tcp.store_server = server
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    return tcp, tcp.server_address[1]


# -- loopback registry (in-process servers addressable by URL) -----------

_LOOPBACK: dict[str, StoreServer] = {}
_LOOPBACK_LOCK = threading.Lock()


def register_loopback(name: str, server: StoreServer) -> str:
    """Make an in-process server addressable as ``loopback://name``
    (so ``--store-url`` and the daemon can reach it in tests)."""
    with _LOOPBACK_LOCK:
        _LOOPBACK[name] = server
    return f"loopback://{name}"


def unregister_loopback(name: str) -> None:
    with _LOOPBACK_LOCK:
        _LOOPBACK.pop(name, None)


def transport_for_url(url: str):
    """A transport for ``loopback://name`` or ``rbs://host:port``.
    Opens no connection; raises :class:`StoreError` for a malformed
    URL or an unregistered loopback name."""
    if url.startswith("loopback://"):
        name = url[len("loopback://"):]
        with _LOOPBACK_LOCK:
            server = _LOOPBACK.get(name)
        if server is None:
            raise StoreError(f"no loopback store server named {name!r}")
        return LoopbackTransport(server)
    if url.startswith("rbs://"):
        hostport = url[len("rbs://"):]
        host, _, port = hostport.rpartition(":")
        if not host or not port.isdigit():
            raise StoreError(f"bad store URL {url!r} "
                             f"(want rbs://host:port)")
        return SocketTransport(host, int(port))
    raise StoreError(f"unsupported store URL scheme in {url!r}")


def remote_backend_from_url(url: str, cache_dir: str,
                            fs: FileSystem | None = None
                            ) -> "RemoteBackend":
    return RemoteBackend(url, cache_dir, transport_for_url(url), fs=fs)


# -- the client backend --------------------------------------------------


class RemoteBackend(StoreBackend):
    """A store backend whose authority is a :class:`StoreServer`,
    fronted by a local flat-directory write-through cache.

    Reads prefetch: ``list_pairs`` pulls every record the cache does
    not already hold (verified against its own header checksum before
    caching -- server-side at-rest damage is *served raw* to the store
    for normal taxonomy classification, never cached).  Writes go to
    the cache first and through to the server; if the server is
    unreachable the **offline latch** trips and the session continues
    purely locally -- every consequence is a note plus a clean local
    miss, never an exception.

    The cache keeps every pair it fetched or wrote, and its manifest
    always names exactly the cached stems, so an offline load of the
    cache is a *healthy* store, just a smaller one.
    """

    shared = True

    def __init__(self, url: str, cache_dir: str, transport,
                 fs: FileSystem | None = None):
        self.fs = fs if fs is not None else REAL_FS
        self.url = url
        self.root = cache_dir
        self.key = url
        self.label = url
        self.transport = transport
        self.cache = DirectoryBackend(cache_dir, fs=self.fs)
        self.offline = False
        self.notes: list[str] = []
        #: At-rest-damaged fetches served raw this session (never
        #: cached): stem -> (header bytes | None, payload bytes | None).
        self._raw: dict[str, tuple[bytes | None, bytes | None]] = {}
        #: Session stats for the fleet benchmark.
        self.cache_hits = 0
        self.remote_fetches = 0

    # -- the wire ---------------------------------------------------------

    def _call(self, meta: dict, blob: bytes = b"") -> tuple[dict, bytes]:
        """One request/response.  Raises :class:`TransportError` only
        to `_call` callers, all of whom catch it via
        :meth:`_try_call`."""
        response = self.transport.send(encode_frame(meta, blob))
        out_meta, out_blob = decode_frame(response)
        if "error" in out_meta:
            raise OSError(f"remote store error: {out_meta['error']}")
        return out_meta, out_blob

    def _try_call(self, meta: dict,
                  blob: bytes = b"") -> tuple[dict, bytes] | None:
        """`_call`, degraded: a transport failure trips the offline
        latch and returns None (the caller falls back to the cache)."""
        if self.offline:
            return None
        try:
            return self._call(meta, blob)
        except TransportTimeout as err:
            self._go_offline(meta.get("op", "?"), f"timeout: {err}")
            return None
        except TransportError as err:
            self._go_offline(meta.get("op", "?"), str(err))
            return None

    def _go_offline(self, op: str, why: str) -> None:
        self.offline = True
        self.notes.append(
            f"remote store {self.url} offline after {op!r} ({why}); "
            f"continuing with the local cache")

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        self.cache.open()
        self._try_call({"op": "open"})

    def exists(self) -> bool:
        got = self._try_call({"op": "exists"})
        if got is not None:
            return bool(got[0].get("exists")) or self.cache.exists()
        return self.cache.exists()

    # -- record pairs ------------------------------------------------------

    def _cached(self, stem: str) -> bool:
        return (self.cache.has_payload(stem)
                and self.fs.exists(self.cache.path_of(stem,
                                                      HEADER_SUFFIX)))

    def _verify_pair(self, header: bytes,
                     payload: bytes) -> tuple[bool, str | None]:
        """Is a fetched pair internally consistent (parsable header
        whose payload digest matches the payload)?  Returns
        ``(ok, unit name)``; damaged pairs are served raw, not
        cached."""
        try:
            parsed = json.loads(header.decode("utf-8"))
            if not isinstance(parsed, dict):
                return False, None
            name = parsed.get("name")
            if content_digest(payload) != parsed.get("payload_digest"):
                return False, name if isinstance(name, str) else None
            return True, name if isinstance(name, str) else None
        except (ValueError, UnicodeDecodeError):
            return False, None

    def list_pairs(self, notes: list[str] | None = None
                   ) -> tuple[set[str], set[str]]:
        """List the server's records, prefetching uncached pairs into
        the local cache.  Offline (or once a fault latches), the cache
        *is* the store: a smaller, healthy world -- everything absent is
        a clean miss."""
        self._raw.clear()
        got = self._try_call({"op": "list"})
        if got is None:
            headers, payloads = self.cache.list_pairs(notes=notes)
            return headers, payloads
        meta, _ = got
        if notes is not None:
            notes.extend(meta.get("notes", []))
        headers = set(meta.get("headers", []))
        payloads = set(meta.get("payloads", []))
        fresh_names: dict[str, str] = {}
        seen_headers: set[str] = set()
        seen_payloads: set[str] = set()
        for stem in sorted(headers | payloads):
            if self._cached(stem):
                self.cache_hits += 1
                seen_headers.add(stem)
                seen_payloads.add(stem)
                continue
            fetched = self._try_call({"op": "fetch", "stem": stem})
            if fetched is None:
                # Mid-prefetch fault: report only what is available
                # locally -- the rest are clean misses.
                break
            fmeta, blob = fetched
            self.remote_fetches += 1
            header = (blob[:fmeta["header_len"]]
                      if fmeta.get("has_header") else None)
            payload = (blob[fmeta["header_len"]:]
                       if fmeta.get("has_payload") else None)
            if header is not None:
                seen_headers.add(stem)
            if payload is not None:
                seen_payloads.add(stem)
            if header is None or payload is None:
                # Orphaned half on the server: raw, for the taxonomy.
                self._raw[stem] = (header, payload)
                continue
            ok, name = self._verify_pair(header, payload)
            if not ok:
                self._raw[stem] = (header, payload)
                continue
            self.cache.open()
            self.cache.put(stem, header, payload)
            if name is not None:
                fresh_names[stem] = name
        if fresh_names:
            try:  # keep the cache manifest = exactly the cached stems
                self.cache.merge_manifest(fresh_names)
            except (OSError, StoreError):
                pass
        return seen_headers, seen_payloads

    def read_header(self, stem: str) -> bytes:
        if stem in self._raw:
            header = self._raw[stem][0]
            if header is None:
                raise OSError(f"no header for {stem!r}")
            return header
        if self._cached(stem):
            return self.cache.read_header(stem)
        got = self._try_call({"op": "fetch", "stem": stem})
        if got is not None and got[0].get("has_header"):
            self._raw[stem] = (got[1][:got[0]["header_len"]],
                               got[1][got[0]["header_len"]:]
                               if got[0].get("has_payload") else None)
            return self._raw[stem][0]
        raise OSError(f"record {stem!r} not available "
                      f"(remote {'offline' if self.offline else 'miss'})")

    def read_payload(self, stem: str) -> bytes:
        if stem in self._raw:
            payload = self._raw[stem][1]
            if payload is None:
                raise OSError(f"no payload for {stem!r}")
            return payload
        if self._cached(stem):
            return self.cache.read_payload(stem)
        raise OSError(f"record {stem!r} not available "
                      f"(remote {'offline' if self.offline else 'miss'})")

    def has_payload(self, stem: str) -> bool:
        if stem in self._raw:
            return self._raw[stem][1] is not None
        return self.cache.has_payload(stem)

    def put(self, stem: str, header_bytes: bytes, payload: bytes) -> None:
        self.cache.open()
        self.cache.put(stem, header_bytes, payload)
        self._try_call({"op": "put", "stem": stem,
                        "header_len": len(header_bytes)},
                       header_bytes + payload)

    # -- manifest ----------------------------------------------------------

    def manifest_present(self) -> bool:
        got = self._try_call({"op": "manifest_read"})
        if got is not None:
            return bool(got[0].get("present"))
        return self.cache.manifest_present()

    def manifest_label(self) -> str:
        return f"{self.url}/{MANIFEST_NAME}"

    def read_manifest_bytes(self) -> bytes | None:
        got = self._try_call({"op": "manifest_read"})
        if got is not None:
            meta, blob = got
            return blob if meta.get("present") else None
        return self.cache.read_manifest_bytes()

    def _cache_manifest_view(self, records: dict[str, str]) -> None:
        """Write the cache manifest as the cached-stems slice of
        ``records`` -- an offline load of the cache must be a healthy
        (smaller) store, not a wall of missing-record damage."""
        try:
            headers, payloads = self.cache.list_pairs()
            present = headers & payloads
            self.cache.write_manifest(encode_manifest(
                {s: n for s, n in records.items() if s in present}))
        except (OSError, StoreError):
            pass

    def write_manifest(self, data: bytes) -> None:
        try:
            records = parse_manifest(data)
        except ValueError:
            records = {}
        self._cache_manifest_view(records)
        self._try_call({"op": "manifest_write"}, data)

    # -- locks -------------------------------------------------------------

    def store_lock(self, timeout: float) -> StoreLock:
        # Serializes writers *sharing this cache directory*; clients
        # with separate caches meet only at the server, whose op lock
        # makes each put and manifest write atomic.  The store may
        # exist only remotely so far -- make sure the lock has a home.
        self.cache.open()
        return self.cache.store_lock(timeout)

    # -- maintenance -------------------------------------------------------

    def prune(self, live_stems: set[str]) -> list[str]:
        # Local debris only: the server is shared, and records this
        # client no longer has may be exactly what another client
        # needs.  Server-side GC is an operator action, not a save
        # side effect.
        return self.cache.prune(live_stems)

    def ensure_quarantine_dir(self) -> str | None:
        got = self._try_call({"op": "quarantine_ensure"})
        if got is not None:
            return got[0].get("qerror")
        return self.cache.ensure_quarantine_dir()

    def quarantine_pair(self, stem: str) -> tuple[bool, str | None]:
        # Damage seen through this backend is either at-rest on the
        # server (quarantine there, authoritatively) or -- offline --
        # in the cache (quarantine locally).
        got = self._try_call({"op": "quarantine_pair", "stem": stem})
        if got is not None:
            try:  # drop any local copy of the damaged pair
                self.cache.delete(stem)
            except OSError:
                pass
            self._raw.pop(stem, None)
            return bool(got[0].get("moved")), got[0].get("qerror")
        return self.cache.quarantine_pair(stem)

    def signature(self) -> tuple:
        got = self._try_call({"op": "rev"})
        if got is not None:
            return ("remote", self.url, got[0].get("rev"))
        return ("remote-offline",) + self.cache.signature()

    # -- addressing --------------------------------------------------------

    def describe(self, stem: str, suffix: str) -> str:
        return f"{self.url}/{stem}{suffix}"
