"""Remote-store transport faults (tier 1).

The contract under test: **the network can never cost more than a
local recompile.**  A :class:`FaultyTransport` breaks the Nth response
-- dropped connection, timeout, truncated frame, bit-garbled frame --
and, latched, every response after it, the way a dead cache server
stays dead.  For every mode and every N a warm-up session performs,
the faulted session must:

- load without raising and build to the right answer;
- record any recompile the fault caused as a **store-miss** in the
  explanation ledger -- a transport failure is an *absence*, never
  ``quarantined`` damage (the frame codec's CRC rejects mangled frames
  before they can impersonate at-rest records);
- converge to export pids byte-identical to a no-cache build;
- leave a local cache that fsck calls healthy.
"""

import pytest

from repro.cm import (BinRecord, BinStore, CutoffBuilder, Project,
                      register_loopback, unregister_loopback)
from repro.cm.__main__ import main
from repro.cm.faults import FaultyTransport, TransportPlan
from repro.cm.remote import LoopbackTransport, RemoteBackend, StoreServer
from repro.obs.ledger import RECOMPILE_CAUSES, REUSE_CAUSES
from repro.workload import generate_workload
from repro.workload.shapes import diamond

SOURCES = {
    "base": "structure Base = struct fun triple x = 3 * x end",
    "mid": "structure Mid = struct fun six x = Base.triple (2 * x) end",
    "app": "structure App = struct val answer = Mid.six 7 end",
}

ANSWER = 42

URL = "rbs://faulty.test"


@pytest.fixture(scope="module")
def no_cache_build():
    """The no-cache baseline every faulted session must reproduce."""
    builder = CutoffBuilder(Project.from_sources(SOURCES))
    builder.build()
    pids = {name: unit.export_pid for name, unit in builder.units.items()}
    payloads = {name: builder.store.get(name).payload
                for name in builder.store.names()}
    return pids, payloads


@pytest.fixture
def cli_client(tmp_path, capsys):
    """``build(client, sources)``: a CLI build of ``sources`` in the
    client's own directory against one loopback server every client of
    the test shares; returns what the build printed."""
    url = register_loopback("shared-cli",
                            StoreServer(str(tmp_path / "server")))

    def build(client, sources):
        srcdir = tmp_path / client
        srcdir.mkdir(exist_ok=True)
        for name, text in sources.items():
            (srcdir / f"{name}.sml").write_text(text)
        assert main([str(srcdir), "--store-url", url, "--no-link"]) == 0
        return capsys.readouterr().out

    yield build
    unregister_loopback("shared-cli")


def sources_of(workload):
    return {name: workload.project.source(name)
            for name in workload.project.names()}


@pytest.fixture
def server(tmp_path, no_cache_build):
    """A loopback server seeded with a full clean build."""
    srv = StoreServer(str(tmp_path / "server"))
    cache = str(tmp_path / "seed-cache")
    backend = RemoteBackend(URL, cache, LoopbackTransport(srv))
    builder = CutoffBuilder(Project.from_sources(SOURCES),
                            store=BinStore(backend=backend))
    builder.build()
    builder.store.save_directory(cache)
    return srv


def faulted_session(server, cache_dir, plan):
    """One fresh-cache client session over ``server`` with ``plan``
    breaking the wire.  Returns (builder, backend, transport)."""
    transport = FaultyTransport(LoopbackTransport(server), plan)
    backend = RemoteBackend(URL, cache_dir, transport)
    store = BinStore.load_directory(cache_dir, backend=backend)  # no raise
    builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
    builder.build()  # no raise either
    return builder, backend, transport


def count_responses(server, tmp_path):
    """How many responses one fresh-cache build session consumes."""
    transport = FaultyTransport(LoopbackTransport(server))
    backend = RemoteBackend(URL, str(tmp_path / "dry-cache"), transport)
    store = BinStore.load_directory(str(tmp_path / "dry-cache"),
                                    backend=backend)
    builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
    builder.build()
    builder.store.save_directory(str(tmp_path / "dry-cache"))
    return transport.responses


MODES = ("drop", "timeout", "truncate", "garble")


class TestEveryFaultIsACleanMiss:
    @pytest.mark.parametrize("mode", MODES)
    def test_fault_sweep(self, server, tmp_path, mode, no_cache_build):
        clean_pids, clean_payloads = no_cache_build
        total = count_responses(server, tmp_path)
        assert total >= 3  # open + list + at least one fetch

        for fault_at in range(1, total + 1):
            cache_dir = str(tmp_path / f"{mode}-{fault_at}")
            plan = TransportPlan(fault_at=fault_at, mode=mode)
            builder, backend, transport = faulted_session(
                server, cache_dir, plan)

            # Byte-identical to the no-cache build.
            exports = builder.link()
            assert (exports["app"].structures["App"].values["answer"]
                    == ANSWER)
            for name, pid in clean_pids.items():
                assert builder.units[name].export_pid == pid, \
                    (mode, fault_at, name)
            for name, payload in clean_payloads.items():
                assert builder.store.get(name).payload == payload, \
                    (mode, fault_at, name)

            # A transport fault is an absence, not damage: the miss is
            # clean (no CorruptRecord, no quarantine), and the ledger
            # books every recompile as a store-miss.
            assert not builder.health.corrupt, (mode, fault_at)
            assert builder.health.quarantined() == set()
            for decision in builder.ledger:
                assert decision.cause in RECOMPILE_CAUSES + REUSE_CAUSES
                if decision.verdict == "recompiled":
                    assert decision.cause == "store-miss", \
                        (mode, fault_at, decision.unit, decision.cause)

            # Saving through the backend still works locally (the
            # session spans load+build+save, so a late fault_at fires
            # here), and the local cache ends healthy.
            builder.store.save_directory(cache_dir)
            assert transport.faults_fired >= 1, (mode, fault_at)
            local = BinStore.fsck(cache_dir)
            assert local.ok, (mode, fault_at, local.render_text())

    @pytest.mark.parametrize("mode", MODES)
    def test_fault_on_first_response_is_full_local_build(
            self, server, tmp_path, mode, no_cache_build):
        """The server dead from the very first packet: the session is
        just a plain local from-scratch build with a note."""
        clean_pids, _payloads = no_cache_build
        cache_dir = str(tmp_path / f"dead-{mode}")
        transport = FaultyTransport(LoopbackTransport(server),
                                    TransportPlan(fault_at=1, mode=mode))
        backend = RemoteBackend(URL, cache_dir, transport)
        store = BinStore.load_directory(cache_dir, backend=backend)
        builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        report = builder.build()
        assert backend.offline
        assert sorted(report.compiled) == sorted(SOURCES)
        for decision in builder.ledger:
            assert decision.cause == "store-miss"
        for name, pid in clean_pids.items():
            assert builder.units[name].export_pid == pid
        assert any("offline" in note for note in builder.health.notes)


class TestSocketTransport:
    def test_real_socket_round_trip_and_dead_server(self, tmp_path,
                                                    no_cache_build):
        """The rbs:// socket path: a save/load round trip over a real
        TCP connection, then the server goes away and the client
        latches offline with a clean local build."""
        from repro.cm.remote import SocketTransport, serve_socket

        clean_pids, _payloads = no_cache_build
        server = StoreServer(str(tmp_path / "server"))
        tcp, port = serve_socket(server)
        try:
            url = f"rbs://127.0.0.1:{port}"
            cache = str(tmp_path / "sock-cache")
            backend = RemoteBackend(url, cache,
                                    SocketTransport("127.0.0.1", port))
            builder = CutoffBuilder(Project.from_sources(SOURCES),
                                    store=BinStore(backend=backend))
            builder.build()
            builder.store.save_directory(cache)
            assert server.rev > 0

            cache2 = str(tmp_path / "sock-cache2")
            backend2 = RemoteBackend(url, cache2,
                                     SocketTransport("127.0.0.1", port))
            store = BinStore.load_directory(cache2, backend=backend2)
            session = CutoffBuilder(Project.from_sources(SOURCES),
                                    store=store)
            report = session.build()
            assert report.compiled == []
            for name, pid in clean_pids.items():
                assert session.units[name].export_pid == pid
        finally:
            tcp.shutdown()
            tcp.server_close()

        # Server gone: a new client latches offline, builds locally.
        cache3 = str(tmp_path / "sock-cache3")
        backend3 = RemoteBackend(url, cache3,
                                 SocketTransport("127.0.0.1", port))
        store = BinStore.load_directory(cache3, backend=backend3)
        session = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        report = session.build()
        assert backend3.offline
        assert sorted(report.compiled) == sorted(SOURCES)
        for name, pid in clean_pids.items():
            assert session.units[name].export_pid == pid


class TestFaultsDoNotPoisonTheServer:
    def test_recovered_client_reuses_server_records(self, server,
                                                    tmp_path,
                                                    no_cache_build):
        """After a faulted session, a healthy client (network restored)
        still loads everything from the untouched server."""
        clean_pids, _payloads = no_cache_build
        faulted_session(server, str(tmp_path / "victim"),
                        TransportPlan(fault_at=2, mode="drop"))

        cache_dir = str(tmp_path / "healthy")
        backend = RemoteBackend(URL, cache_dir, LoopbackTransport(server))
        store = BinStore.load_directory(cache_dir, backend=backend)
        builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        report = builder.build()
        assert report.compiled == []
        assert sorted(report.loaded) == sorted(SOURCES)
        for name, pid in clean_pids.items():
            assert builder.units[name].export_pid == pid


class TestWarmLocalCache:
    def test_second_session_is_served_from_the_local_cache(self, server,
                                                          tmp_path):
        """Fetched pairs whose payload digest checks out are cached, so
        the next session over the same cache fetches nothing."""
        cache_dir = str(tmp_path / "client")
        first = RemoteBackend(URL, cache_dir, LoopbackTransport(server))
        store = BinStore.load_directory(cache_dir, backend=first)
        assert first.remote_fetches == len(SOURCES)
        builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        assert builder.build().compiled == []

        second = RemoteBackend(URL, cache_dir, LoopbackTransport(server))
        store = BinStore.load_directory(cache_dir, backend=second)
        assert store.health.ok and len(store) == len(SOURCES)
        assert second.cache_hits == len(SOURCES)
        assert second.remote_fetches == 0


class TestSharedStore:
    def test_a_smaller_project_leaves_other_clients_records(
            self, server, tmp_path):
        """Client B's project lacks ``app``.  Its build and save must
        leave ``app`` on the shared server (server-side GC is an
        operator action), so client A, whose project has it, still
        loads it instead of recompiling."""
        partial = {n: s for n, s in SOURCES.items() if n != "app"}
        project = Project.from_sources(partial)
        project.edit("mid", "structure Mid = struct "
                            "fun six x = Base.triple (x + x) end")
        cache_b = str(tmp_path / "client-b")
        store = BinStore.load_directory(
            cache_b,
            backend=RemoteBackend(URL, cache_b, LoopbackTransport(server)))
        builder = CutoffBuilder(project, store=store)
        assert builder.build().compiled == ["mid"]
        assert "app" not in builder.units
        store.save_directory(cache_b)

        cache_a = str(tmp_path / "client-a")
        store = BinStore.load_directory(
            cache_a,
            backend=RemoteBackend(URL, cache_a, LoopbackTransport(server)))
        assert store.health.ok, store.health.render_text()
        assert store.names() == sorted(SOURCES)
        builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        report = builder.build()
        assert report.compiled == ["mid"]
        assert sorted(report.loaded) == ["app", "base"]
        exports = builder.link()
        assert exports["app"].structures["App"].values["answer"] == ANSWER

    def test_an_unreplaced_pair_costs_one_empty_reply(self, server,
                                                      tmp_path):
        """Asking the server for another client's record of a unit no
        one replaced sends no pair back."""
        cache = str(tmp_path / "client")
        backend = RemoteBackend(URL, cache, LoopbackTransport(server))
        store = BinStore.load_directory(cache, backend=backend)
        fetched, requests = backend.remote_fetches, server.requests
        assert store.refresh("mid") is None
        assert backend.remote_fetches == fetched
        assert server.requests == requests + 1

    def test_a_pair_another_client_replaced_is_refetched(self,
                                                         cli_client):
        """Two CLI clients share a server.  B builds an interface edit;
        A, given the same sources, loads B's records instead of
        compiling from the copies its cache held before the edit."""
        workload = generate_workload(diamond(2, 2), helpers_per_unit=1)
        assert "6 compiled" in cli_client("a", sources_of(workload))
        assert "0 compiled, 6 loaded" in cli_client("b",
                                                    sources_of(workload))
        workload.edit_interface("u000")
        assert "3 compiled, 3 loaded" in cli_client("b",
                                                    sources_of(workload))
        assert "0 compiled, 6 loaded" in cli_client("a",
                                                    sources_of(workload))

    def test_a_pair_this_clients_sources_match_is_kept(self, cli_client):
        """Two CLI clients share a server and differ in one unit's
        source.  Each keeps the record its own sources match, so
        neither recompiles the other's edit away (the server keeps one
        record per unit, the last one saved)."""
        workload = generate_workload(diamond(2, 2), helpers_per_unit=1)
        original = sources_of(workload)
        workload.edit_implementation("u001")
        edited = sources_of(workload)
        assert "6 compiled" in cli_client("a", original)
        assert "0 compiled, 6 loaded" in cli_client("b", original)
        assert "1 compiled, 5 loaded" in cli_client("a", edited)
        assert "0 compiled, 6 loaded" in cli_client("b", original)
        assert "0 compiled, 6 loaded" in cli_client("a", edited)


class TestCompression:
    def test_compressible_record_crosses_the_wire_compressed(
            self, tmp_path):
        """No flag switches compression on: a record zlib shrinks goes
        up compressed on its put and comes back compressed on a fresh
        client's fetch."""
        payload = b"structure Big = struct end " * 2428  # 65,556 B
        record = BinRecord(name="big", source_digest="0" * 32,
                           export_pid="1" * 32, imports=[],
                           payload=payload)
        server = StoreServer(str(tmp_path / "server"))

        writer = str(tmp_path / "writer")
        store = BinStore(backend=RemoteBackend(
            URL, writer, LoopbackTransport(server)))
        store.put(record)
        bytes_in = server.bytes_in
        assert store.save_directory(writer).records_written == 1
        assert server.bytes_in - bytes_in < len(payload)

        reader = str(tmp_path / "reader")
        backend = RemoteBackend(URL, reader, LoopbackTransport(server))
        bytes_out = server.bytes_out
        loaded = BinStore.load_directory(reader, backend=backend)
        assert backend.remote_fetches == 1
        assert server.bytes_out - bytes_out < len(payload)
        assert loaded.health.ok, loaded.health.render_text()
        assert loaded.get("big").payload == payload


class TestFrameFormat:
    def test_frame_with_the_old_trailer_is_a_transport_error(self):
        """A frame ends in the content digest of everything before it.
        A CRC-128 trailer, under either magic, is refused."""
        from repro.cm.remote import decode_frame, encode_frame
        from repro.cm.seam import TransportError
        from repro.pids.crc128 import crc128_hex

        frame = encode_frame({"op": "get", "stem": "a"}, b"blob")
        assert decode_frame(frame) == ({"op": "get", "stem": "a"}, b"blob")
        body = frame[:-32]
        with pytest.raises(TransportError, match="integrity"):
            decode_frame(body + crc128_hex(body).encode("ascii"))
        old = b"RBS1" + body[4:]
        with pytest.raises(TransportError, match="magic"):
            decode_frame(old + crc128_hex(old).encode("ascii"))
