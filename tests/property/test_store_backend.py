"""Property tests for the store-backend protocol.

The law every backend must obey, whatever records a builder throws at
it -- **identity**: a save/load round trip through either backend --
the ``.bin`` directory or remote-with-cache -- reproduces every record
field byte-for-byte, and a second client with a fresh cache reads the
same records back.
"""

import itertools
import os
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cm import BinRecord, BinStore, StoreServer
from repro.cm.backend import DirectoryBackend
from repro.cm.remote import LoopbackTransport, RemoteBackend

# The same adversarial name/record space the flat round-trip suite uses.
names = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=24)
hostile = st.sampled_from(
    ["../x", "..", ".", "", "a/b", "a\\b", ".hidden", "%2E", "%",
     "store.lock", "MANIFEST.json", "x.bin", "c:\\evil"])
any_name = st.one_of(names, hostile)

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=12))
extras = st.dictionaries(st.text(max_size=8), json_scalars, max_size=4)

records = st.builds(
    BinRecord,
    name=any_name,
    source_digest=st.text("0123456789abcdef", min_size=4, max_size=32),
    export_pid=st.text("0123456789abcdef", min_size=4, max_size=32),
    imports=st.lists(
        st.tuples(st.text(max_size=8), st.text("0123456789abcdef",
                                               min_size=4, max_size=8)),
        max_size=3),
    payload=st.binary(max_size=256),
    built_at=st.integers(min_value=0, max_value=2**31),
    extra=extras,
)

record_lists = st.lists(records, max_size=6, unique_by=lambda r: r.name)

_SEQ = itertools.count()


def make_backend(kind, base, fresh_cache=False):
    """A client backend of ``kind`` over storage rooted in ``base``.

    Remote servers live directly in-process (no loopback registry, so
    concurrent hypothesis examples can't collide on names).
    """
    if kind == "flat":
        return DirectoryBackend(os.path.join(base, "store"))
    server_root = os.path.join(base, "server")
    if not hasattr(make_backend, "_servers"):
        make_backend._servers = {}
    server = make_backend._servers.get(server_root)
    if server is None:
        server = make_backend._servers[server_root] = StoreServer(server_root)
    cache = os.path.join(base, f"cache{next(_SEQ) if fresh_cache else 0}")
    return RemoteBackend("rbs://prop.test", cache, LoopbackTransport(server))


def assert_identical(loaded, record_list):
    for record in record_list:
        got = loaded.get(record.name)
        assert got is not None, record.name
        assert got.name == record.name
        assert got.source_digest == record.source_digest
        assert got.export_pid == record.export_pid
        assert got.imports == [tuple(p) for p in record.imports]
        assert got.payload == record.payload
        assert got.built_at == record.built_at
        assert got.extra == record.extra


@given(record_lists)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_load_identity_any_backend(backend_kind, record_list):
    base = tempfile.mkdtemp(prefix=f"backend-prop-{backend_kind}-")
    try:
        backend = make_backend(backend_kind, base)
        store = BinStore(backend=backend)
        for record in record_list:
            store.put(record)
        stats = store.save_directory(backend.root)
        assert stats.records_written == len(record_list)

        # A *different* client (fresh cache, for remote: everything
        # must come over the wire) sees the identical records.
        reader = make_backend(backend_kind, base, fresh_cache=True)
        loaded = BinStore.load_directory(reader.root, backend=reader)
        assert loaded.health.ok, loaded.health.render_text()
        assert loaded.names() == store.names()
        assert_identical(loaded, record_list)

        # Incremental: an untouched second save writes nothing.
        again = loaded.save_directory(reader.root)
        assert again.records_written == 0
    finally:
        shutil.rmtree(base, ignore_errors=True)
