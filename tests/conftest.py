"""Shared fixtures and helpers for the test suite."""

import os

import pytest

from repro.basis import make_basis

# -- store-backend matrix ------------------------------------------------
#
# Tests that request the ``backend_kind`` fixture run against every
# store backend (see repro.cm.backend): the ``.bin`` directory
# (``flat``) and a loopback store server fronted by a local cache
# (``remote``).

BACKEND_KINDS = ("flat", "remote")


def pytest_generate_tests(metafunc):
    if "backend_kind" in metafunc.fixturenames:
        metafunc.parametrize("backend_kind", BACKEND_KINDS)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "backend_kind" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.backend)


_HARNESS_SEQ = [0]


class BackendHarness:
    """One persistent store reachable through a chosen backend kind.

    Hides the kind-specific plumbing so differential tests are written
    once: :meth:`backend` hands out client backends over the same
    underlying storage (for ``remote``, a loopback server plus one
    write-through cache per client), and :attr:`at_rest_dir` names the
    directory holding the *authoritative* record pairs -- the place
    at-rest damage must be injected to reach every client.
    """

    def __init__(self, kind: str, base_dir):
        self.kind = kind
        self.base = str(base_dir)
        self.server = None
        self.url = None
        self._clients = 0
        if kind == "remote":
            from repro.cm import StoreServer, register_loopback

            self.server_root = os.path.join(self.base, "server")
            _HARNESS_SEQ[0] += 1
            self._loopback = f"conformance-{_HARNESS_SEQ[0]}"
            self.server = StoreServer(self.server_root)
            register_loopback(self._loopback, self.server)
            self.url = f"loopback://{self._loopback}"

    def backend(self, fs=None, fresh_cache=False,
                cache_cap_bytes=None, compress=True):
        """A client backend over this harness's store.

        ``fs`` routes the *client-side* writes (cache writes for
        remote) through a fault-injection filesystem.  For remote,
        ``fresh_cache=True`` simulates a brand-new machine: an empty
        local cache that must fetch everything from the server.
        """
        from repro.cm import DirectoryBackend
        from repro.cm.remote import remote_backend_from_url

        # Store/cache dirs are named ".bin" so the CLI's fsck mode can
        # target them directly (it treats any other name as a srcdir).
        if self.kind == "flat":
            return DirectoryBackend(os.path.join(self.base, ".bin"), fs=fs)
        if fresh_cache:
            self._clients += 1
        cache_dir = os.path.join(self.base, f"cache{self._clients}", ".bin")
        return remote_backend_from_url(self.url, cache_dir, fs=fs,
                                       cache_cap_bytes=cache_cap_bytes,
                                       compress=compress)

    @property
    def at_rest_dir(self) -> str:
        """Where the authoritative record pair files live on disk."""
        if self.kind == "remote":
            return self.server_root
        return os.path.join(self.base, ".bin")

    def close(self):
        if self.kind == "remote":
            from repro.cm import unregister_loopback

            unregister_loopback(self._loopback)


@pytest.fixture
def store_harness(backend_kind, tmp_path):
    """A :class:`BackendHarness` for the parameterized backend kind."""
    harness = BackendHarness(backend_kind, tmp_path)
    yield harness
    harness.close()
from repro.dynamic.evaluate import eval_decs
from repro.elab.topdec import elaborate_decs
from repro.lang.parser import parse_program
from repro.semant.format import format_type


@pytest.fixture(scope="session")
def basis():
    """The shared pervasive basis (expensive; build once)."""
    return make_basis()


@pytest.fixture
def elab(basis):
    """elab(src) -> exported static env."""

    def run(src):
        env, _el = elaborate_decs(parse_program(src), basis.static_env)
        return env

    return run


@pytest.fixture
def elab_full(basis):
    """elab_full(src) -> (exported static env, elaborator)."""

    def run(src):
        return elaborate_decs(parse_program(src), basis.static_env)

    return run


@pytest.fixture
def run_sml(basis):
    """run_sml(src) -> (static export env, dynamic frame).

    Elaborates and evaluates the program against the basis.
    """

    def run(src):
        decs = parse_program(src)
        env, _el = elaborate_decs(decs, basis.static_env)
        frame = basis.dyn_env.child()
        eval_decs(decs, frame)
        return env, frame

    return run


@pytest.fixture
def value_of(run_sml):
    """value_of(src, name) -> the dynamic value of a top-level binding."""

    def run(src, name):
        _env, frame = run_sml(src)
        return frame.lookup_value(name)

    return run


@pytest.fixture
def type_of(elab):
    """type_of(src, name) -> the rendered type of a top-level binding."""

    def run(src, name):
        env = elab(src)
        return format_type(env.values[name].scheme)

    return run


@pytest.fixture
def broken_process_pools(monkeypatch):
    """Process pools that fail their probe, as on a platform without
    working semaphores.  Returns the list of every such pool made."""
    import concurrent.futures

    made = []

    class BrokenProcessPool:
        def __init__(self, max_workers=None):
            self.shut_down = False
            made.append(self)

        def submit(self, *args, **kwargs):
            raise OSError("process pools do not work here")

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shut_down = True

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        BrokenProcessPool)
    return made
