"""Long-lived sessions retire superseded pids.

A daemon keeps one builder session, and one session per pool worker,
across every request.  A build that replaces a unit with a different
pid retires the old pid, so after any number of edit-and-rebuild cycles
the builder session registers exactly its live units' export pids plus
the basis, and a worker session exactly its cached units' pids plus the
basis -- memory follows the project, not the number of edits.  A worker
caches the units it compiles as well as those it loads.
"""

import pytest

from repro.basis import BASIS_PID
from repro.cm import (
    CutoffBuilder,
    Project,
    SmartBuilder,
    Supervisor,
    TimestampBuilder,
)
from repro.cm import parallel
from repro.cm.parallel import InlineExecutor
from repro.cm.supervise import SupervisePolicy
from repro.elab.errors import ElabError
from repro.pickle import UnresolvedStubError, rehydrate
from repro.units import Session, compile_unit
from repro.units.unit import CompiledUnit
from repro.workload import generate_workload
from repro.workload.shapes import diamond

from tests.helpers import store_files


def leaky_workload():
    """Base, two layers of two, top: every interface mentions its first
    import's type, so an interface edit moves pids downstream."""
    return generate_workload(diamond(2, 2), helpers_per_unit=1,
                             leak_types=True)


def edit_cycles(w):
    """Interface, implementation and comment edits, including one that
    reverts an interface to a pid the sessions already retired."""
    base, mid, top = "u000", "u001", "u005"
    original = w.project.source(base)
    yield lambda: w.edit_interface(base)
    yield lambda: w.edit_implementation(mid)
    yield lambda: w.project.edit(base, original)
    yield lambda: w.edit_interface(mid)
    yield lambda: w.edit_comment(top)
    yield lambda: w.edit_interface(base)
    yield lambda: w.edit_interface(top)


def assert_builder_flat(builder):
    live = {unit.export_pid for unit in builder.units.values()}
    assert builder.session.pids() == live | {BASIS_PID}


def assert_worker_flat():
    session, cache = parallel._tls.session, parallel._tls.units
    assert all(name == unit.name for name, unit in cache.items())
    cached = {unit.export_pid for unit in cache.values()}
    assert session.pids() == cached | {BASIS_PID}


class CheckingExecutor(InlineExecutor):
    """The inline tier, checking the worker session after every task."""

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        assert_worker_flat()
        return future


@pytest.fixture
def fresh_worker(monkeypatch):
    """A hermetic inline worker: this test's tasks start from an empty
    worker session and cache (restored afterwards)."""
    monkeypatch.setattr(parallel._tls, "session", None, raising=False)
    monkeypatch.setattr(parallel._tls, "units", None, raising=False)


@pytest.mark.parametrize("cls", [CutoffBuilder, SmartBuilder])
@pytest.mark.parametrize("loop", ["serial", "pump"])
def test_sessions_stay_flat_over_edit_cycles(cls, loop, fresh_worker):
    w = leaky_workload()
    builder = cls(w.project)

    def build():
        if loop == "serial":
            return builder.build()
        # The daemon's pump: supervised, pool kept across requests.
        return Supervisor(
            jobs=1, policy=SupervisePolicy(), keep_executor=True,
            executor_factory=lambda jobs: (CheckingExecutor(), "inline"),
        ).build(builder)

    build()
    assert_builder_flat(builder)
    for edit in edit_cycles(w):
        edit()
        report = build()
        assert not report.failed
        assert_builder_flat(builder)
        if loop == "pump":
            assert_worker_flat()
        # Same export pids as a from-scratch build of these sources.
        fresh = CutoffBuilder(w.project)
        fresh.build()
        assert ({n: u.export_pid for n, u in builder.units.items()}
                == {n: u.export_pid for n, u in fresh.units.items()})
    exports = builder.link()
    assert set(exports) == set(w.project.names())


def test_worker_evicts_dependents_of_a_superseded_unit(fresh_worker):
    # The worker caches u000 and u001, u001 rehydrated against u000's
    # objects.  A task that supersedes u000 must evict u001 with it:
    # otherwise, once u000's interface reverts to the first pid, a
    # later task pairs a freshly rehydrated u000 with the u001 cached
    # against the retired objects, and ``z``, which applies
    # ``M001.probe : M000.t -> int`` to a fresh ``M000.t``, fails.
    # The worker keeps what it compiles, so after recompiling u001
    # against the edited u000 it caches that u001; the revert must
    # evict it again.
    w = leaky_workload()
    w.project.add("z", "structure Z = struct "
                       "val q = M001.probe (M000.make 1) end")
    builder = CutoffBuilder(w.project)

    def run(name):
        builder.build()
        graph = builder.last_graph
        result = parallel.compile_task(
            parallel._make_task(builder, graph, name))
        assert_worker_flat()
        assert result.error is None
        assert result.export_pid == builder.units[name].export_pid

    run("u003")
    assert {"u000", "u001", "u002"} <= set(parallel._tls.units)
    original = w.project.source("u000")
    w.edit_interface("u000")
    run("u001")
    assert set(parallel._tls.units) == {"u000", "u001"}
    assert (parallel._tls.units["u001"].export_pid
            == builder.units["u001"].export_pid)
    w.project.edit("u000", original)
    run("z")


class TestWorkerKeepsWhatItCompiles:
    """A worker caches each unit it compiles, as a builder keeps its
    live units, so a later task whose closure holds that unit meets the
    worker's own objects instead of decoding the payload the worker
    itself produced.  The bytes must not notice."""

    def test_worker_decodes_nothing_it_compiled(self, fresh_worker,
                                                monkeypatch):
        builder = CutoffBuilder(leaky_workload().project)
        builder.build()
        graph = builder.last_graph
        assert graph.deps["u001"] == ["u000"]
        decoded = []
        decode_own = CompiledUnit._decode_own

        def counting(unit):
            decoded.append(unit.name)
            return decode_own(unit)

        monkeypatch.setattr(CompiledUnit, "_decode_own", counting)
        for name in ("u000", "u001"):
            result = parallel.compile_task(
                parallel._make_task(builder, graph, name))
            assert result.error is None
            assert result.payload == builder.units[name].payload
        assert decoded == []
        assert set(parallel._tls.units) == {"u000", "u001"}
        assert_worker_flat()

    def test_pooled_cold_build_matches_serial(self, tmp_path):
        project = leaky_workload().project
        serial = CutoffBuilder(project)
        serial.build()
        serial.store.save_directory(str(tmp_path / "serial"))
        pooled = CutoffBuilder(project)
        report = Supervisor(jobs=2).build(pooled)
        assert report.pool in ("process", "thread")
        assert sorted(report.compiled) == sorted(project.names())
        pooled.store.save_directory(str(tmp_path / "pooled"))
        assert ({n: u.export_pid for n, u in pooled.units.items()}
                == {n: u.export_pid for n, u in serial.units.items()})
        assert (store_files(str(tmp_path / "pooled"))
                == store_files(str(tmp_path / "serial")))


A1 = "structure A = struct datatype t = T of int fun get (T n) = n end"
A2 = "structure A = struct datatype t = U of int fun get (U n) = n end"
B = "structure B = struct val v = A.T 3 end"
C = "structure C = struct val w = B.v val n = A.get B.v end"


class TestUnitsBoundToARetiredProvider:
    """A unit whose provider was replaced, but which was not replaced
    itself (its recompile failed, or its provider's source was gone),
    still holds objects that reach the provider's retired pid.  Once
    the provider's old pid comes back, the unit must be reloaded
    against the live objects, not reused as ``cached``: a unit compiled
    against it would otherwise fail to type-check or to dehydrate."""

    @staticmethod
    def build(builder, loop):
        if loop == "serial":
            try:
                report = builder.build()
            except ElabError:
                report = None  # the serial loop stops at the failure
        else:
            report = Supervisor(
                jobs=1, policy=SupervisePolicy()).build(builder)
        assert_builder_flat(builder)
        return report

    def check_c(self, builder, loop, project):
        project.add("c", C)
        report = self.build(builder, loop)
        assert report.compiled == ["c"] and not report.failed
        values = builder.link()["c"].structures["C"].values
        assert values["n"] == 3

    @pytest.mark.parametrize("cls", [CutoffBuilder, SmartBuilder])
    @pytest.mark.parametrize("loop", ["serial", "pump"])
    def test_failed_dependent_of_a_reverted_edit(self, cls, loop,
                                                 fresh_worker):
        project = Project.from_sources({"a": A1, "b": B})
        builder = cls(project)
        self.build(builder, loop)
        project.edit("a", A2)  # B no longer compiles
        report = self.build(builder, loop)
        assert report is None or report.failed == ["b"]
        project.edit("a", A1)
        report = self.build(builder, loop)
        assert report.compiled == ["a"] and report.loaded == ["b"]
        self.check_c(builder, loop, project)

    @pytest.mark.parametrize("cls", [CutoffBuilder, SmartBuilder])
    @pytest.mark.parametrize("loop", ["serial", "pump"])
    def test_dependent_of_a_deleted_then_restored_provider(
            self, cls, loop, fresh_worker):
        project = Project.from_sources({"a": A1, "b": B})
        builder = cls(project)
        self.build(builder, loop)
        project.remove("a")
        report = self.build(builder, loop)
        assert report is None or report.failed == ["b"]
        assert "a" not in builder.units
        project.add("a", A1)
        report = self.build(builder, loop)
        assert report.compiled == ["a"] and report.loaded == ["b"]
        self.check_c(builder, loop, project)


X = ("structure A = struct datatype t = T of int fun get (T n) = n "
     "val k = 1 end")
Y = "structure C = struct val v = A.T 3 end"
V = "structure Z = struct val q = A.get C.v end"


def registered_stamps(session):
    return len(session._stamp_to_ref)


class TestSamePidRecompile:
    """An implementation edit recompiles a unit to the pid it had.  Its
    cached dependents were elaborated against its export objects, so
    the recompiled unit keeps them: a unit compiled next meets the same
    objects, and the session registers no new stamps."""

    @staticmethod
    def build(builder, jobs):
        if jobs == 0:
            return builder.build()
        return Supervisor(jobs=jobs).build(builder)

    @pytest.mark.parametrize("cls", [CutoffBuilder, SmartBuilder,
                                     TimestampBuilder],
                             ids=["cutoff", "smart", "make"])
    @pytest.mark.parametrize("jobs", [0, 1, 2],
                             ids=["serial", "pump-1", "pump-2"])
    def test_new_dependent_meets_the_kept_objects(self, cls, jobs,
                                                  fresh_worker):
        project = Project.from_sources({"x": X, "y": Y})
        builder = cls(project)
        self.build(builder, jobs)
        pid = builder.units["x"].export_pid
        stamps = registered_stamps(builder.session)
        project.edit("x", X.replace("val k = 1", "val k = 2"))
        report = self.build(builder, jobs)
        assert "x" in report.compiled
        assert builder.units["x"].export_pid == pid
        recompiled = registered_stamps(builder.session)
        project.add("v", V)
        report = self.build(builder, jobs)
        assert report.compiled == ["v"] and not report.failed
        assert builder.link()["v"].structures["Z"].values["q"] == 3
        assert recompiled == stamps

    @pytest.mark.parametrize("jobs", [0, 1, 2],
                             ids=["serial", "pump-1", "pump-2"])
    def test_stamp_count_stays_flat(self, jobs, fresh_worker):
        project = Project.from_sources({"x": X, "y": Y})
        builder = CutoffBuilder(project)
        self.build(builder, jobs)
        stamps = registered_stamps(builder.session)
        for k in range(2, 7):
            project.edit("x", X.replace("val k = 1", f"val k = {k}"))
            assert self.build(builder, jobs).compiled == ["x"]
            assert registered_stamps(builder.session) == stamps
        assert_builder_flat(builder)


class TestSessionRetire:
    SOURCE = "structure A = struct datatype t = T of int val x = T 1 end"

    def test_retire_forgets_the_pid(self):
        session = Session()
        unit = compile_unit("a", self.SOURCE, [], session)
        assert unit.export_pid in session.pids()
        session.retire(unit.export_pid)
        assert session.pids() == {BASIS_PID}
        with pytest.raises(KeyError):
            session.resolve(unit.export_pid, 0)
        with pytest.raises(KeyError):
            session.extern(unit.export_index[0].stamp.id)

    def test_stub_into_a_retired_pid_is_typed(self):
        session = Session()
        a = compile_unit("a", self.SOURCE, [], session)
        b = compile_unit("b", "structure B = struct val y = A.x end",
                         [a], session)
        session.retire(a.export_pid)
        with pytest.raises(UnresolvedStubError) as info:
            rehydrate(b.payload, session.resolve)
        assert info.value.pid == a.export_pid

    def test_retiring_an_unknown_pid_is_a_no_op(self):
        session = Session()
        session.retire("f" * 32)
        assert session.pids() == {BASIS_PID}
