"""The three closed-loop workloads: one client, no think time.

Each workload primes a session (generation plus a first build), then
sends requests back to back for the run's seconds, checking every reply
against the oracle in :mod:`bench.project`.  A traced run replays the
same requests on a second, identically primed session through the shim,
so ``bench.trace_overhead_ratio`` compares like with like.

Why these three: a developer meets the build system as a batch command
per edit (``cli-session``: every request a new session, dominated by
start-up, dependency analysis and store load), as a resident daemon
(``daemon-session``: warm state, dominated by stat refresh, decide and
incremental compiles), or as a from-scratch build (``cold-parallel``:
the only one where the compile pipeline, task shipping and link
dominate).  Each bypasses what another stresses.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field

from bench.calibrate import Calibration
from bench.layers import SpanTree, request_layers
from bench.project import KINDS, RESULT, BenchProject, schedule, t5_shape
from bench.runner import CliRun, Daemon, DaemonError, run_cli
from bench.stats import median

CLI_TIMEOUT = 120.0
DAEMON_TIMEOUT = 60.0
#: cold-parallel applies this many of the seed's edits before building,
#: so the seed changes the sources and the oracle's answer.
COLD_EDITS = 8


@dataclass
class Sample:
    """One measured request."""

    kind: str
    unit: str | None
    wall: float
    compiled: int = 0
    cascade: int = 0
    rss_mb: float = 0.0
    pool: str = ""
    #: Daemon round trip minus the reply's own ``wall_seconds``.
    wire: float = 0.0
    #: Per-layer values (traced requests only).
    layers: dict | None = None


@dataclass
class Ledger:
    """Operations attempted against the system, and which failed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


@dataclass
class Session:
    """One primed project directory (and daemon, for daemon-session)."""

    project: BenchProject
    directory: str
    traced: bool
    daemon: Daemon | None = None
    serial: int = 0
    dumps: list[dict] = field(default_factory=list)
    #: (sample, spawn time, spans file) of traced CLI requests.
    pending: list[tuple] = field(default_factory=list)

    def log(self, tag: str) -> str:
        self.serial += 1
        return os.path.join(self.directory + ".logs",
                            f"{self.serial:04d}-{tag}")


def _unit_check(project: BenchProject, outcomes: dict[str, str],
                kind: str, unit: str | None) -> tuple[bool, int, int, str]:
    """Every unit accounted for, and nothing compiled outside make's
    cascade (everything, for a priming build); returns (ok, compiled,
    cascade size, why not)."""
    compiled = {n for n, action in outcomes.items() if action == "compiled"}
    cascade = set(project.names) if kind == "prime" else \
        project.cascade(unit)
    if set(outcomes) != set(project.names):
        return False, len(compiled), len(cascade), \
            f"{kind} {unit}: {len(outcomes)} of {len(project.names)} units"
    bad = sorted(n for n, a in outcomes.items()
                 if a not in ("compiled", "loaded", "cached"))
    if bad:
        return False, len(compiled), len(cascade), \
            f"{kind} {unit}: not built: {bad[:3]}"
    if not compiled <= cascade:
        return False, len(compiled), len(cascade), \
            f"{kind} {unit}: compiled outside make's cascade: " \
            f"{sorted(compiled - cascade)[:3]}"
    return True, len(compiled), len(cascade), ""


class Workload:
    """A workload's session life cycle; see the module docstring."""

    name = ""
    why = ""
    #: Request kinds; a run sends at least one of each.
    kinds = KINDS
    #: Shim sites this workload never reaches (everything else must fire
    #: in a traced run).
    bypassed: frozenset = frozenset()

    def __init__(self, workdir: str, ledger: Ledger):
        self.workdir = workdir
        self.ledger = ledger
        self._sessions = 0
        self.open: list[Session] = []

    def requests(self, seed: int):
        return schedule(seed, BenchProject(t5_shape()).units)

    def new_session(self, seed: int, traced: bool) -> Session:
        self._sessions += 1
        directory = os.path.join(self.workdir,
                                 f"{self.name}-{self._sessions}")
        os.makedirs(directory + ".logs")
        project = BenchProject(t5_shape())
        project.write(directory)
        self.open.append(Session(project, directory, traced))
        return self.open[-1]

    def prime(self, seed: int, traced: bool) -> Session:
        raise NotImplementedError

    def serve(self, session: Session, kind: str, unit: str | None) -> Sample:
        raise NotImplementedError

    def close(self, session: Session) -> None:
        """Stop the session's processes and collect its traces."""

    def verify(self, session: Session) -> None:
        """End-of-session checks (untimed): a ``--print`` build must
        compile nothing and print the oracle's value, and the store's
        export pids must equal a fresh serial build's."""
        self.final_print(session)
        self.check_pids(session)

    def shutdown(self) -> None:
        """Close and delete every session still open."""
        while self.open:
            close_and_clean(self, self.open[-1])

    def check_sites(self, session: Session) -> None:
        """Every wrapped site this workload reaches must have fired."""
        fired: dict[str, int] = {}
        for dump in session.dumps:
            for site, count in dump["fired"].items():
                fired[site] = fired.get(site, 0) + count
        missing = sorted(site for site, count in fired.items()
                         if not count and site not in self.bypassed)
        self.ledger.check(bool(fired) and not missing,
                          f"shim sites never fired (missing): {missing}")

    def peak_rss_mb(self, session: Session, samples: list[Sample]) -> float:
        return median([s.rss_mb for s in samples])

    def layers(self, session: Session, samples: list[Sample]) -> None:
        """Attach per-layer values to traced samples."""
        for sample, spawned, spans_path in session.pending:
            dump = _read_dump(spans_path)
            if dump is None:
                self.ledger.check(False, f"no trace from {spans_path}")
                continue
            session.dumps.append(dump)
            tree = SpanTree(dump["spans"])
            root = tree.named("cli.main")[0]
            sample.layers = request_layers(
                tree, root, sample.wall, startup=dump["entered"] - spawned,
                cascade_size=sample.cascade)

    # -- shared steps -------------------------------------------------------

    def cli(self, session: Session, argv: list[str], tag: str,
            traced: bool = False) -> tuple[CliRun, str | None]:
        log = session.log(tag)
        spans = log + ".spans.json" if traced else None
        return run_cli([session.directory, *argv], log + ".log",
                       CLI_TIMEOUT, spans_path=spans), spans

    def check_run(self, run: CliRun, what: str) -> bool:
        if run.timed_out:
            return self.ledger.check(False, f"{what}: timed out")
        return self.ledger.check(run.returncode == 0,
                                 f"{what}: exit {run.returncode}")

    def final_print(self, session: Session) -> None:
        run, _ = self.cli(session, ["--print", RESULT], "final")
        compiled = [n for n, a in run.outcomes.items() if a == "compiled"]
        expected = str(session.project.value())
        self.ledger.check(
            run.returncode == 0 and not compiled
            and run.printed(RESULT) == expected,
            f"final print: exit {run.returncode}, {len(compiled)} compiled, "
            f"{run.printed(RESULT)} != {expected}")

    def check_pids(self, session: Session) -> None:
        """Store export pids equal a fresh in-process serial build's."""
        from repro.cm import BinStore, CutoffBuilder, Project

        store = BinStore.load_directory(
            os.path.join(session.directory, ".bin"))
        stored = {n: store.get(n).export_pid for n in store.names()}
        fresh = CutoffBuilder(Project.from_directory(session.directory))
        try:
            fresh.build()
        except Exception as err:  # a compile error is a failed check
            self.ledger.check(False, f"serial reference build: {err}")
            return
        expected = {n: u.export_pid for n, u in fresh.units.items()}
        differ = sorted(n for n in set(stored) | set(expected)
                        if stored.get(n) != expected.get(n))
        self.ledger.check(not differ,
                          f"export pids differ from a serial build: "
                          f"{differ[:3]}")

    def store_bytes(self, session: Session) -> int:
        """``.bin`` size, build profiles excluded."""
        root = os.path.join(session.directory, ".bin")
        total = 0
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "profiles"]
            total += sum(os.path.getsize(os.path.join(dirpath, f))
                         for f in filenames)
        return total


class CliSession(Workload):
    name = "cli-session"
    why = ("one new CLI process per edit: start-up, dependency analysis, "
           "store load and rehydration dominate, almost no compiling")
    bypassed = frozenset({
        "repro.cm.supervise.Supervisor.build",
        "repro.cm.parallel.compile_unit",
        "repro.cm.parallel.load_unit",
        "repro.cm.parallel.make_executor",
        "repro.cm.daemon.make_executor",
        "concurrent.futures._base.Future.result",
        "repro.linker.link.Linker.link",
        "repro.cm.daemon.BuildDaemon.request",
    })

    def prime(self, seed: int, traced: bool) -> Session:
        session = self.new_session(seed, traced)
        run, _ = self.cli(session, ["--no-link"], "prime")
        ok, _c, _n, why = _unit_check(session.project, run.outcomes,
                                      "prime", None)
        if self.check_run(run, "priming build"):
            self.ledger.check(ok, why)
        return session

    def serve(self, session: Session, kind: str, unit: str | None) -> Sample:
        session.project.apply(kind, unit, session.directory)
        run, spans = self.cli(session, ["--no-link"], kind,
                              traced=session.traced)
        ok, compiled, cascade, why = _unit_check(
            session.project, run.outcomes, kind, unit)
        if self.check_run(run, f"{kind} request"):
            self.ledger.check(ok, why)
        sample = Sample(kind, unit, run.wall, compiled, cascade, run.rss_mb,
                        run.pool)
        if spans is not None:
            session.pending.append((sample, run.spawned, spans))
        return sample


class DaemonSession(Workload):
    name = "daemon-session"
    why = ("one resident --serve daemon: warm sources, dependency cache "
           "and units; stat refresh, decide and incremental compiles "
           "dominate")
    bypassed = frozenset({
        # The daemon opens a fresh project's store empty and never
        # reloads it: nothing else writes the store.
        "repro.cm.store.BinStore.load_directory",
        "repro.cm.base.BaseBuilder.build",
        "repro.cm.base.compile_unit",
        "repro.cm.base.load_unit",
        "repro.cm.parallel.make_executor",
        "concurrent.futures._base.Future.result",
        "repro.linker.link.Linker.link",
    })

    def prime(self, seed: int, traced: bool) -> Session:
        session = self.new_session(seed, traced)
        log = session.log("daemon")
        session.daemon = Daemon(session.directory, log + ".log",
                                log + ".spans.json" if traced else None)
        session.daemon.start()
        self._build(session, "prime", None)
        return session

    def _build(self, session: Session, kind: str,
               unit: str | None) -> Sample:
        try:
            response, wall = session.daemon.call({"op": "build"},
                                                 DAEMON_TIMEOUT)
        except DaemonError as err:
            self.ledger.check(False, f"{kind} request: {err}")
            return Sample(kind, unit, float("nan"))
        result = response.get("result") or {}
        outcomes = {o["name"]: o["action"]
                    for o in result.get("outcomes", ())}
        ok, compiled, cascade, why = _unit_check(
            session.project, outcomes, kind, unit)
        if self.ledger.check(bool(response.get("ok")),
                             f"{kind} request: {response.get('error')}"):
            self.ledger.check(ok, why)
        return Sample(kind, unit, wall, compiled, cascade,
                      pool=result.get("pool", ""),
                      wire=wall - result.get("wall_seconds", 0.0))

    def serve(self, session: Session, kind: str, unit: str | None) -> Sample:
        session.project.apply(kind, unit, session.directory)
        return self._build(session, kind, unit)

    def peak_rss_mb(self, session: Session, samples: list[Sample]) -> float:
        try:
            return session.daemon.peak_rss_mb()
        except (OSError, DaemonError) as err:
            self.ledger.check(False, f"daemon peak RSS: {err}")
            return 0.0

    def close(self, session: Session) -> None:
        if session.daemon is None:
            return
        code = session.daemon.close(DAEMON_TIMEOUT)
        self.ledger.check(code == 0, f"daemon exit {code}")
        if session.traced:
            dump = _read_dump(session.daemon.spans_path)
            if self.ledger.check(dump is not None, "no daemon trace"):
                session.dumps.append(dump)
        session.daemon = None

    def layers(self, session: Session, samples: list[Sample]) -> None:
        if not session.dumps:
            return
        tree = SpanTree(session.dumps[0]["spans"])
        roots = tree.named("cm.daemon.request")[1:]  # [0] is priming
        if not self.ledger.check(len(roots) == len(samples),
                                 f"{len(roots)} traced daemon requests for "
                                 f"{len(samples)} sent"):
            return
        for sample, root in zip(samples, roots):
            sample.layers = request_layers(tree, root, sample.wall,
                                           wire=sample.wire,
                                           cascade_size=sample.cascade)


class ColdParallel(Workload):
    name = "cold-parallel"
    why = ("from-scratch builds at --jobs 2: parse, elaborate, hash, "
           "dehydrate, task shipping, worker rehydration and link dominate")
    bypassed = frozenset({
        "repro.cm.store.BinStore.load_directory",
        "repro.cm.supervise.Supervisor.build",
        "repro.cm.base.compile_unit",
        "repro.cm.base.load_unit",
        "repro.cm.parallel.compile_unit",
        "repro.units.pipeline.parse_program",
        "repro.units.pipeline.elaborate_decs",
        "repro.units.pipeline.intrinsic_pid",
        "repro.units.pipeline.binding_pids",
        "repro.units.pipeline.Pickler.run",
        "repro.cm.daemon.make_executor",
        "repro.cm.daemon.BuildDaemon.request",
    })

    kinds = ("cold",)

    def requests(self, seed: int):
        return itertools.repeat(("cold", None))

    def new_session(self, seed: int, traced: bool) -> Session:
        session = super().new_session(seed, traced)
        edits = schedule(seed, session.project.units)
        for _ in range(COLD_EDITS):
            session.project.apply(*next(edits), session.directory)
        return session

    def prime(self, seed: int, traced: bool) -> Session:
        session = self.new_session(seed, traced)
        self._cold(session, "prime", traced=False)
        return session

    def _cold(self, session: Session, tag: str, traced: bool):
        """A from-scratch build that must print the oracle's value."""
        shutil.rmtree(os.path.join(session.directory, ".bin"),
                      ignore_errors=True)
        run, spans = self.cli(session, ["--jobs", "2", "--print", RESULT],
                              tag, traced=traced)
        expected = str(session.project.value())
        ok, _c, _n, why = _unit_check(session.project, run.outcomes,
                                      "prime", None)
        if self.check_run(run, f"{tag} build") and self.ledger.check(ok, why):
            self.ledger.check(run.printed(RESULT) == expected,
                              f"{tag} build: {RESULT} = "
                              f"{run.printed(RESULT)}, want {expected}")
        return run, spans

    def serve(self, session: Session, kind: str, unit: str | None) -> Sample:
        run, spans = self._cold(session, kind, traced=session.traced)
        names = len(session.project.names)
        sample = Sample(kind, unit, run.wall, names, names, run.rss_mb,
                        run.pool)
        if spans is not None:
            session.pending.append((sample, run.spawned, spans))
        return sample

    def verify(self, session: Session) -> None:
        """Nothing more: every cold build checked the oracle's value."""


WORKLOADS = {w.name: w for w in (CliSession, DaemonSession, ColdParallel)}


def _read_dump(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def measure(workload: Workload, session: Session, plan, seconds: float,
            calibration: Calibration) -> list[Sample]:
    """Send requests until ``seconds`` have passed and every kind was
    sent at least once (``plan`` an iterator), or replay a list; probe
    the host between requests."""
    samples: list[Sample] = []
    if isinstance(plan, list):
        for kind, unit in plan:
            calibration.maybe_probe()
            samples.append(workload.serve(session, kind, unit))
    else:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline \
                or set(workload.kinds) - {s.kind for s in samples}:
            calibration.maybe_probe()
            kind, unit = next(plan)
            samples.append(workload.serve(session, kind, unit))
    calibration.probe()
    return samples


def close_and_clean(workload: Workload, session: Session) -> None:
    workload.open.remove(session)
    try:
        workload.close(session)
    finally:
        shutil.rmtree(session.directory, ignore_errors=True)
        shutil.rmtree(session.directory + ".logs", ignore_errors=True)
