"""Shared machinery for the three builders."""

from __future__ import annotations

import time

from repro.cm.depend import DepGraph, analyze, memo_summary
from repro.cm.project import Project
from repro.cm.report import BuildReport, UnitOutcome
from repro.cm.store import BinRecord, BinStore
from repro.linker.link import Linker
from repro.obs.ledger import ExplanationLedger, explain_decision
from repro.obs.meter import NULL_METER, BuildMeter
from repro.pickle import UnresolvedStubError
from repro.units.pipeline import compile_unit, load_unit, source_digest
from repro.units.session import Session
from repro.units.unit import CompiledUnit, DynExport, UnitDecodeError

#: The reason a unit whose payload failed to decode gives for its
#: recompile (damage, as opposed to a stale record).
UNREADABLE = "bin file unreadable"


class BaseBuilder:
    """A builder = project + bin store + session + live units.

    A *builder instance* models one compiler session; passing an existing
    :class:`BinStore` to a fresh builder models starting a new session
    over a previous session's bin files (the cross-session reuse the
    paper's dehydration exists for).
    """

    def __init__(self, project: Project, store: BinStore | None = None,
                 session: Session | None = None,
                 restrict: list[str] | None = None,
                 visible: dict[str, set[str]] | None = None,
                 meter: BuildMeter | None = None):
        self.project = project
        self.store = store if store is not None else BinStore()
        #: The telemetry seam: a no-op by default, a
        #: :class:`repro.obs.Tracer` when the build is being traced.
        self.meter = meter if meter is not None else NULL_METER
        if meter is not None:
            # The builder drives the store, so it observes it too.
            self.store.meter = meter
        #: Why each unit was recompiled or reused, decided this pass
        #: (:mod:`repro.obs.ledger`; re-created at every build start).
        self.ledger = ExplanationLedger()
        #: Damage found loading the store plus anything quarantined
        #: while building (unreadable bin payloads, damaged stable
        #: archives).  Shared with the store's own report.
        self.health = self.store.health
        self.session = session if session is not None else Session()
        self.units: dict[str, CompiledUnit] = {}
        self.last_graph: DepGraph | None = None
        #: The latest build's report.  A payload mended after it was
        #: returned (at link) amends the unit's outcome here.
        self.last_report: BuildReport | None = None
        self.restrict = restrict
        self.visible = visible
        #: Dependency-analysis memo, keyed by unit and source text (§9:
        #: the IRM caches per-file dependency information).  It seeds
        #: each new record's dependency summary, which later sessions
        #: read back instead of parsing.
        self._dep_cache: dict = {}
        #: Stable-library archives pending load, and the module-provider
        #: map of every stable unit already loaded.
        self._stable_pending: list[bytes] = []
        self._stable_providers: dict[str, str] = {}
        self.stable_names: set[str] = set()
        self._stable_order: list[str] = []

    # -- the build loop -----------------------------------------------------

    def build(self, jobs: int = 1, policy=None,
              checkpoint_dir: str | None = None) -> BuildReport:
        """Bring every unit up to date; returns what was done.

        With ``jobs == 1`` and no supervision this is the serial loop
        below, compiling in this builder's own session.  Anything else
        runs the ready-set pump (:class:`repro.cm.supervise.Supervisor`):
        each unit is decided the moment its last import lands and its
        compile runs on a ``jobs``-worker process pool (inline for one
        job); the resulting statenv, bin store contents and export pids
        are byte-identical to a serial build.

        Without supervision the first failed compile raises
        :class:`~repro.cm.parallel.ParallelBuildError`.  A ``policy``
        (or a ``checkpoint_dir``, which implies the default one)
        supervises instead: worker failures retry with backoff, hung
        workers time out and reschedule, poison units skip only their
        dependents, and with a ``checkpoint_dir`` the store is saved
        there at quiet points, so a killed build's rerun over that
        store loads every unit that finished.
        """
        supervised = policy is not None or checkpoint_dir is not None
        if jobs != 1 or supervised:
            from repro.cm.supervise import SupervisePolicy, Supervisor
            if supervised and policy is None:
                policy = SupervisePolicy()
            return Supervisor(jobs=jobs, policy=policy,
                              checkpoint_dir=checkpoint_dir).run(self)
        meter = self.meter
        t0 = time.perf_counter()
        report = self.last_report = BuildReport()
        with meter.span("build", cat="build",
                        manager=type(self).__name__, jobs=1) as sp:
            self._begin_build()
            if self._stable_pending:
                with meter.span("stable-load", cat="build"):
                    self._load_pending_stables(report)
            else:
                self._load_pending_stables(report)
            with meter.span("analyze", cat="build"):
                graph = self.analyze()
            for name in graph.order:
                imports = [self.units[dep] for dep in graph.deps[name]]
                report.add(self.process(name, graph, imports))
            sp.set(units=len(graph.order))
        report.wall_seconds = time.perf_counter() - t0
        self._finish_report(report)
        return report

    def analyze(self) -> DepGraph:
        graph = analyze(self.project, restrict=self.restrict,
                        visible=self.visible, cache=self._dep_cache,
                        extra_providers=self._stable_providers,
                        store=self.store)
        self.last_graph = graph
        return graph

    # -- stable libraries ---------------------------------------------------

    def add_stable_archive(self, blob: bytes) -> None:
        """Register a stable-library archive; its units are loaded and
        decoded on the next build and serve as providers without
        sources."""
        self._stable_pending.append(blob)

    def _load_pending_stables(self, report: BuildReport) -> None:
        """Load and decode pending stable archives, quarantining damage.

        A damaged archive (or a single unreadable unit inside one) never
        aborts the build: the failure is recorded in :attr:`health`, the
        affected units are skipped, and -- because they then register no
        providers -- the build falls back to compiling them from sources
        when the project has them.
        """
        from repro.cm.stable import StableArchiveError, parse_archive

        for blob in self._stable_pending:
            try:
                stables = parse_archive(blob)
            except StableArchiveError as err:
                self.health.add("", "stable-archive", detail=str(err))
                report.add(UnitOutcome("(stable-archive)", "skipped",
                                       f"damaged stable archive: {err}"))
                continue
            failed: set[str] = set()
            for stable in stables:
                if any(i_name in failed or i_name not in self.units
                       for i_name, _pid in stable.imports):
                    failed.add(stable.name)
                    self.health.add(stable.name, "stable-unit-skipped",
                                    detail="an imported stable unit "
                                           "failed to load")
                    report.add(UnitOutcome(stable.name, "skipped",
                                           "stable import unavailable"))
                    continue
                imports = [self.units[i_name]
                           for i_name, _pid in stable.imports]
                # Decoded now: there is no source to fall back to at
                # first demand.
                unit = load_unit(stable.name, stable.export_pid,
                                 imports, stable.payload, self.session)
                try:
                    unit.decode()
                except UnitDecodeError as err:
                    failed.add(stable.name)
                    self.health.add(stable.name,
                                    "stable-rehydrate-failed",
                                    detail=str(err.cause))
                    report.add(UnitOutcome(stable.name, "skipped",
                                           f"stable unit unreadable: "
                                           f"{err.cause}"))
                    continue
                self.install(stable.name, unit)
                self.stable_names.add(stable.name)
                self._stable_order.append(stable.name)
                for module_name in stable.provides:
                    self._stable_providers[module_name] = stable.name
                report.add(UnitOutcome(stable.name, "loaded",
                                       "stable library", False,
                                       unit.times))
        self._stable_pending.clear()

    # -- the decision seam -----------------------------------------------
    #
    # ``process`` drives one unit through decide -> act -> hook.  Builders
    # implement :meth:`decide` (a pure judgement over the record, the live
    # import pids and the builder's own bookkeeping) and optionally
    # :meth:`on_compiled` / :meth:`_begin_build`.  Splitting the decision
    # from the action is what lets the build pump reuse every builder's
    # recompilation policy unchanged: it asks :meth:`try_reuse` in
    # dependency order and runs the compiles on a worker pool.

    def process(self, name: str, graph: DepGraph,
                imports: list[CompiledUnit]) -> UnitOutcome:
        outcome, reason = self.try_reuse(name, graph, imports)
        if outcome is not None:
            return outcome
        with self.meter.span("unit", cat="unit", unit=name,
                             action="compile") as sp:
            outcome = self.compile(name, imports, reason)
            sp.set(action=outcome.action, reason=outcome.reason)
        self.on_compiled(name, graph)
        return outcome

    def try_reuse(self, name: str, graph: DepGraph,
                  imports: list[CompiledUnit]
                  ) -> tuple[UnitOutcome | None, str]:
        """Decide ``name``, record why in the ledger, and carry out a
        ``cached`` or ``load`` verdict.  Returns ``(outcome, reason)``;
        ``outcome`` is None when the unit must be compiled (for
        ``reason``), which the caller does serially or on a worker."""
        record = self.store.get(name)
        action, reason = self.decide(name, graph, imports, record)
        self.explain(name, action, reason, record, imports)
        if action == "cached":
            return UnitOutcome(name, "cached", "up to date"), reason
        if action != "load":
            return None, reason
        with self.meter.span("unit", cat="unit", unit=name,
                             action=action) as sp:
            outcome = self.load(name, record, imports)
            if outcome.action == "compiled":
                # The load degraded to a recompile: the ledger must say
                # so.  An unreadable payload is damage (no usable
                # record); one bound to a superseded interface is stale.
                damaged = outcome.reason == UNREADABLE
                self.explain(name, "compile", outcome.reason,
                             None if damaged else record, imports)
            sp.set(action=outcome.action, reason=outcome.reason)
        if outcome.action == "compiled":
            self.on_compiled(name, graph)
        return outcome, reason

    def explain(self, name: str, action: str, reason: str,
                record: BinRecord | None,
                imports: list[CompiledUnit]) -> None:
        """Record the typed :class:`~repro.obs.ledger.BuildDecision`
        behind a ``decide`` verdict.  Structural: causes come from the
        prior record and live pids, not from the reason string.  The
        source digest is only computed for recompiles (reuse decisions
        never need it), so the always-on ledger stays cheap.  When the
        record carries interface slices, the decision also gets
        per-binding checks -- the prior used-binding pids against the
        providers' current ones (providers are processed earlier in
        dependency order, so their records are up to date here)."""
        source_changed = None
        if action == "compile" and record is not None:
            source_changed = not self.source_current(name, record)
        live_binding_pids = {}
        if record is not None and record.used_bindings:
            for provider_name in record.used_bindings:
                provider_record = self.store.get(provider_name)
                if provider_record is not None:
                    live_binding_pids[provider_name] = \
                        provider_record.binding_pids
        decision = explain_decision(
            unit=name,
            action={"compile": "compiled", "load": "loaded",
                    "cached": "cached"}[action],
            reason=reason,
            had_record=record is not None,
            prior_imports=tuple(tuple(pair) for pair in record.imports)
            if record is not None else (),
            live_imports=tuple((u.name, u.export_pid) for u in imports),
            source_changed=source_changed,
            quarantine_kinds=tuple(self.health.kinds_for(name))
            if record is None else (),
            used_bindings=record.used_bindings
            if record is not None else None,
            live_binding_pids=live_binding_pids,
        )
        self.ledger.record(decision)
        if self.meter.enabled:
            self.meter.event("decision", cat="ledger", unit=name,
                             verdict=decision.verdict,
                             cause=decision.cause)

    def _finish_report(self, report: BuildReport) -> None:
        """Attach the ledger and emit the build's rollup counters."""
        report.ledger = self.ledger
        if self.meter.enabled:
            self.meter.counter("units.compiled", len(report.compiled))
            self.meter.counter("units.loaded", len(report.loaded))
            self.meter.counter("units.cached", len(report.cached))
            self.meter.counter("cutoff.stops", len(report.cutoffs()))
            self.meter.counter(
                "cutoff.false-rebuilds",
                sum(1 for d in self.ledger if d.cause == "policy"))

    def decide(self, name: str, graph: DepGraph,
               imports: list[CompiledUnit],
               record: BinRecord | None) -> tuple[str, str]:
        """What should happen to ``name``: ``("compile", reason)``,
        ``("load", "")`` or ``("cached", "")``.  Must not mutate builder
        state: it only judges, :meth:`try_reuse` acts."""
        raise NotImplementedError

    def on_compiled(self, name: str, graph: DepGraph) -> None:
        """Hook run after ``name`` was (re)compiled -- serially or on a
        worker -- with the unit live and its record in the store.

        The default records the unit's interface slice usage: for every
        import edge, which of the provider's bindings this unit
        mentions, pinned to the provider's *current* binding pids
        (providers were processed earlier in dependency order, so their
        records are fresh here).  An empty pid marks a provider with no
        slice data (e.g. a stable-library unit); the smart
        builder treats those conservatively.  Iteration is sorted so
        the header bytes are identical across serial and parallel
        builds.  Overrides should call ``super().on_compiled(...)`` to
        keep the slice data flowing."""
        record = self.store.get(name)
        if record is None:
            return
        used: dict[str, dict[str, str]] = {}
        for provider in sorted(graph.uses.get(name, {})):
            provider_record = self.store.get(provider)
            pids = (provider_record.binding_pids
                    if provider_record is not None else {})
            if provider_record is None:
                live = self.units.get(provider)
                pids = live.binding_pids if live is not None else {}
            used[provider] = {key: pids.get(key, "")
                              for key in sorted(graph.uses[name][provider])}
        record.used_bindings = used
        self.store.put(record)

    def _begin_build(self) -> None:
        """Hook run at the start of every build pass.  Overrides must
        call ``super()._begin_build()``: the explanation ledger is
        per-pass, and live units the build must not trust are dropped
        here."""
        self.ledger = ExplanationLedger()
        self._drop_dead_units()

    def _drop_dead_units(self) -> None:
        """Drop every live unit the project no longer has, and every
        live unit bound to a provider version that is no longer live,
        transitively, retiring their pids.

        A build that retires a provider's pid replaces the units bound
        to it, except where their recompile failed or never ran (a
        failed or aborted build), or their provider's source is gone.
        Such a unit still reaches the retired objects: kept live, it
        would read as ``cached`` once the provider's pid comes back,
        and the next unit compiled against it would dehydrate a
        dangling reference.  Dropped, it reloads from its record
        against the live objects, or recompiles.

        A removed unit's store record goes too (the next save prunes
        the files), except in a shared store: another client's project
        may still have that unit, and server-side GC is an operator
        action (see ``RemoteBackend.prune``).  Stable-library units
        have no source and stay."""
        def removed(name: str) -> bool:
            return name not in self.project and name not in self.stable_names

        def dead(name: str, unit: CompiledUnit) -> bool:
            return removed(name) or any(
                dep not in self.units or self.units[dep].export_pid != pid
                for dep, pid in unit.imports)

        if self.store.backend is None or not self.store.backend.shared:
            for name in self.store.names():
                if removed(name):
                    self.store.remove(name)
        while True:
            doomed = [name for name, unit in self.units.items()
                      if dead(name, unit)]
            if not doomed:
                return
            for name in doomed:
                self.session.retire(self.units.pop(name).export_pid)

    # -- shared actions --------------------------------------------------

    def compile(self, name: str, imports: list[CompiledUnit],
                reason: str) -> UnitOutcome:
        source = self.project.source(name)
        # Compiling decodes the imports' closure; a payload that fails
        # on the way is mended first, and the compile reruns against
        # the live units.
        unit = self._demand(lambda: compile_unit(
            name, source, [self.units[imp.name] for imp in imports],
            self.session, meter=self.meter))
        previous = self.store.get(name)
        pid_changed = previous is None or previous.export_pid != unit.export_pid
        self.install(name, unit)
        self.store.put(self.make_record(name, unit))
        return UnitOutcome(name, "compiled", reason, pid_changed, unit.times)

    def install(self, name: str, unit: CompiledUnit) -> None:
        """Make ``unit`` the live unit for ``name``.  When it replaces a
        unit with a different pid, the old pid is retired from the
        session: every unit whose interface reaches the old objects
        hashes that pid, so it too is replaced later in this build (or,
        if its recompile fails, dropped when the next build starts),
        and nothing dehydrates against the retired interface.

        A replacement with the *same* pid keeps a decoded live unit's
        export objects: cached dependents were elaborated against them,
        and a unit compiled next must meet the same ones.  Only the new
        code, payload, digests, times and binding pids are taken, and
        the pid is registered to the kept objects alone.  A live unit
        never decoded had nothing elaborated against it, so the new
        unit's objects stand for the pid.  Either way, units loaded
        against the old unit decode against the new one."""
        previous = self.units.get(name)
        if previous is not None and previous.export_pid == unit.export_pid:
            if previous.decoded:
                unit.adopt_exports(previous)
                self.session.retire(unit.export_pid)
                self.session.register_exports(unit.export_pid,
                                              previous.export_index)
            previous.replace_with(unit)
        elif previous is not None:
            self.session.retire(previous.export_pid)
        self.units[name] = unit

    def make_record(self, name: str, unit: CompiledUnit) -> BinRecord:
        return BinRecord(
            name=name,
            source_digest=unit.source_digest,
            export_pid=unit.export_pid,
            imports=list(unit.imports),
            payload=unit.payload,
            built_at=self.project.clock,
            binding_pids=dict(unit.binding_pids),
            dep_summary=memo_summary(self._dep_cache, name,
                                     self.project.source(name)),
        )

    def load(self, name: str, record: BinRecord,
             imports: list[CompiledUnit]) -> UnitOutcome:
        """Reuse ``record`` as a header-backed unit: nothing is decoded
        until a compile, the link or a stub first needs it."""
        unit = load_unit(name, record.export_pid, imports,
                         record.payload, self.session,
                         record.source_digest, meter=self.meter,
                         binding_pids=record.binding_pids)
        if record.imports != unit.imports:
            # A slice-stable reuse (the smart builder): its stubs may
            # name a provider pid this session has retired, so decode
            # now, while that is still a stale record.
            try:
                self._demand(unit.decode)
            except UnitDecodeError as err:
                if err.unit is not unit:
                    raise
                if isinstance(err.cause, UnresolvedStubError):
                    # The payload passed its digest check, so a pid the
                    # session does not know is an interface this record
                    # was compiled against that is no longer live.
                    provider = next((n for n, pid in record.imports
                                     if pid == err.cause.pid),
                                    f"pid {err.cause.pid}")
                    return self.compile(name, imports,
                                        f"bin file uses a superseded "
                                        f"interface of {provider}")
                self.health.add(name, "rehydrate-failed",
                                detail=str(err.cause))
                return self.compile(name, imports, UNREADABLE)
        self.install(name, unit)
        return UnitOutcome(name, "loaded", "bin file current", False,
                           unit.times)

    # -- decoding on demand -------------------------------------------------

    def decoded(self, name: str) -> CompiledUnit:
        """The live unit ``name``, decoded (its import closure too).  A
        payload that fails to decode on the way is mended first."""
        self._demand(lambda: self.units[name].decode())
        return self.units[name]

    def _demand(self, action):
        """Run ``action``, which may decode live units' payloads.  A
        payload that passed its digests but does not decode is damage:
        the unit is mended (:meth:`_mend`) and ``action`` runs again."""
        while True:
            try:
                return action()
            except UnitDecodeError as err:
                if self.units.get(err.unit.name) is not err.unit:
                    raise
                self._mend(err.unit.name, str(err.cause))

    def _mend(self, name: str, detail: str) -> None:
        """Recompile the live unit ``name`` from source because its
        payload failed to decode on first demand: damage on the health
        report, the outcome and ledger decision ``compiled`` with reason
        :data:`UNREADABLE`, and a healed record in the store for the
        next save."""
        self.health.add(name, "rehydrate-failed", detail=detail)
        imports = [self.units[dep] for dep, _pid in self.units[name].imports]
        with self.meter.span("unit", cat="unit", unit=name,
                             action="compile") as sp:
            outcome = self.compile(name, imports, UNREADABLE)
            sp.set(action=outcome.action, reason=outcome.reason)
        self.explain(name, "compile", UNREADABLE, None, imports)
        if self.last_graph is not None and name in self.last_graph.deps:
            self.on_compiled(name, self.last_graph)
        report = self.last_report
        if report is not None:
            for k, prior in enumerate(report.outcomes):
                if prior.name == name:
                    report.outcomes[k] = outcome
                    break
            else:
                report.add(outcome)

    def source_current(self, name: str, record: BinRecord | None) -> bool:
        return (record is not None
                and record.source_digest
                == source_digest(self.project.source(name)))

    def imports_current(self, record: BinRecord,
                        imports: list[CompiledUnit]) -> bool:
        """The cutoff test: do the live import pids match the ones this
        bin was compiled against?"""
        return record.imports == [(u.name, u.export_pid) for u in imports]

    def is_live_and_current(self, name: str, record: BinRecord) -> bool:
        live = self.units.get(name)
        return live is not None and live.export_pid == record.export_pid

    # -- linking and running -------------------------------------------------

    def link(self, verify: bool = True) -> dict[str, DynExport]:
        """Type-safe link + execute of all live units (stable libraries
        first) in dependency order.  Each unit is decoded as it runs;
        one whose payload fails to decode is mended first."""
        graph = self.last_graph if self.last_graph is not None else self.analyze()
        linker = _MendingLinker(self)
        ordered = [self.units[name] for name in self._stable_order]
        ordered.extend(self.units[name] for name in graph.order)
        with self.meter.span("link", cat="build", units=len(ordered)):
            return linker.link(ordered, verify=verify)

    def build_and_run(self) -> tuple[BuildReport, dict[str, DynExport]]:
        report = self.build()
        return report, self.link()


class _MendingLinker(Linker):
    """The linker over a builder's live units: each unit runs as
    :meth:`BaseBuilder.decoded` gives it, mended if its payload failed
    to decode."""

    def __init__(self, builder: BaseBuilder):
        super().__init__(builder.session)
        self.builder = builder

    def execute(self, unit: CompiledUnit) -> DynExport:
        return super().execute(self.builder.decoded(unit.name))
