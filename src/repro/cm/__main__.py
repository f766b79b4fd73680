"""Command-line build driver: ``python -m repro.cm <srcdir>``.

A miniature `sml-build`: compiles every ``*.sml`` unit in a directory
with the cutoff manager, reusing (and refreshing) bin files in
``<srcdir>/.bin``, then type-safely links and optionally prints a
binding.

Options:
    --manager {cutoff,make,smart}   recompilation strategy (default cutoff)
    --print STRUCTURE.NAME          after linking, print this binding
    --no-link                       stop after building
    --stats                         per-phase timing summary
    --analyze                       run the static analyzer after building
                                    (reuses the build's dependency cache)
    --strict                        with --analyze: exit 1 on warnings
    --fsck                          check the bin store's health instead of
                                    building: exit 0 healthy, 1 damaged
    --json                          with --fsck: machine-readable report
    --explain [UNIT]                print the cutoff-explanation ledger:
                                    why each unit (or one unit) was
                                    recompiled or reused
    --explain-diff [UNIT]           diff this build's decisions against
                                    the profile the same manager's last
                                    build left in .bin/profiles/: what
                                    changed since last time and why
    --trace                         print the span-tree trace report and
                                    the critical path after building
    --trace-out FILE                write a Chrome trace_event JSON file
                                    after building (chrome://tracing,
                                    ui.perfetto.dev)
    --jobs N                        compile up to N ready units at once
                                    on a process pool (a thread pool
                                    where process pools do not work;
                                    same store bytes as a serial build)
    --retries N                     supervised build: retry transient
                                    worker failures up to N times per unit
    --timeout SECONDS               with --jobs N > 1: supervised build,
                                    per-attempt wall clock once a worker
                                    starts it; hung workers are
                                    rescheduled
    --quarantine                    with --fsck: move damaged record files
                                    aside into .bin/quarantine/
    --store-url URL                 keep the bin store on a store server
                                    (rbs://host:port); .bin becomes its
                                    write-through cache.  A malformed
                                    URL is a usage error (exit 2)
    --serve                         run as a resident build daemon:
                                    JSON-lines requests on stdin, one
                                    JSON response per line on stdout
                                    (see repro.cm.daemon); --manager,
                                    --jobs, --retries, --timeout and
                                    --store-url hold for every request;
                                    its stats request always counts

A flag that only qualifies another -- ``--json`` and ``--quarantine``
(``--fsck``), ``--strict`` (``--analyze``), ``--timeout`` (``--jobs
N > 1``) -- is a usage error (exit 2) without it.  A ``.cm`` group
target builds in memory and serially: it refuses ``--jobs N > 1``,
``--retries``, ``--timeout``, ``--store-url``, ``--stats``,
``--explain-diff`` and ``--fsck`` (exit 2) instead of ignoring them.
``--serve`` likewise refuses the flags that shape one batch build's
output (``--print``, ``--no-link``, ``--stats``, ``--analyze``,
``--fsck``, ``--explain``, ``--explain-diff``, ``--trace``,
``--trace-out`` and their qualifiers).

Each directory build, batch or daemon, replaces its manager's profile
in ``.bin/profiles/`` (:mod:`repro.obs.history`), the baseline of the
next ``--explain-diff``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cm.backend import configured_backend
from repro.cm.manager import MANAGERS
from repro.cm.project import Project
from repro.cm.store import BinStore, StoreError, StoreLockedError

# Everything else -- the daemon, the remote store client, the
# supervisor, tracing, the profile diff, the analyzer, ``.cm`` groups and
# the value printer -- is imported on the branch that uses it, so a
# directory build loads only what it runs.


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cm",
        description="Build a directory of SML compilation units, or a "
                    ".cm group description file.")
    parser.add_argument("srcdir", nargs="?", default=None,
                        help="directory containing *.sml units, or a .cm "
                             "group description file (optional with "
                             "--serve: requests may name their group)")
    parser.add_argument("--manager", choices=sorted(MANAGERS),
                        default="cutoff")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="compile up to N units concurrently on a "
                             "process pool, each as soon as its imports "
                             "are built (results are byte-identical to a "
                             "serial build)")
    parser.add_argument("--print", dest="print_path", metavar="S.NAME",
                        help="print a structure binding after linking")
    parser.add_argument("--no-link", action="store_true")
    parser.add_argument("--stats", action="store_true")
    parser.add_argument("--analyze", action="store_true",
                        help="run the static analyzer over the project "
                             "after building (no extra parse pass)")
    parser.add_argument("--strict", action="store_true",
                        help="with --analyze: exit 1 when the analyzer "
                             "reports warnings or errors")
    parser.add_argument("--fsck", action="store_true",
                        help="check the bin store's health instead of "
                             "building (exit 0 healthy, 1 damaged)")
    parser.add_argument("--json", action="store_true",
                        help="with --fsck: print the health report as "
                             "JSON")
    parser.add_argument("--explain", nargs="?", const="*", default=None,
                        metavar="UNIT",
                        help="print why each unit (or just UNIT) was "
                             "recompiled or reused")
    parser.add_argument("--explain-diff", dest="explain_diff",
                        nargs="?", const="*", default=None,
                        metavar="UNIT",
                        help="diff this build's decisions against the "
                             "profile this manager's last build "
                             "recorded: which units' verdicts or "
                             "culprit imports changed since last time")
    parser.add_argument("--trace", action="store_true",
                        help="print the span-tree trace report and the "
                             "critical path after building")
    parser.add_argument("--trace-out", dest="trace_out", metavar="FILE",
                        help="write a Chrome trace_event JSON file "
                             "embedding the decision ledger and "
                             "critical path")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="supervise the build: retry transient "
                             "worker failures up to N times per unit "
                             "(capped exponential backoff); poison "
                             "units skip only their dependents")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="with --jobs N > 1: supervise the build "
                             "with a per-attempt wall clock; a hung "
                             "worker is abandoned and its unit "
                             "rescheduled")
    parser.add_argument("--quarantine", action="store_true",
                        help="with --fsck: move damaged record files "
                             "aside into .bin/quarantine/ so the next "
                             "load starts clean")
    parser.add_argument("--serve", action="store_true",
                        help="run as a resident build daemon serving "
                             "JSON-lines requests on stdin (one JSON "
                             "response per line on stdout; ops: build, "
                             "ping, explain, explain-diff, stats, "
                             "shutdown)")
    parser.add_argument("--store-url", dest="store_url", metavar="URL",
                        default=None,
                        help="remote store server (rbs://host:port or "
                             "loopback://name); the local .bin "
                             "directory becomes its write-through "
                             "cache")
    args = parser.parse_args(argv)

    if args.store_url:
        from repro.cm.remote import transport_for_url
        try:
            transport_for_url(args.store_url)  # parses; connects to nothing
        except StoreError as err:
            parser.error(f"--store-url: {err}")
    if args.srcdir is None and not args.serve:
        parser.error("srcdir is required unless --serve is given")
    # A flag that only qualifies another would be silently ignored
    # without it.  (The inline tier runs each compile at submit time,
    # so a --timeout deadline could never fire.)
    for given, flag, present, needed in (
            (args.json, "--json", args.fsck, "--fsck"),
            (args.quarantine, "--quarantine", args.fsck, "--fsck"),
            (args.strict, "--strict", args.analyze, "--analyze"),
            (args.timeout is not None, "--timeout", args.jobs > 1,
             "--jobs N > 1")):
        if given and not present:
            parser.error(f"{flag} needs {needed}")
    if args.serve:
        ignored = _serve_ignored_flags(args)
        if ignored:
            parser.error(f"{', '.join(ignored)} not supported with "
                         f"--serve (they shape one batch build's "
                         f"output)")
        return _run_serve(args)
    group_file = (os.path.isfile(args.srcdir)
                  and args.srcdir.endswith(".cm"))
    if group_file:
        ignored = _group_ignored_flags(args)
        if ignored:
            parser.error(f"{', '.join(ignored)} not supported for a .cm "
                         f"target (groups build in memory, serially)")

    if args.fsck:
        return _run_fsck(args)

    tracer = None
    if args.trace or args.trace_out:
        from repro.obs.tracer import Tracer
        tracer = Tracer()

    if group_file:
        return _build_group_file(args, tracer)
    if not os.path.isdir(args.srcdir):
        print(f"error: {args.srcdir} is not a directory or .cm file",
              file=sys.stderr)
        return 2

    if tracer is None:
        rc, _builder, _report = _build_directory(args, None)
        return rc
    with tracer.span("run", cat="build", srcdir=args.srcdir):
        rc, builder, report = _build_directory(args, tracer)
    trace_rc = _emit_trace(args, tracer, builder, report)
    return rc or trace_rc


def _build_directory(args, tracer):
    """Build a source directory; returns ``(exit code, builder, report)``
    so trace emission can consult the ledger and dependency graph."""
    from repro.obs.meter import NULL_METER

    bin_dir = os.path.join(args.srcdir, ".bin")
    store = BinStore.load_directory(
        bin_dir, meter=tracer if tracer is not None else NULL_METER,
        backend=configured_backend(bin_dir, args.store_url))
    if not store.health.ok:
        damaged = store.health.quarantined()
        print(f"warning: quarantined {len(store.health.corrupt)} damaged "
              f"bin record(s)"
              + (f" ({', '.join(sorted(damaged))})" if damaged else "")
              + "; they will be recompiled", file=sys.stderr)

    project = Project.from_directory(args.srcdir)
    if not len(project):
        print(f"error: no .sml files in {args.srcdir}", file=sys.stderr)
        return 2, None, None
    builder = MANAGERS[args.manager](project, store=store, meter=tracer)

    # Build history: the prior profile is the --explain-diff baseline;
    # this build's profile is recorded after a successful store save.
    from repro.obs.history import BuildHistory
    history = BuildHistory(bin_dir, args.manager, store.fs)
    prior_profile = history.latest()

    policy = _policy(args)
    try:
        report = builder.build(
            jobs=max(1, args.jobs), policy=policy,
            checkpoint_dir=bin_dir if policy is not None else None)
    except Exception as err:  # ElabError, DependencyError, ParseError...
        print(f"error: {err}", file=sys.stderr)
        return 1, builder, None

    for outcome in report.outcomes:
        print(f"  [{outcome.action:>8}] {outcome.name}"
              + (f"  ({outcome.reason})" if outcome.reason else ""))
    if report.jobs > 1:
        print(f"parallel build: {report.jobs} jobs ({report.pool} pool)")
    print(report.summary())
    if args.explain is not None:
        unit = None if args.explain == "*" else args.explain
        print(builder.ledger.render_text(unit))
    if args.explain_diff is not None:
        from repro.obs.diff import diff_against_profile
        unit = None if args.explain_diff == "*" else args.explain_diff
        diff = diff_against_profile(builder.ledger, prior_profile)
        print(diff.render_text(unit))
    try:
        store.save_directory(bin_dir)  # self-instruments via store.meter
    except StoreLockedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1, builder, report
    history.record(builder.ledger, prior_profile)

    if report.failed or report.skipped:
        # A supervised build finished what it could; the casualties
        # are in the ledger (--explain) and the exit code says so.
        print(f"build incomplete: {len(report.failed)} unit(s) failed, "
              f"{len(report.skipped)} skipped (see --explain)",
              file=sys.stderr)
        return 1, builder, report

    if args.stats:
        times = [(o.name, o.times) for o in report.outcomes]
        total = sum(t.compile_total() + t.overhead_total()
                    for _n, t in times)
        print(f"total build time: {total:.3f}s "
              f"(compile {sum(t.compile_total() for _n, t in times):.3f}s, "
              f"hash+pickle {sum(t.overhead_total() for _n, t in times):.3f}s)")

    if args.analyze:
        rc = _run_analysis(project, builder.last_graph,
                           builder._dep_cache, args.strict)
        if rc:
            return rc, builder, report

    if args.no_link:
        return 0, builder, report

    try:
        exports = builder.link()
    except Exception as err:
        print(f"link error: {err}", file=sys.stderr)
        return 1, builder, report
    mended = set(store.dirty_names())
    if mended:
        # Linking decoded a payload that failed: the unit was
        # recompiled, and its healed record is saved too.
        for outcome in report.outcomes:
            if outcome.name in mended:
                print(f"  [{outcome.action:>8}] {outcome.name}"
                      f"  ({outcome.reason})")
        try:
            store.save_directory(bin_dir)
        except StoreLockedError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1, builder, report
    print(f"linked {len(exports)} units")
    return _print_binding(args.print_path, exports), builder, report


def _print_binding(path, exports) -> int:
    """``--print STRUCTURE.NAME`` over linked ``exports``; returns the
    exit code (0 also when no path was asked for)."""
    if not path:
        return 0
    from repro.dynamic.values import format_value

    try:
        struct_name, member = path.split(".", 1)
    except ValueError:
        print("error: --print takes STRUCTURE.NAME", file=sys.stderr)
        return 2
    for export in exports.values():
        struct = export.structures.get(struct_name)
        if struct is not None and member in struct.values:
            print(f"{path} = {format_value(struct.values[member])}")
            return 0
    print(f"error: {path} not found", file=sys.stderr)
    return 1


def _emit_trace(args, tracer, builder, report) -> int:
    """Render/write trace artifacts after the run span has closed."""
    import json as json_mod

    from repro.obs.critical import critical_path, phase_rollup
    from repro.cm.report import PHASES

    graph = getattr(builder, "last_graph", None) if builder else None
    chain: list[str] = []
    chain_seconds = 0.0
    if report is not None and graph is not None:
        durations = {
            o.name: sum(getattr(o.times, p) for p in PHASES)
            for o in report.outcomes
        }
        chain, chain_seconds = critical_path(graph.order, graph.deps,
                                             durations)

    if args.trace:
        print(tracer.render_tree())
        if chain:
            print(f"critical path ({chain_seconds * 1e3:.1f} ms): "
                  + " -> ".join(chain))

    if args.trace_out:
        extra = {
            "wallSeconds": round(tracer.wall(), 6),
            "criticalPath": {
                "chain": chain,
                "seconds": round(chain_seconds, 6),
            },
            "phaseRollup": phase_rollup(tracer),
        }
        if report is not None:
            extra["phaseTotals"] = report.phase_totals()
            extra["buildStats"] = report.stats()
        if builder is not None and builder.ledger is not None:
            extra["buildDecisions"] = builder.ledger.to_json()
        payload = tracer.to_chrome_trace(extra)
        try:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json_mod.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError as err:
            print(f"error: cannot write {args.trace_out}: {err}",
                  file=sys.stderr)
            return 1
        print(f"trace written to {args.trace_out}")
    return 0


def _run_serve(args) -> int:
    """Run the resident build daemon over stdin/stdout (see
    :mod:`repro.cm.daemon` for the wire protocol)."""
    from repro.cm.daemon import BuildDaemon, serve

    daemon = BuildDaemon(manager=args.manager, jobs=max(1, args.jobs),
                         policy=_policy(args), store_url=args.store_url)
    default_group = args.srcdir if args.srcdir \
        and os.path.isdir(args.srcdir) else None
    return serve(daemon, sys.stdin, sys.stdout,
                 default_group=default_group)


def _policy(args):
    """The supervision policy ``--retries``/``--timeout`` ask for, or
    None when neither is given."""
    if args.retries is None and args.timeout is None:
        return None
    from repro.cm.supervise import SupervisePolicy
    return SupervisePolicy(
        retries=args.retries if args.retries is not None else 2,
        timeout=args.timeout)


def _serve_ignored_flags(args) -> list[str]:
    """The flags given that ``--serve`` would ignore: they shape one
    batch build's output, and the daemon answers requests instead."""
    flags = [(args.print_path is not None, "--print"),
             (args.no_link, "--no-link"),
             (args.stats, "--stats"),
             (args.analyze, "--analyze"),
             (args.strict, "--strict"),
             (args.fsck, "--fsck"),
             (args.json, "--json"),
             (args.quarantine, "--quarantine"),
             (args.explain is not None, "--explain"),
             (args.explain_diff is not None, "--explain-diff"),
             (args.trace, "--trace"),
             (args.trace_out is not None, "--trace-out")]
    return [flag for given, flag in flags if given]


def _run_fsck(args) -> int:
    """Check the bin store's health; exit 0 healthy, 1 damaged.

    Never raises: any unexpected failure is itself reported as a
    diagnostic with a non-zero exit."""
    import json as json_mod

    try:
        target = args.srcdir
        if os.path.basename(os.path.normpath(target)) == ".bin":
            bin_dir = target
        else:
            bin_dir = os.path.join(target, ".bin")
        # --store-url checks the remote store: damage is fetched,
        # classified with the same taxonomy, and -- with --quarantine --
        # healed on the server.
        report = BinStore.fsck(
            bin_dir, quarantine=args.quarantine,
            backend=configured_backend(bin_dir, args.store_url))
        if args.json:
            print(json_mod.dumps(report.to_json(), indent=1,
                                 sort_keys=True))
        else:
            print(report.render_text())
        return 0 if report.ok else 1
    except Exception as err:
        print(f"fsck error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def _run_analysis(project, graph, cache, strict: bool) -> int:
    """Run the static analyzer after a build, reusing the builder's
    dependency graph and cache (no extra parse pass)."""
    from repro.analysis import Severity, analyze_project, render_text

    result = analyze_project(project, graph=graph, cache=cache)
    print(render_text(result.diagnostics, result.cascade))
    if result.failed:
        return 1
    if strict and result.gate(Severity.WARNING):
        return 1
    return 0


def _group_ignored_flags(args) -> list[str]:
    """The flags given that a ``.cm`` target would ignore:
    :class:`~repro.cm.group.GroupBuilder` compiles serially into an
    in-memory store and keeps no build history, so there is neither a
    pool nor a store to check."""
    flags = [(args.jobs > 1, f"--jobs {args.jobs}"),
             (args.retries is not None, "--retries"),
             (args.timeout is not None, "--timeout"),
             (bool(args.store_url), "--store-url"),
             (args.stats, "--stats"),
             (args.explain_diff is not None, "--explain-diff"),
             (args.fsck, "--fsck")]
    return [flag for given, flag in flags if given]


def _build_group_file(args, tracer=None) -> int:
    from repro.cm.descfile import DescFileError, load_group_file
    from repro.cm.group import GroupBuilder

    from contextlib import nullcontext

    run_span = (tracer.span("run", cat="build", group=args.srcdir)
                if tracer is not None else nullcontext())
    with run_span:
        try:
            group, project = load_group_file(args.srcdir)
        except DescFileError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        gb = GroupBuilder(project, builder_class=MANAGERS[args.manager],
                          meter=tracer)
        try:
            reports = gb.build(group)
        except Exception as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    for group_name, report in reports.items():
        print(f"group {group_name}: {report.summary()}")
    if args.explain is not None and gb.ledger is not None:
        unit = None if args.explain == "*" else args.explain
        print(gb.ledger.render_text(unit))
    if tracer is not None:
        rc = _emit_trace(args, tracer, gb._builder, None)
        if rc:
            return rc
    if args.analyze:
        rc = _run_analysis(project, None, None, args.strict)
        if rc:
            return rc
    if args.no_link:
        return 0
    try:
        exports = gb.link()
    except Exception as err:
        print(f"link error: {err}", file=sys.stderr)
        return 1
    print(f"linked {len(exports)} units")
    return _print_binding(args.print_path, exports)


if __name__ == "__main__":
    sys.exit(main())
