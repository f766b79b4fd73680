"""Trace shim: ``python -m bench.shim <repro.cm argv>``.

Runs ``python -m repro.cm`` unchanged, after wrapping the public
functions of each layer at every import site the build reaches.  Each
wrapper records a span ``[name, start, end, parent, attrs]`` in memory
(``parent`` is the index of the enclosing span on the same thread, -1
at the top); the spans are written once, when ``main`` returns, as JSON
to the file named by ``$BENCH_SHIM_OUT`` (stderr when unset).  Nothing
under ``src/`` changes: the per-layer numbers come from outside the
program.

Forked pool workers inherit the wrappers but record nothing (the
wrappers check the pid); worker-side compile work is read from the
``BuildReport`` the build returns, its only public view.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time


class Recorder:
    """In-memory span store plus a fire count per wrapped site."""

    def __init__(self):
        self.spans: list[list] = []
        self.fired: dict[str, int] = {}
        self._tls = threading.local()
        self._pid = os.getpid()

    def wrap(self, site: str, name: str, fn, attrs=None):
        """``fn`` recording a ``name`` span per call; ``attrs(result,
        args, kwargs)`` (if given) annotates the finished span."""
        self.fired.setdefault(site, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            stack = getattr(self._tls, "stack", None)
            if stack is None:
                stack = self._tls.stack = []
            self.fired[site] += 1
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(result, args, kwargs)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, attrs=None):
        site = f"{module.__name__}.{attr}"
        setattr(module, attr,
                self.wrap(site, name, getattr(module, attr), attrs))

    def patch_method(self, cls, attr: str, name: str, attrs=None):
        site = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr,
                    classmethod(self.wrap(site, name, raw.__func__, attrs)))
        else:
            setattr(cls, attr, self.wrap(site, name, raw, attrs))


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _transitive_imports(graph, name: str) -> set[str]:
    out: set[str] = set()
    frontier = list(graph.deps.get(name, ()))
    while frontier:
        dep = frontier.pop()
        if dep not in out:
            out.add(dep)
            frontier.extend(graph.deps.get(dep, ()))
    return out


def build_attrs(report, builder) -> dict:
    """What a finished build exposes publicly: its decisions, the worker
    phase times of its compiles, and the import closures a worker needs
    for them (from the builder's ``DepGraph``)."""
    compiled = report.compiled
    graph = builder.last_graph
    closure: set[str] = set()
    closure_units = closure_bytes = 0
    for name in compiled:
        deps = _transitive_imports(graph, name)
        closure |= deps
        closure_units += len(deps)
        closure_bytes += sum(len(builder.units[d].payload) for d in deps)
    phases = {"parse": 0.0, "elaborate": 0.0, "hash": 0.0, "dehydrate": 0.0}
    for outcome in report.outcomes:
        if outcome.action == "compiled":
            for phase in phases:
                phases[phase] += getattr(outcome.times, phase)
    return {
        "compiled": compiled,
        "loaded": len(report.loaded),
        "cached": len(report.cached),
        "decided": len(report.outcomes),
        "jobs": report.jobs,
        "pool": report.pool,
        "phases": phases,
        "compiled_bytes": sum(len(builder.units[n].payload)
                              for n in compiled),
        "closure": sorted(closure),
        "closure_units": closure_units,
        "closure_bytes": closure_bytes,
    }


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark's workloads reach."""
    import concurrent.futures

    from repro.cm import base, daemon, depend, manager, parallel, supervise
    from repro.cm.store import BinStore
    from repro.linker.link import Linker
    from repro.obs.history import BuildHistory
    from repro.units import pipeline

    rec.patch_function(base, "analyze", "cm.depend.analyze")
    for module in (depend, pipeline):
        rec.patch_function(module, "parse_program", "lang.parser.parse")

    rec.patch_method(
        BinStore, "load_directory", "cm.store.load",
        lambda store, a, k: {"records": len(store),
                             "bytes": store.total_payload_bytes()})
    rec.patch_method(
        BinStore, "save_directory", "cm.store.save",
        lambda stats, a, k: {"records": stats.records_written,
                             "bytes": stats.bytes_written})

    rec.patch_method(manager.CutoffBuilder, "decide", "cm.decide")
    rec.patch_method(base.BaseBuilder, "explain", "cm.explain")
    rec.patch_method(base.BaseBuilder, "build", "cm.build",
                     lambda report, a, k: build_attrs(report, a[0]))
    rec.patch_method(supervise.Supervisor, "build", "cm.build",
                     lambda report, a, k: build_attrs(report, a[1]))

    for module in (base, parallel):
        rec.patch_function(module, "compile_unit", "units.pipeline.compile")
        rec.patch_function(
            module, "load_unit", "units.pipeline.rehydrate",
            lambda unit, a, k: {"unit": unit.name,
                                "bytes": len(_arg(a, k, 3, "payload"))})
    rec.patch_function(pipeline, "elaborate_decs", "elab.elaborate")
    rec.patch_function(pipeline, "intrinsic_pid", "pids.hash")
    rec.patch_function(pipeline, "binding_pids", "pids.hash")

    class Pickler(pipeline.Pickler):
        """The dehydrate pickler as ``compile_unit`` sees it; the hash
        phase runs its own picklers inside ``repro.pids``."""

        run = rec.wrap(f"{pipeline.__name__}.Pickler.run",
                       "pickle.dehydrate", pipeline.Pickler.run,
                       lambda payload, a, k: {"bytes": a[0].bytes_out})

    pipeline.Pickler = Pickler

    for module in (parallel, daemon):
        rec.patch_function(module, "make_executor", "cm.parallel.pool_start")
    # The wavefront loop blocks in Future.result; only the parent's
    # waits are recorded (pool workers never call it).
    rec.patch_method(concurrent.futures.Future, "result", "cm.parallel.wait")

    rec.patch_method(Linker, "link", "linker.link")
    rec.patch_method(BuildHistory, "record", "obs.history.record")
    rec.patch_method(daemon.BuildDaemon, "request", "cm.daemon.request")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rec = Recorder()
    install(rec)
    from repro.cm import __main__ as cli

    traced_main = rec.wrap(f"{cli.__name__}.main", "cli.main", cli.main)
    entered = time.perf_counter()
    try:
        return traced_main(argv)
    finally:
        dump = {"entered": entered, "spans": rec.spans, "fired": rec.fired}
        path = os.environ.get("BENCH_SHIM_OUT")
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, separators=(",", ":"))
        else:
            json.dump(dump, sys.stderr, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
