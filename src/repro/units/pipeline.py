"""The compile / execute / load pipeline over compilation units.

``compile_unit`` is the paper's ``compile : source × statenv →
codeUnit``; ``execute_unit`` is ``execute : codeUnit × dynenv → dynenv``;
``load_unit`` turns a bin payload produced in an earlier session into a
header-backed unit, which rehydrates the payload on first demand.
"""

from __future__ import annotations

import time

from repro.dynamic.evaluate import eval_decs
from repro.lang.parser import parse_program
from repro.elab.topdec import elaborate_decs
from repro.obs.meter import NULL_METER, BuildMeter
from repro.digest import content_digest
from repro.pickle.pickler import Pickler, context_chain_ids
from repro.pids.intrinsic import binding_pids, intrinsic_pid
from repro.units.session import Session
from repro.units.unit import (
    CompiledUnit,
    DynExport,
    PhaseTimes,
    layer_context,
)


def compile_unit(
    name: str,
    source: str,
    imports: list[CompiledUnit],
    session: Session,
    meter: BuildMeter = NULL_METER,
) -> CompiledUnit:
    """Parse, elaborate, hash and dehydrate one unit.

    ``imports`` are the already-compiled (or loaded) units this source
    depends on, in dependency order.  Registers the unit's exports in the
    session and returns the compiled unit.  ``meter`` observes the four
    phases (and the dehydrated byte count) when tracing is on.
    """
    times = PhaseTimes()

    t0 = time.perf_counter()
    with meter.span("parse", cat="phase", unit=name):
        decs = parse_program(source)
    t1 = time.perf_counter()
    with meter.span("elaborate", cat="phase", unit=name):
        context = layer_context(session, imports).child()
        export_env, elaborator = elaborate_decs(decs, context)
    t2 = time.perf_counter()

    with meter.span("hash", cat="phase", unit=name) as hsp:
        ctx_ids = context_chain_ids(context)
        pid = intrinsic_pid(export_env, elaborator.new_stamps,
                            session.extern, ctx_ids, seed=name)
        # Per-binding slice pids, same canonicalization, one pickler
        # run per exported binding (the smart builder's cutoff data).
        slice_pids = binding_pids(export_env, elaborator.new_stamps,
                                  session.extern, ctx_ids, seed=name)
        hsp.set(bindings=len(slice_pids))
    t3 = time.perf_counter()

    with meter.span("dehydrate", cat="phase", unit=name) as sp:
        pickler = Pickler(
            local_stamp_ids=elaborator.new_stamps,
            extern=session.extern,
            context_env_ids=ctx_ids,
        )
        payload = pickler.run((export_env, decs))
        sp.set(bytes=pickler.bytes_out)
    t4 = time.perf_counter()
    if meter.enabled:
        meter.counter("pickle.bytes_out", pickler.bytes_out)

    times.parse = t1 - t0
    times.elaborate = t2 - t1
    times.hash = t3 - t2
    times.dehydrate = t4 - t3

    unit = CompiledUnit(
        name=name,
        export_pid=pid,
        imports=[(imp.name, imp.export_pid) for imp in imports],
        static_env=export_env,
        code=decs,
        payload=payload,
        export_index=pickler.export_index,
        source_digest=source_digest(source),
        times=times,
        owned_stamp_ids=frozenset(elaborator.new_stamps),
        binding_pids=slice_pids,
    )
    session.register_exports(pid, pickler.export_index)
    return unit


def load_unit(
    name: str,
    export_pid: str,
    imports: list[CompiledUnit],
    payload: bytes,
    session: Session,
    source_digest_value: str = "",
    meter: BuildMeter = NULL_METER,
    binding_pids: dict[str, str] | None = None,
) -> CompiledUnit:
    """A header-backed unit for a bin payload from an earlier session.

    Nothing is decoded here: the unit carries its header and payload,
    and rehydrates the payload the first time its static environment,
    code or export index is read (or a stub names its pid), in
    ``session``, against ``imports`` -- the live units it was compiled
    against, which need not be decoded yet either.  The ``rehydrate``
    span then fires under whatever demanded it; ``times.rehydrate``
    counts this call and that decode.  A caller that must know at once
    whether the payload decodes calls ``unit.decode()`` itself.
    ``binding_pids`` carries the record's per-binding slice pids onto
    the unit (empty for stable-library units); rehydration never
    recomputes them.
    """
    t0 = time.perf_counter()
    unit = CompiledUnit.header_backed(
        name, export_pid, imports, payload, session, meter,
        source_digest=source_digest_value, binding_pids=binding_pids)
    unit.times.rehydrate = time.perf_counter() - t0
    return unit


def execute_unit(
    unit: CompiledUnit,
    dyn_imports: list[DynExport],
    session: Session,
) -> DynExport:
    """Run a unit's code against its imports' dynamic exports.

    Mirrors ``code : imports -> exports``: the import vector is spliced
    into a fresh frame over the basis dynamic environment, the code runs,
    and the unit's own top-level bindings are its export vector.
    """
    t0 = time.perf_counter()
    env = session.basis.dyn_env.child()
    for dyn in dyn_imports:
        dyn.splice_into(env)
    frame = env.child()
    eval_decs(unit.code, frame)
    unit.times.execute = time.perf_counter() - t0
    return DynExport(unit.name, frame)


def source_digest(source: str) -> str:
    """Digest of the raw source text (make-level currency check)."""
    return content_digest(source.encode("utf-8"))
