"""Experiment T1 -- the cost of the mechanism (paper §6).

Paper: compiling SML/NJ takes 32 minutes for ~200 units (~20 s/unit);
hashing measures as 0.0 s and dehydration+rehydration ~0.01 s per unit --
i.e. the separate-compilation machinery costs well under 1% of
compilation.  We measure the same per-phase breakdown over generated
projects and report the overhead ratio.
"""

import pytest

from repro.cm import CutoffBuilder
from repro.pickle.pickler import Pickler, Unpickler
from repro.pids.intrinsic import intrinsic_pid
from repro.units import Session, compile_unit
from repro.units.pipeline import load_unit
from repro.workload import generate_workload, random_dag

from .conftest import print_table


def _build_project(n_units: int, store=None):
    w = generate_workload(random_dag(n_units, 3, seed=11),
                          helpers_per_unit=12)
    builder = CutoffBuilder(w.project, store=store)
    report = builder.build()
    return w, builder, report


def test_phase_breakdown_sweep(benchmark):
    """The headline table: per-unit phase costs and the overhead ratio."""
    rows = []

    def run():
        results = []
        for size in (25, 50, 100):
            _w, builder, report = _build_project(size)
            compile_s = sum(o.times.compile_total() for o in report.outcomes)
            hash_s = sum(o.times.hash for o in report.outcomes)
            dehydrate_s = sum(o.times.dehydrate for o in report.outcomes)
            # Rehydration timing: reload everything in a fresh session.
            # A null build decodes no payload, so link to decode them all
            # (each loaded outcome's times count its unit's decode).
            fresh = CutoffBuilder(builder.project, store=builder.store)
            null_report = fresh.build()
            fresh.link()
            rehydrate_s = sum(o.times.rehydrate
                              for o in null_report.outcomes)
            results.append(
                (size, compile_s, hash_s, dehydrate_s, rehydrate_s))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    for size, compile_s, hash_s, dehydrate_s, rehydrate_s in results:
        overhead_ms = 1000 * (hash_s + dehydrate_s + rehydrate_s) / size
        rows.append([
            size,
            f"{1000 * compile_s / size:.2f}",
            f"{1000 * hash_s / size:.3f}",
            f"{1000 * dehydrate_s / size:.3f}",
            f"{1000 * rehydrate_s / size:.3f}",
            f"{overhead_ms:.2f}",
        ])
        # The paper reports the overhead in *absolute* terms: hashing
        # "0.0 seconds", dehydration+rehydration "0.01 seconds" per unit,
        # against ~20 s/unit native compilation.  Our absolute overhead
        # lands in the same ~10 ms/unit band; the *ratio* to compilation
        # is much larger only because a Python elaborator over small
        # units compiles in ~10 ms, not 20 s.
        assert overhead_ms < 100, f"overhead {overhead_ms:.1f} ms/unit"
        assert 1000 * hash_s / size < 1000 * compile_s / size

    print_table(
        "T1: per-unit phase costs (ms/unit)",
        ["units", "compile", "hash", "dehydrate", "rehydrate",
         "overhead(ms)"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["paper"] = (
        "compile ~20000 ms/unit; hash ~0 ms; dehydrate+rehydrate ~10 ms "
        "per unit")


@pytest.fixture(scope="module")
def sample_unit(basis):
    """A representative compiled unit + its session, for microbenchmarks."""
    session = Session(basis)
    w = generate_workload(random_dag(10, 3, seed=3), helpers_per_unit=12)
    units = []
    from repro.cm import analyze

    graph = analyze(w.project)
    by_name = {}
    for name in graph.order:
        imports = [by_name[d] for d in graph.deps[name]]
        unit = compile_unit(name, w.project.source(name), imports, session)
        by_name[name] = unit
        units.append(unit)
    return session, w, graph, by_name, units[-1]


def test_micro_compile(benchmark, sample_unit):
    session, w, graph, by_name, last = sample_unit
    imports = [by_name[d] for d in graph.deps[last.name]]
    source = w.project.source(last.name)
    benchmark(lambda: compile_unit(last.name, source, imports, session))


def test_micro_hash(benchmark, sample_unit):
    session, _w, graph, by_name, last = sample_unit
    owned = last.owned_stamp_ids
    benchmark(lambda: intrinsic_pid(
        last.static_env, owned, session.extern, seed=last.name))


def test_micro_dehydrate(benchmark, sample_unit):
    session, _w, _graph, _by_name, last = sample_unit
    owned = last.owned_stamp_ids

    def dehydrate():
        pickler = Pickler(local_stamp_ids=owned, extern=session.extern)
        return pickler.run((last.static_env, last.code))

    benchmark(dehydrate)


def test_micro_rehydrate(benchmark, sample_unit):
    session, _w, graph, by_name, last = sample_unit
    imports = [by_name[d] for d in graph.deps[last.name]]
    payload = last.payload

    def load_and_decode():
        # load_unit only reads the header; decode() rehydrates.
        unit = load_unit(last.name, last.export_pid, imports, payload,
                         session)
        unit.decode()
        return unit

    benchmark(load_and_decode)
