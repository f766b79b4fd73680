"""Hot paths leave no reference cycles behind.

A nested function that reaches itself through a closure cell keeps
everything it captures alive until the cyclic collector runs.  Under
the batch collector policy that may be never, so the decoder, the
elaborator's generalization walk, the module-name scan, the
flexible-tycon walk and the build pump drop such self-references when
their call ends.  Each check runs one operation with the collector off,
keeps its result alive, and collects with ``DEBUG_SAVEALL``: whatever
lands in ``gc.garbage`` was unreachable, yet not freed by reference
counting.
"""

import gc

from repro.cm import CutoffBuilder, Supervisor
from repro.pickle.pickler import rehydrate
from repro.workload import generate_workload
from repro.workload.shapes import diamond


def cyclic_garbage(operation):
    """``(result, objects only the collector could free)``."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = operation()
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()


def functions_in(garbage) -> set[str]:
    return {obj.__qualname__ for obj in garbage
            if type(obj).__name__ == "function"}


def project():
    return generate_workload(diamond(2, 2), helpers_per_unit=1).project


def test_payload_decode_leaves_nothing():
    builder = CutoffBuilder(project())
    builder.build()
    record = builder.store.get("u000")
    (root, exports), garbage = cyclic_garbage(
        lambda: rehydrate(record.payload))
    assert exports
    assert garbage == []


def test_serial_build_leaves_no_closure_cycles():
    builder = CutoffBuilder(project())
    report, garbage = cyclic_garbage(builder.build)
    assert len(report.compiled) == len(builder.project)
    assert functions_in(garbage) == set()


def test_pump_build_leaves_no_closure_cycles():
    builder = CutoffBuilder(project())
    report, garbage = cyclic_garbage(
        lambda: Supervisor(jobs=1).build(builder))
    assert len(report.compiled) == len(builder.project)
    assert functions_in(garbage) == set()
