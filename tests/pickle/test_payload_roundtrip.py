"""A decoded payload dehydrates back to its own bytes.

Decode every payload of a generated layered project in a new session,
imports first, then dehydrate each unit again with its own boundary:
the stamps it owns, the session's extern registry, and the context
chain its static environment sits on.  Encoder and decoder walk the
graph in the same order, so the bytes, and the export index, must come
back unchanged.  Nothing else checks the decoder against the encoder
on real units.
"""

from repro.cm import CutoffBuilder
from repro.pickle import Pickler
from repro.pickle.pickler import context_chain_ids
from repro.units import Session
from repro.units.pipeline import load_unit
from repro.workload import generate_workload, layered


def test_every_payload_dehydrates_back_to_its_bytes():
    w = generate_workload(layered([1, 6, 10, 6, 2], fan_in=3, seed=42),
                          helpers_per_unit=3, leak_types=True)
    builder = CutoffBuilder(w.project)
    builder.build()
    session = Session()
    live = {}
    for name in builder.last_graph.order:
        unit = builder.units[name]
        loaded = load_unit(name, unit.export_pid,
                           [live[dep] for dep, _pid in unit.imports],
                           unit.payload, session)
        live[name] = loaded
        pickler = Pickler(
            local_stamp_ids=loaded.owned_stamp_ids,
            extern=session.extern,
            context_env_ids=context_chain_ids(loaded.static_env.parent))
        assert pickler.run((loaded.static_env, loaded.code)) \
            == unit.payload, name
        assert pickler.export_index == loaded.export_index, name
    assert len(live) == 25
