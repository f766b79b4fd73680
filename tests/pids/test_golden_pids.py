"""Golden export pids.

Pids are the paper's CRC-128 over the canonical, alpha-converted export
environment (§5).  They must not move when anything else about a bin
record changes -- its format version, its other digests, the store
layout -- because cutoff and the link check compare pids written by
one session with pids computed by another.  These values were computed
before bin records moved their non-pid digests to BLAKE2b, and must
stay bit-identical.
"""

from repro.cm import BinStore, CutoffBuilder, Project
from repro.workload import generate_workload
from repro.workload.shapes import diamond
from tests.integration.test_figure1 import UNITS as FIGURE1

FIGURE1_PIDS = {
    "factors": "9fb762b9160e9ef0007a01920f8be3e5",
    "fsort": "215282655b70bc7bec59a015ef885492",
    "orders": "d4d34c5006fc8d44ae4f2b3a2b2ee255",
    "topsort": "95b9a36881ae81be74bf434eef723763",
}

#: ``diamond(2, 2)`` with leaked types: every pid hashes its first
#: import's pid, so a change anywhere upstream would show here.
DIAMOND_PIDS = {
    "u000": "02175a947a7be84002f37b4b53c09303",
    "u001": "d502718db95e39c75bab62e10a3d5a8a",
    "u002": "b364dfdf56eee6b4175680e5dd63d5e8",
    "u003": "704cb06f0f14cf4ee646ecb1b41f18a4",
    "u004": "1948c3a7bc77c99ec344d924fac38053",
    "u005": "4820162a8a5d5ee5eaaf61a43105906b",
}

U003_BINDING_PIDS = {
    "structures:M003": "f25ad1614cd5c775a011da94860faff7",
    "signatures:SIG003": "b4c0bf9efd893d3eaae47ed404db18d9",
}


def export_pids(builder):
    return {name: unit.export_pid for name, unit in builder.units.items()}


def test_figure1_export_pids():
    builder = CutoffBuilder(Project.from_sources(FIGURE1))
    builder.build()
    assert export_pids(builder) == FIGURE1_PIDS


def test_leaky_diamond_export_and_binding_pids():
    w = generate_workload(diamond(2, 2), helpers_per_unit=1,
                          leak_types=True)
    builder = CutoffBuilder(w.project)
    builder.build()
    assert export_pids(builder) == DIAMOND_PIDS
    assert builder.units["u003"].binding_pids == U003_BINDING_PIDS


def test_pids_survive_a_store_round_trip(tmp_path):
    builder = CutoffBuilder(Project.from_sources(FIGURE1))
    builder.build()
    builder.store.save_directory(str(tmp_path / "bins"))
    again = CutoffBuilder(Project.from_sources(FIGURE1),
                          store=BinStore.load_directory(
                              str(tmp_path / "bins")))
    assert again.build().compiled == []
    assert export_pids(again) == FIGURE1_PIDS
