"""Intrinsic pids: hashing exported static environments (§5).

The paper's algorithm:

1. Traverse the exported static environment in a canonical (prefix)
   order.
2. Alpha-convert: internal stamps are replaced by provisional pids
   1..n in traversal order, so the hash is independent of which session
   minted the stamps.
3. External entities are rendered as (owning unit's pid, export index).
4. CRC-128 the resulting byte stream; the digest is the unit's pid.

Our canonical serialization is the dehydrater itself run in
line-normalizing mode (so editing comments -- which only shifts line
numbers -- cannot change a pid), with the memo numbering of the shared
pickler playing the role of the provisional pids.  As the paper notes
wryly ("Look how many passes we are taking over the export
environments!"), hashing and dehydration are separate passes; sharing the
traversal code keeps them consistent by construction.
"""

from __future__ import annotations

from repro.pickle.pickler import Pickler
from repro.pids.crc128 import CRC128
from repro.semant.env import Env

#: The namespaces a separately compiled unit may export (the paper's
#: footnote 4); per-binding pids cover exactly these.
_BINDING_NAMESPACES = ("structures", "signatures", "functors")


def intrinsic_pid(
    export_env: Env,
    local_stamp_ids,
    extern=None,
    context_env_ids=frozenset(),
    seed: str = "",
) -> str:
    """The intrinsic pid (32 hex digits) of an exported environment.

    ``seed`` is mixed in first; the unit pipeline passes the unit's name
    so that two textually identical units get distinct pids.  (Their
    exported datatypes are distinct *generative* types, and the
    (pid, index) stub namespace must keep them apart.)
    """
    pickler = Pickler(
        local_stamp_ids=local_stamp_ids,
        extern=extern,
        context_env_ids=context_env_ids,
        normalize_lines=True,
    )
    data = pickler.run(export_env)
    crc = CRC128()
    if seed:
        crc.update(seed.encode("utf-8"))
    return crc.update(data).hexdigest()


def binding_pids(
    export_env: Env,
    local_stamp_ids,
    extern=None,
    context_env_ids=frozenset(),
    seed: str = "",
) -> dict[str, str]:
    """Per-binding intrinsic pids: the interface *slice* hashes.

    One pid per exported module-level binding, keyed ``"ns:name"``
    (the :func:`repro.lang.freevars.binding_key` format).  Each is a
    CRC-128 over just that binding's canonical (alpha-converted,
    line-normalized) dehydration, so a binding's pid moves exactly when
    *its* interface slice changes -- edits to sibling bindings are
    invisible.  The seed mixes in the unit name *and* the binding key,
    for the same generativity reason :func:`intrinsic_pid` seeds with
    the unit name: two textually identical bindings in different slots
    are distinct entities.

    Each binding gets its own pickler run, so its memo numbering (the
    provisional pids of the alpha-conversion) restarts per binding and
    the pid is independent of where the binding sits in the interface:
    reordering declarations cannot change any binding pid.
    """
    out: dict[str, str] = {}
    for ns in _BINDING_NAMESPACES:
        for name in sorted(getattr(export_env, ns)):
            obj = getattr(export_env, ns)[name]
            pickler = Pickler(
                local_stamp_ids=local_stamp_ids,
                extern=extern,
                context_env_ids=context_env_ids,
                normalize_lines=True,
            )
            data = pickler.run(obj)
            crc = CRC128()
            crc.update(f"{seed}\x00{ns}:{name}\x00".encode("utf-8"))
            out[f"{ns}:{name}"] = crc.update(data).hexdigest()
    return out


def interface_digest(pids: dict[str, str]) -> str:
    """The whole-interface digest over sorted binding pids.

    This is the slice-level counterpart of :func:`intrinsic_pid`: it
    changes iff some binding's pid changed (or a binding appeared or
    disappeared), so ``interface_digest(binding_pids(...))`` stable
    implies the whole-pid cutoff test would also pass.  Property tests
    hold the two views together.
    """
    crc = CRC128()
    for key in sorted(pids):
        crc.update(f"{key}={pids[key]}\n".encode("utf-8"))
    return crc.hexdigest()
