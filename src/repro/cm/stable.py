"""Stable libraries: a built group frozen into one archive.

Section 9 describes libraries whose "dependency information ... [is]
computed and cached, [so] it is not time-consuming to do large builds";
SML/NJ's CM later took this to its conclusion with *stable libraries* --
a whole library packed, post-build, into a single file that clients load
without ever seeing the library's sources.  This module implements that:

- :func:`stabilize` packs named units out of a built builder into one
  archive: per-unit header (name, export pid, import pids, the module
  names it provides) plus the dehydrated payloads, in dependency order.
- :meth:`repro.cm.base.BaseBuilder.add_stable_archive` registers an
  archive with a builder; its units are loaded and decoded on the next
  build (there is no source to fall back to at first demand) and act
  as providers for source units, no sources required.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.pids.crc128 import crc128_hex

MAGIC = b"SMLSTABLE1\n"

#: Archive format version.  Version 2 added per-unit payload checksums
#: and a trailing whole-archive digest; other versions are rejected with
#: a typed error (clients recompile from sources when they have them).
ARCHIVE_VERSION = 2


class StableArchiveError(ValueError):
    """A stable archive is damaged (bad magic, truncation, checksum or
    digest mismatch, unsupported version, unparsable header)."""


@dataclass
class StableUnit:
    name: str
    export_pid: str
    imports: list[tuple[str, str]]
    provides: list[str]
    payload: bytes


def stabilize(builder, names: list[str]) -> bytes:
    """Pack the named (already built) units into a stable archive.

    Units are written in the builder's dependency order; every import of
    a packed unit must itself be packed (stable libraries are closed).
    """
    graph = builder.last_graph
    if graph is None:
        raise ValueError("build before stabilizing")
    chosen = set(names)
    ordered = [n for n in graph.order if n in chosen]
    missing = chosen - set(ordered)
    if missing:
        raise ValueError(f"units not built: {sorted(missing)}")
    entries = []
    payloads = []
    from repro.lang.freevars import defined_module_names

    for name in ordered:
        unit = builder.units[name]
        for import_name, _pid in unit.imports:
            if import_name not in chosen:
                raise ValueError(
                    f"stable archive not closed: {name} imports "
                    f"{import_name}, which is outside the archive")
        unit = builder.decoded(name)  # the code names what it provides
        defined = defined_module_names(unit.code)
        provides = sorted(
            set().union(*defined.values())) if defined else []
        entries.append({
            "name": name,
            "export_pid": unit.export_pid,
            "imports": unit.imports,
            "provides": provides,
            "payload_len": len(unit.payload),
            "payload_crc": crc128_hex(unit.payload),
        })
        payloads.append(unit.payload)
    header = json.dumps(
        {"version": ARCHIVE_VERSION, "units": entries}).encode()
    out = bytearray(MAGIC)
    out.extend(len(header).to_bytes(8, "big"))
    out.extend(header)
    for payload in payloads:
        out.extend(payload)
    # Whole-archive digest: anyone truncating or flipping a byte
    # anywhere in the file is caught even if the damage lands between
    # the per-unit checksums.
    out.extend(bytes.fromhex(crc128_hex(bytes(out))))
    return bytes(out)


def parse_archive(blob: bytes) -> list[StableUnit]:
    """Parse and verify a stable archive.

    Raises :class:`StableArchiveError` -- never anything rawer -- on any
    damage: bad magic, truncation at any offset, unparsable header,
    unsupported version, per-unit checksum or whole-archive digest
    mismatch, trailing bytes.
    """
    if not blob.startswith(MAGIC):
        raise StableArchiveError("not a stable archive")
    if len(blob) < len(MAGIC) + 8 + 16:
        raise StableArchiveError("truncated stable archive (no header)")
    digest = blob[-16:].hex()
    body = blob[:-16]
    if crc128_hex(body) != digest:
        raise StableArchiveError(
            "stable-archive digest mismatch (truncated or corrupted)")
    offset = len(MAGIC)
    header_len = int.from_bytes(body[offset:offset + 8], "big")
    offset += 8
    if offset + header_len > len(body):
        raise StableArchiveError("truncated stable archive (header)")
    try:
        header = json.loads(body[offset:offset + header_len])
    except (ValueError, UnicodeDecodeError) as err:
        raise StableArchiveError(
            f"corrupt stable-archive header: {err}") from None
    offset += header_len
    if not isinstance(header, dict) or \
            header.get("version") != ARCHIVE_VERSION:
        raise StableArchiveError("unsupported stable-archive version")
    units = []
    try:
        entries = header["units"]
        for entry in entries:
            length = entry["payload_len"]
            if not isinstance(length, int) or length < 0 or \
                    offset + length > len(body):
                raise StableArchiveError(
                    f"truncated stable archive (payload of "
                    f"{entry.get('name', '?')!r})")
            payload = body[offset:offset + length]
            offset += length
            if crc128_hex(payload) != entry["payload_crc"]:
                raise StableArchiveError(
                    f"checksum mismatch in stable unit "
                    f"{entry.get('name', '?')!r}")
            units.append(StableUnit(
                name=entry["name"],
                export_pid=entry["export_pid"],
                imports=[tuple(pair) for pair in entry["imports"]],
                provides=list(entry["provides"]),
                payload=payload,
            ))
    except StableArchiveError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise StableArchiveError(
            f"malformed stable-archive header: "
            f"{type(err).__name__}: {err}") from None
    if offset != len(body):
        raise StableArchiveError("trailing bytes in stable archive")
    return units
