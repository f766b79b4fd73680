"""Stable-archive hardening: typed errors on damage, and builders that
fall back to sources instead of crashing."""

import json

import pytest

from repro.cm import CutoffBuilder, Project, StableArchiveError
from repro.cm.stable import MAGIC, parse_archive, stabilize
from repro.digest import content_digest
from repro.pids.crc128 import crc128_hex

LIB = {
    "mathsig": "signature MATH = sig val double : int -> int "
               "val square : int -> int end",
    "math": """
        structure Math : MATH = struct
          fun double x = x * 2
          fun square x = x * x
        end
    """,
}

APP = {
    "app": "structure App = struct val v = Math.square (Math.double 3) end",
}


@pytest.fixture
def archive():
    project = Project.from_sources(LIB)
    builder = CutoffBuilder(project)
    builder.build()
    return stabilize(builder, ["mathsig", "math"])


class TestArchiveValidation:
    def test_bad_magic_typed(self):
        with pytest.raises(StableArchiveError, match="not a stable"):
            parse_archive(b"garbage")

    def test_truncation_typed(self, archive):
        for cut in (4, 16, len(archive) // 2, len(archive) - 1):
            with pytest.raises(StableArchiveError):
                parse_archive(archive[:cut])

    def test_tiny_blob_typed(self):
        with pytest.raises(StableArchiveError, match="truncated"):
            parse_archive(MAGIC)

    def test_payload_bit_flip_caught(self, archive):
        # Flip a byte in the payload region (between header and digest).
        blob = bytearray(archive)
        blob[-20] ^= 0xFF
        with pytest.raises(StableArchiveError,
                           match="digest|checksum"):
            parse_archive(bytes(blob))

    def test_header_bit_flip_caught(self, archive):
        blob = bytearray(archive)
        blob[len(MAGIC) + 10] ^= 0x01
        with pytest.raises(StableArchiveError):
            parse_archive(bytes(blob))

    def test_trailing_garbage_caught(self, archive):
        with pytest.raises(StableArchiveError):
            parse_archive(archive + b"xx")

    def test_intact_archive_still_parses(self, archive):
        units = parse_archive(archive)
        assert [u.name for u in units] == ["mathsig", "math"]

    def test_stable_archive_error_is_a_value_error(self):
        assert issubclass(StableArchiveError, ValueError)


def repack(archive, version, digest, entry_key):
    """``archive``'s units packed as format ``version``: each payload
    checked under ``entry_key`` and the whole archive by ``digest``."""
    units = parse_archive(archive)
    start = len(MAGIC) + 8
    header = json.loads(archive[start:start + int.from_bytes(
        archive[len(MAGIC):start], "big")])
    header["version"] = version
    for entry, unit in zip(header["units"], units):
        del entry["payload_digest"]
        entry[entry_key] = digest(unit.payload)
    raw = json.dumps(header).encode()
    out = (MAGIC + len(raw).to_bytes(8, "big") + raw
           + b"".join(unit.payload for unit in units))
    return out + bytes.fromhex(digest(out))


class TestFormatVersion:
    def test_repack_reproduces_the_current_format(self, archive):
        assert repack(archive, 3, content_digest,
                      "payload_digest") == archive

    def test_version_2_archive_is_rejected(self, archive):
        """Version 2 checked each payload (``payload_crc``) and the
        whole archive with CRC-128."""
        with pytest.raises(StableArchiveError):
            parse_archive(repack(archive, 2, crc128_hex, "payload_crc"))

    def test_version_2_header_is_rejected_whatever_its_digests(
            self, archive):
        with pytest.raises(StableArchiveError, match="version"):
            parse_archive(repack(archive, 2, content_digest,
                                 "payload_digest"))


class TestBuilderFallback:
    def test_damaged_archive_falls_back_to_sources(self, archive):
        # The client has BOTH the archive and the library sources; when
        # the archive is damaged, the build quarantines it and compiles
        # the library from source -- same answer, no exception.
        project = Project.from_sources({**LIB, **APP})
        builder = CutoffBuilder(project)
        builder.add_stable_archive(archive[:-8])  # truncated
        report = builder.build()
        assert not builder.health.ok
        assert any(c.kind == "stable-archive"
                   for c in builder.health.corrupt)
        assert set(report.compiled) == {"mathsig", "math", "app"}
        skipped = [o for o in report.outcomes if o.action == "skipped"]
        assert skipped and "damaged stable archive" in skipped[0].reason
        exports = builder.link()
        assert exports["app"].structures["App"].values["v"] == 36

    def test_damaged_archive_without_sources_fails_typed(self, archive):
        from repro.cm import DependencyError
        from repro.elab.errors import ElabError

        project = Project.from_sources(APP)  # no library sources
        builder = CutoffBuilder(project)
        builder.add_stable_archive(bytes(reversed(archive)))
        # No stable providers and no sources: an ordinary typed build
        # error (the library's modules are simply unbound), not a raw
        # parse crash from the archive reader.
        with pytest.raises((DependencyError, ElabError)):
            builder.build()
        assert not builder.health.ok

    def test_intact_archive_unaffected(self, archive):
        project = Project.from_sources(APP)
        builder = CutoffBuilder(project)
        builder.add_stable_archive(archive)
        report = builder.build()
        assert set(report.loaded) == {"mathsig", "math"}
        assert builder.health.ok
        exports = builder.link()
        assert exports["app"].structures["App"].values["v"] == 36
