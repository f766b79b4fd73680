"""Corrupt bin streams must fail *closed*: the unpickler may only ever
raise ``UnpickleError`` (with byte-offset context), never an uncaught
IndexError/KeyError/struct.error/RecursionError escaping to the caller.

This is the contract the bin store's quarantine path relies on: any
payload that slips past the checksums still surfaces as a typed error
the builder converts into a recompile.
"""

import pytest

from repro.pickle import (
    UnpickleError,
    UnresolvedStubError,
    dehydrate,
    rehydrate,
)


def sample_stream():
    value = {"env": [1, "two", (3.0, None)], "shared": ["abcdefgh"] * 3,
             "blob": b"\x00\x01\x02", "flag": True}
    data, _ = dehydrate(value)
    return data


def assert_typed_failure_or_value(blob):
    """Decoding may succeed (the corruption landed in slack space) but a
    failure must be exactly UnpickleError."""
    try:
        rehydrate(blob)
    except UnpickleError as err:
        assert "byte" in str(err)  # offset context for diagnostics
    # Any other exception type propagates and fails the test.


class TestTruncation:
    def test_every_prefix_is_typed(self):
        data = sample_stream()
        for cut in range(len(data)):
            assert_typed_failure_or_value(data[:cut])

    def test_empty_stream(self):
        with pytest.raises(UnpickleError):
            rehydrate(b"")


class TestBitFlips:
    def test_single_byte_substitutions(self):
        data = sample_stream()
        for pos in range(len(data)):
            for sub in (0x00, 0xFF, data[pos] ^ 0x01, data[pos] ^ 0x80):
                blob = data[:pos] + bytes([sub]) + data[pos + 1:]
                assert_typed_failure_or_value(blob)


class TestGarbage:
    def test_arbitrary_bytes(self):
        for blob in (b"\xff" * 64, bytes(range(256)), b"not a pickle",
                     b"\x00" * 32, b"\x7f" * 8):
            assert_typed_failure_or_value(blob)

    def test_big_ints_still_roundtrip(self):
        # Legitimate bigints far past 64 bits must survive; the varint
        # cap only kicks in on absurd continuation runs.
        for n in (2**64, 2**200, -(2**300)):
            data, _ = dehydrate(n)
            out, _ = rehydrate(data)
            assert out == n

    def test_oversized_varint_is_rejected(self):
        # An INT whose (terminated) varint exceeds the width cap must be
        # refused rather than accumulating a multi-megabit bigint.
        with pytest.raises(UnpickleError, match="varint too long"):
            rehydrate(b"\x03" + b"\xff" * 20000 + b"\x00")

    def test_unterminated_varint_is_truncation(self):
        with pytest.raises(UnpickleError, match="truncated"):
            rehydrate(b"\x03" + b"\xff" * 32)

    def test_out_of_range_backref(self):
        # T_REF to an object that was never defined.
        data = sample_stream()
        assert_typed_failure_or_value(data + b"\x0f\xff\x7f")


# -- a real unit payload ---------------------------------------------------

PROVIDER = ("structure A = struct datatype t = T of int | U of string "
            "fun get (T n) = n | get (U _) = 0 end")
CLIENT = ("structure B = struct val v = A.T 3 fun f (x : A.t) = A.get x + 1 "
          "val r = (2.5, [true], \"s\") end")


@pytest.fixture(scope="module")
def client_unit():
    """The compiled client unit's payload, its provider's session, and
    a decoder for payloads like it: the client's interface mentions the
    provider's datatype, so the payload holds stubs as well as objects,
    strings and back-references."""
    from repro.cm import CutoffBuilder, Project

    builder = CutoffBuilder(Project.from_sources(
        {"a": PROVIDER, "b": CLIENT}))
    builder.build()
    session = builder.session

    def decode(blob, resolve=session.resolve):
        return rehydrate(blob, resolve=resolve)

    return builder.units["b"].payload, session, decode


def assert_damage_is_typed(decode, data):
    """Every prefix of ``data``, and each of four substitutions at every
    byte, decodes or raises a typed error naming its byte offset."""
    blobs = [data[:cut] for cut in range(len(data))]
    for pos in range(len(data)):
        for sub in (0x00, 0xFF, data[pos] ^ 0x01, data[pos] ^ 0x80):
            blobs.append(data[:pos] + bytes([sub]) + data[pos + 1:])
    for blob in blobs:
        try:
            decode(blob)
        except UnresolvedStubError:
            pass  # a stub naming an interface the session lacks: stale
        except UnpickleError as err:
            assert "byte" in str(err), err


class TestReferenceTagDamage:
    def test_unit_payload_holds_stubs(self, client_unit):
        payload, session, decode = client_unit
        stubs = []

        def resolve(pid, index):
            stubs.append((pid, index))
            return session.resolve(pid, index)

        (_env, code), _ = decode(payload, resolve)
        assert stubs and code

    def test_unit_payload(self, client_unit):
        payload, _session, decode = client_unit
        assert_damage_is_typed(decode, payload)
