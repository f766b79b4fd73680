"""Dehydration/rehydration: roundtrips, sharing, cycles, stubs."""

import pytest

from repro.elab.topdec import elaborate_decs
from repro.lang.parser import parse_program
from repro.pickle import PickleError, UnpickleError, dehydrate, rehydrate
from repro.semant.env import Env, Structure, ValueBinding
from repro.semant.format import format_type
from repro.semant.stamps import StampGenerator
from repro.semant.types import ConType, DatatypeTycon, TyVar


def roundtrip(value):
    data, _ = dehydrate(value)
    out, _ = rehydrate(data)
    return out


class TestPrimitiveValues:
    def test_none(self):
        assert roundtrip(None) is None

    def test_bools(self):
        assert roundtrip(True) is True
        assert roundtrip(False) is False

    def test_ints(self):
        for n in (0, 1, -1, 127, 128, -128, 10**12, -(10**12)):
            assert roundtrip(n) == n

    def test_floats(self):
        for x in (0.0, -1.5, 3.14159, 1e300):
            assert roundtrip(x) == x

    def test_strings(self):
        for s in ("", "hello", "uniçode", "a\nb"):
            assert roundtrip(s) == s

    def test_bytes(self):
        assert roundtrip(b"\x00\xff") == b"\x00\xff"

    def test_tuple(self):
        assert roundtrip((1, "a", (2, 3))) == (1, "a", (2, 3))

    def test_list(self):
        assert roundtrip([1, [2], "x"]) == [1, [2], "x"]

    def test_dict(self):
        assert roundtrip({"a": 1, "b": [2]}) == {"a": 1, "b": [2]}

    def test_string_interning(self):
        # Repeated strings are written once.
        short, _ = dehydrate(["abcdefgh"] * 2)
        long_unique, _ = dehydrate(["abcdefgh", "ijklmnop"])
        assert len(short) < len(long_unique)


class TestSemanticObjects:
    def test_env_roundtrip(self, elab_full):
        env, el = elab_full("structure S = struct val x = 1 end")
        data, _ = dehydrate(env, local_stamp_ids=el.new_stamps,
                            extern=_no_extern)
        out, _ = rehydrate(data)
        assert "S" in out.structures
        assert format_type(out.structures["S"].env.values["x"].scheme) == \
            "int"

    def test_datatype_cycle(self, elab_full):
        env, el = elab_full(
            "structure S = struct datatype t = A | B of t end")
        data, _ = dehydrate(env, local_stamp_ids=el.new_stamps,
                            extern=_no_extern)
        out, _ = rehydrate(data)
        tycon = out.structures["S"].env.tycons["t"]
        assert isinstance(tycon, DatatypeTycon)
        # The cycle is rebuilt: B's argument type is the same tycon object.
        b = tycon.constructors[1]
        body = b.scheme
        assert body.dom.tycon is tycon

    def test_sharing_preserved(self):
        # One object referenced twice decodes to one object.
        shared = ConType(_fresh_datatype("t"), ())
        data, _ = dehydrate((shared, shared),
                            local_stamp_ids={shared.tycon.stamp.id})
        (a, b), _ = rehydrate(data)
        assert a is b

    def test_stamps_fresh_on_load(self):
        tycon = _fresh_datatype("t")
        data, _ = dehydrate(tycon, local_stamp_ids={tycon.stamp.id})
        out1, _ = rehydrate(data)
        out2, _ = rehydrate(data)
        # Two rehydrations yield distinct generative identities.
        assert out1.stamp is not out2.stamp
        assert out1.stamp.id != out2.stamp.id

    def test_prim_tycons_resolve_to_singletons(self, elab_full):
        env, el = elab_full("structure S = struct val n = 42 end")
        data, _ = dehydrate(env, local_stamp_ids=el.new_stamps,
                            extern=_no_extern)
        out, _ = rehydrate(data)
        from repro.semant.prim import INT

        assert out.structures["S"].env.values["n"].scheme.tycon is INT

    def test_unresolved_tyvar_rejected(self):
        env = Env()
        env.bind_value("x", ValueBinding(TyVar(level=1)))
        with pytest.raises(PickleError, match="type variable"):
            dehydrate(env)

    def test_unregistered_class_rejected(self):
        class Strange:
            pass

        with pytest.raises(PickleError, match="not registered"):
            dehydrate(Strange())


class TestStubs:
    def test_foreign_object_needs_registry(self):
        foreign = _fresh_datatype("foreign")
        with pytest.raises(PickleError, match="extern"):
            dehydrate(ConType(foreign, ()), local_stamp_ids=set())

    def test_dangling_reference_reported(self):
        foreign = _fresh_datatype("foreign")

        def extern(_stamp_id):
            raise KeyError(_stamp_id)

        with pytest.raises(PickleError, match="dangling"):
            dehydrate(ConType(foreign, ()), local_stamp_ids=set(),
                      extern=extern)

    def test_stub_resolution(self):
        foreign = _fresh_datatype("foreign")
        data, _ = dehydrate(
            ConType(foreign, ()), local_stamp_ids=set(),
            extern=lambda sid: ("PIDX", 7))
        out, _ = rehydrate(
            data, resolve=lambda pid, idx: {("PIDX", 7): foreign}[(pid, idx)])
        assert out.tycon is foreign

    def test_missing_context_object_reported(self):
        foreign = _fresh_datatype("foreign")
        data, _ = dehydrate(
            ConType(foreign, ()), local_stamp_ids=set(),
            extern=lambda sid: ("PIDX", 7))

        def resolve(pid, idx):
            raise KeyError((pid, idx))

        with pytest.raises(UnpickleError, match="unresolved external"):
            rehydrate(data, resolve=resolve)

    def test_export_index_symmetry(self, elab_full):
        env, el = elab_full(
            "structure A = struct datatype t = T end "
            "structure B = struct datatype u = U end")
        data, enc_index = dehydrate(env, local_stamp_ids=el.new_stamps,
                                    extern=_no_extern)
        _out, dec_index = rehydrate(data)
        assert len(enc_index) == len(dec_index)
        enc_kinds = [type(o).__name__ for o in enc_index]
        dec_kinds = [type(o).__name__ for o in dec_index]
        assert enc_kinds == dec_kinds


class TestCorruption:
    def test_truncated_stream(self):
        data, _ = dehydrate([1, 2, 3])
        with pytest.raises(UnpickleError, match="truncated"):
            rehydrate(data[:-2])

    def test_trailing_garbage(self):
        data, _ = dehydrate(7)
        with pytest.raises(UnpickleError, match="trailing"):
            rehydrate(data + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(UnpickleError):
            rehydrate(b"\xfa")
        # 12 once marked a frame of the compilation context.  Nothing
        # writes it, so a stream holding it is damage like any other.
        with pytest.raises(UnpickleError,
                           match=r"unknown tag 12 \(at byte 3 of 4\)"):
            rehydrate(b"\x07\x02\x0c\x00")


def _no_extern(stamp_id):
    raise AssertionError(f"unexpected external reference {stamp_id}")


_GEN = StampGenerator(start=10_000_000)


def _fresh_datatype(name):
    return DatatypeTycon(_GEN.fresh(), name, 0)
