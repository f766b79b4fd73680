"""Environments: layering and lookup."""

import pytest

from repro.semant import prim
from repro.semant.env import Env, Structure, ValueBinding
from repro.semant.stamps import StampGenerator

GEN = StampGenerator(start=20_000)


def _struct(name, env=None):
    return Structure(GEN.fresh(), name, env if env is not None else Env())


class TestLookup:
    def test_frame_lookup(self):
        env = Env()
        env.bind_value("x", ValueBinding(prim.int_type()))
        assert env.lookup_value("x") is not None
        assert env.lookup_value("y") is None

    def test_parent_chain(self):
        base = Env()
        base.bind_value("x", ValueBinding(prim.int_type()))
        child = base.child()
        assert child.lookup_value("x") is not None

    def test_shadowing(self):
        base = Env()
        base.bind_value("x", ValueBinding(prim.int_type()))
        child = base.child()
        child.bind_value("x", ValueBinding(prim.string_type()))
        assert child.lookup_value("x").scheme is not \
            base.lookup_value("x").scheme

    def test_namespaces_independent(self):
        env = Env()
        env.bind_value("t", ValueBinding(prim.int_type()))
        env.bind_tycon("t", prim.INT)
        env.bind_structure("t", _struct("t"))
        assert env.lookup_value("t") is not None
        assert env.lookup_tycon("t") is prim.INT
        assert env.lookup_structure("t") is not None

    def test_structure_path(self):
        inner = Env()
        inner.bind_value("v", ValueBinding(prim.int_type()))
        mid = Env()
        mid.bind_structure("B", _struct("B", inner))
        outer = Env()
        outer.bind_structure("A", _struct("A", mid))
        assert outer.lookup_value_path(("A", "B", "v")) is not None
        assert outer.lookup_value_path(("A", "C", "v")) is None
        assert outer.lookup_structure_path(("A", "B")) is not None

    def test_atop_layering(self):
        base = Env()
        base.bind_value("x", ValueBinding(prim.int_type()))
        overlay = Env()
        overlay.bind_value("y", ValueBinding(prim.string_type()))
        merged = overlay.atop(base)
        assert merged.lookup_value("x") is not None
        assert merged.lookup_value("y") is not None
        # Layering does not mutate either input.
        assert base.lookup_value("y") is None
        assert overlay.parent is None

    def test_absorb(self):
        a = Env()
        a.bind_value("x", ValueBinding(prim.int_type()))
        b = Env()
        b.absorb(a)
        assert b.lookup_value("x") is not None

    def test_frame_names_sorted(self):
        env = Env()
        env.bind_value("z", ValueBinding(prim.int_type()))
        env.bind_value("a", ValueBinding(prim.int_type()))
        assert env.frame_names()["values"] == ["a", "z"]

    def test_empty_frame(self):
        assert Env().is_empty_frame()
        env = Env()
        env.bind_tycon("t", prim.INT)
        assert not env.is_empty_frame()

