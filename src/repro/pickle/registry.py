"""The class registry: which Python classes may appear in a bin file.

The paper reports SML/NJ's static environments span "36 different
datatypes [with] a total of 115 variants [and] 193 record fields"; this
table is our equivalent inventory.  Classes are listed in a fixed order
so class tags are stable across sessions; each entry carries the field
names to serialize (from ``__slots__`` or dataclass fields).

Only classes in this registry can be dehydrated -- anything else in an
export environment is a bug, and the pickler reports it rather than
guessing.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.lang import ast
from repro.semant import env as env_mod
from repro.semant import types as types_mod
from repro.semant.stamps import Stamp


def _dataclass_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _slots_fields(cls) -> tuple[str, ...]:
    return tuple(cls.__slots__)


#: Ordered list of (class, field names).  Order defines class tags.
def _build() -> list[tuple[type, tuple[str, ...]]]:
    entries: list[tuple[type, tuple[str, ...]]] = []

    # Semantic objects (stamps are handled by a dedicated tag, and
    # PrimTycon by the PRIM tag; neither appears here).
    for cls in (
        types_mod.ConType,
        types_mod.RecordType,
        types_mod.FunType,
        types_mod.PolyType,
        types_mod.BoundVar,
        types_mod.DatatypeTycon,
        types_mod.AbstractTycon,
        types_mod.TypeFun,
        types_mod.Constructor,
        types_mod.OverloadScheme,
    ):
        entries.append((cls, _slots_fields(cls)))
    entries.append((env_mod.ValueBinding, _slots_fields(env_mod.ValueBinding)))
    entries.append((env_mod.Env, _slots_fields(env_mod.Env)))
    entries.append((env_mod.Structure, _slots_fields(env_mod.Structure)))
    entries.append((env_mod.Sig, _slots_fields(env_mod.Sig)))
    entries.append((env_mod.Functor, _slots_fields(env_mod.Functor)))

    # AST nodes (the unit's "code", and functor bodies inside
    # environments).  Every concrete dataclass in repro.lang.ast, in
    # definition order (stable: source order of the module).
    for name in dir(ast):
        cls = getattr(ast, name)
        if (
            isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__ == "repro.lang.ast"
        ):
            entries.append((cls, _dataclass_fields(cls)))
    return entries


REGISTRY: list[tuple[type, tuple[str, ...]]] = _build()

#: Classes whose instances carry a generative stamp; these are the
#: stub-able, export-indexable objects.
STAMPED_CLASSES = (
    types_mod.DatatypeTycon,
    types_mod.AbstractTycon,
    env_mod.Structure,
    env_mod.Sig,
    env_mod.Functor,
)

CLASS_TO_TAG: dict[type, int] = {cls: i for i, (cls, _) in enumerate(REGISTRY)}
#: Indexed by class tag: ``(class, field names, stamped)``, where
#: ``stamped`` says the class is one of :data:`STAMPED_CLASSES`.
TAG_TO_ENTRY: tuple[tuple[type, tuple[str, ...], bool], ...] = tuple(
    (cls, fields, issubclass(cls, STAMPED_CLASSES))
    for cls, fields in REGISTRY)


@functools.cache
def prim_tycon_table() -> dict[str, object]:
    """Primitive tycon singletons by name (the PRIM tag serializes them
    by name).  Built once: every call returns the same dict."""
    from repro.semant import prim

    return {
        tycon.name: tycon
        for tycon in (
            prim.INT, prim.WORD, prim.REAL, prim.STRING, prim.CHAR,
            prim.EXN, prim.REF, prim.ARRAY, prim.VECTOR,
        )
    }


assert Stamp not in CLASS_TO_TAG
