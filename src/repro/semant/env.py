"""Static environments and module-level semantic objects.

The paper's §4 asks two things of environments:

- *layering*: the context for compiling a unit is the composition of the
  exported environments of everything it imports, plus the pervasive
  basis.  :meth:`Env.atop` builds such compositions without copying.
- *indexing by stamp*: the paper's rehydrater finds "the real in-core
  pointer" for a stub by stamp; here stubs resolve through the session's
  (pid, index) registry.

An :class:`Env` holds five namespaces, mirroring SML's: values (including
data and exception constructors), type constructors, structures,
signatures, and functors.
"""

from __future__ import annotations

from repro.lang import ast
from repro.semant.stamps import Stamp
from repro.semant.types import Constructor, Tycon, Type, TypeFun

NAMESPACES = ("values", "tycons", "structures", "signatures", "functors")


class ValueBinding:
    """A value-namespace entry: a type scheme, plus the constructor when
    the name denotes a data or exception constructor."""

    __slots__ = ("scheme", "con")

    def __init__(self, scheme: Type, con: Constructor | None = None):
        self.scheme = scheme
        self.con = con

    def is_constructor(self) -> bool:
        return self.con is not None

    def __repr__(self) -> str:
        tag = f" [{self.con!r}]" if self.con else ""
        return f"<val {self.scheme!r}{tag}>"


class Env:
    """One environment frame, optionally layered atop a parent.

    Frames are mutated while their defining declaration is being
    elaborated and treated as immutable afterwards.
    """

    __slots__ = ("values", "tycons", "structures", "signatures", "functors",
                 "parent")

    def __init__(self, parent: "Env | None" = None):
        self.values: dict[str, ValueBinding] = {}
        self.tycons: dict[str, Tycon | TypeFun] = {}
        self.structures: dict[str, Structure] = {}
        self.signatures: dict[str, Sig] = {}
        self.functors: dict[str, Functor] = {}
        self.parent = parent

    # -- construction -----------------------------------------------------

    def child(self) -> "Env":
        """A fresh frame scoping over this one."""
        return Env(parent=self)

    def atop(self, base: "Env") -> "Env":
        """Layer this frame's bindings (frame only, not its parents) over
        ``base``, returning a new composite frame."""
        merged = Env(parent=base)
        merged.absorb(self)
        return merged

    def absorb(self, other: "Env") -> None:
        """Copy the bindings of ``other``'s top frame into this frame."""
        self.values.update(other.values)
        self.tycons.update(other.tycons)
        self.structures.update(other.structures)
        self.signatures.update(other.signatures)
        self.functors.update(other.functors)

    # -- lookups ------------------------------------------------------------

    def _lookup(self, namespace: str, name: str):
        env: Env | None = self
        while env is not None:
            table = getattr(env, namespace)
            if name in table:
                return table[name]
            env = env.parent
        return None

    def lookup_value(self, name: str) -> ValueBinding | None:
        return self._lookup("values", name)

    def lookup_tycon(self, name: str):
        return self._lookup("tycons", name)

    def lookup_structure(self, name: str) -> "Structure | None":
        return self._lookup("structures", name)

    def lookup_signature(self, name: str) -> "Sig | None":
        return self._lookup("signatures", name)

    def lookup_functor(self, name: str) -> "Functor | None":
        return self._lookup("functors", name)

    def lookup_structure_path(self, path: ast.Path) -> "Structure | None":
        """Resolve a qualified structure path like A.B.C."""
        struct = self.lookup_structure(path[0])
        for name in path[1:]:
            if struct is None:
                return None
            struct = struct.env.structures.get(name)
        return struct

    def _lookup_qualified(self, namespace: str, path: ast.Path):
        if len(path) == 1:
            return self._lookup(namespace, path[0])
        struct = self.lookup_structure_path(path[:-1])
        if struct is None:
            return None
        return getattr(struct.env, namespace).get(path[-1])

    def lookup_value_path(self, path: ast.Path) -> ValueBinding | None:
        return self._lookup_qualified("values", path)

    def lookup_tycon_path(self, path: ast.Path):
        return self._lookup_qualified("tycons", path)

    # -- binding ---------------------------------------------------------

    def bind_value(self, name: str, binding: ValueBinding) -> None:
        self.values[name] = binding

    def bind_tycon(self, name: str, tycon: Tycon | TypeFun) -> None:
        self.tycons[name] = tycon

    def bind_structure(self, name: str, struct: "Structure") -> None:
        self.structures[name] = struct

    def bind_signature(self, name: str, sig: "Sig") -> None:
        self.signatures[name] = sig

    def bind_functor(self, name: str, functor: "Functor") -> None:
        self.functors[name] = functor

    # -- misc ---------------------------------------------------------------

    def frame_names(self) -> dict[str, list[str]]:
        """Names bound in this frame, by namespace (sorted)."""
        return {ns: sorted(getattr(self, ns)) for ns in NAMESPACES}

    def is_empty_frame(self) -> bool:
        return not any(getattr(self, ns) for ns in NAMESPACES)

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{ns}={len(getattr(self, ns))}" for ns in NAMESPACES
            if getattr(self, ns)
        )
        chained = " +parent" if self.parent is not None else ""
        return f"<env {sizes or 'empty'}{chained}>"


class Structure:
    """An elaborated structure: a stamp and its exported environment."""

    __slots__ = ("stamp", "name", "env")

    def __init__(self, stamp: Stamp, name: str, env: Env):
        self.stamp = stamp
        self.name = name
        self.env = env

    def __repr__(self) -> str:
        return f"<structure {self.name} {self.stamp!r}>"


class Sig:
    """An elaborated signature: a *formal instance*.

    ``env`` binds the specified names to formal objects; tycon specs
    without a definition become fresh :class:`AbstractTycon`s whose stamps
    are listed in ``flex`` -- the signature's bound (flexible) stamps,
    instantiated by signature matching.
    """

    __slots__ = ("stamp", "name", "env", "flex")

    def __init__(self, stamp: Stamp, name: str, env: Env,
                 flex: list[Stamp]):
        self.stamp = stamp
        self.name = name
        self.env = env
        self.flex = flex

    def __repr__(self) -> str:
        return f"<sig {self.name} {self.stamp!r} flex={len(self.flex)}>"


class Functor:
    """An elaborated functor.

    The body is kept as AST together with the definition environment; an
    application re-elaborates the body against the actual argument (after
    matching it to ``param_sig``), which yields the Definition's
    generative semantics: each application mints fresh stamps.

    ``result_sig`` is kept as *AST* and elaborated at each application
    with the parameter in scope, so dependent result signatures
    (``: SORTER where type t = P.t``) work.

    Higher-order form: when ``fct_param`` is set (a tuple of the inner
    parameter name, the parameter signature AST, and the result
    signature AST), the functor takes a *functor* argument and
    ``param_sig`` is None.  A Functor whose ``body`` is None is a
    *formal* (abstract) functor -- the stand-in bound during
    definition-time checking; applying it yields a fresh instance of its
    result signature.
    """

    __slots__ = ("stamp", "name", "param_name", "param_sig", "result_sig",
                 "opaque", "body", "def_env", "fct_param")

    def __init__(self, stamp: Stamp, name: str, param_name: str,
                 param_sig: "Sig | None", result_sig: "Sig | None",
                 opaque: bool, body, def_env: Env,
                 fct_param=None):
        self.stamp = stamp
        self.name = name
        self.param_name = param_name
        self.param_sig = param_sig
        self.result_sig = result_sig
        self.opaque = opaque
        self.body = body
        self.def_env = def_env
        self.fct_param = fct_param

    def is_formal(self) -> bool:
        return self.body is None

    def takes_functor(self) -> bool:
        return self.fct_param is not None

    def __repr__(self) -> str:
        return f"<functor {self.name} {self.stamp!r}>"

