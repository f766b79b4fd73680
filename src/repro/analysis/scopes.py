"""Scope-aware module-name resolution inside one compilation unit.

The dependency analyzer's free-name pass
(:mod:`repro.lang.freevars`) is deliberately conservative: it records
every module-level name mentioned anywhere in a unit, subtracting only
the unit's *top-level* definitions.  A nested ``structure Util = ...``
inside a struct body, a functor parameter, or a ``local`` binding can
therefore manufacture a dependency edge on another unit that happens to
export the same name -- a *false* edge that widens every recompilation
cascade through it.

This module does the precise version of that analysis: it walks the AST
with an actual scope stack, recording

- every reference to a module-namespace name (structures, signatures,
  functors) together with whether it resolved to a binding *inside* the
  unit, and
- every binding event with its scope depth,

so rules can compare conservative mentions against precise resolution
(SC001), spot shadowing (SC004), and attribute ``open`` declarations
(SC002).  It never parses: it consumes the declarations already parsed
by :func:`repro.cm.depend.analyze`.

:class:`UseDefAnalysis` packages both views for a whole project: per
unit, the set of exported module-level bindings (the *def* set) and the
set of ``(import_unit, binding)`` pairs the unit references (the *use*
set) -- conservatively (the dependency analyzer's view, via
:func:`~repro.lang.freevars.uses_from_mentions`, which
:func:`repro.cm.depend.analyze` shares) and precisely (only escaping
references).  The build's per-binding cutoff and smlint's SC001/SC006
rules both consume it, so "what does this unit actually use?" has
exactly one answer in the system.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.lang import ast
from repro.lang.freevars import (  # noqa: F401  (re-exported)
    MODULE_NAMESPACES, Mentions, binding_key, defined_module_names,
    module_level_mentions, split_binding_key, uses_from_mentions)


@dataclass(frozen=True)
class ModuleRef:
    """A reference to a module-level name.

    ``kind`` is the syntactic role: ``open``, ``strexp`` (a structure
    expression), ``functor-app``, ``sig-ref``, or ``qualified`` (the
    head of a long identifier such as ``A.x``).  ``resolved`` is True
    when the name was bound inside the unit at the reference point.
    """

    ns: str
    name: str
    line: int
    kind: str
    resolved: bool


@dataclass(frozen=True)
class ModuleBind:
    """A binding of a module-level name.

    ``depth`` is 0 for the unit's top level; ``kind`` is ``top``,
    ``nested``, ``param`` (functor parameter), or ``spec`` (inside a
    signature expression).
    """

    ns: str
    name: str
    line: int
    depth: int
    kind: str


@dataclass
class ScanResult:
    refs: list[ModuleRef]
    binds: list[ModuleBind]

    def escaping(self) -> set[tuple[str, str]]:
        """The (ns, name) pairs referenced without a local binding --
        the unit's *actual* inter-unit demands."""
        return {(r.ns, r.name) for r in self.refs if not r.resolved}

    def first_ref(self, ns: str, name: str) -> ModuleRef | None:
        for ref in self.refs:
            if ref.ns == ns and ref.name == name:
                return ref
        return None


def scan_module_refs(decs: list[ast.Dec]) -> ScanResult:
    """Scan a unit's parsed declarations; see the module docstring."""
    scanner = _Scanner()
    scanner.visit(decs)
    return ScanResult(scanner.refs, scanner.binds)


class _Scanner:
    def __init__(self):
        self.frames = [self._frame()]
        self.refs: list[ModuleRef] = []
        self.binds: list[ModuleBind] = []

    @staticmethod
    def _frame():
        return {ns: set() for ns in MODULE_NAMESPACES}

    # -- scope primitives -------------------------------------------------

    def push(self) -> None:
        self.frames.append(self._frame())

    def pop(self) -> None:
        self.frames.pop()

    @property
    def depth(self) -> int:
        return len(self.frames) - 1

    def bind(self, ns: str, name: str, line: int, kind: str) -> None:
        self.frames[-1][ns].add(name)
        self.binds.append(ModuleBind(ns, name, line, self.depth, kind))

    def _is_bound(self, ns: str, name: str) -> bool:
        return any(name in frame[ns] for frame in self.frames)

    def ref(self, ns: str, name: str, line: int, kind: str) -> None:
        self.refs.append(
            ModuleRef(ns, name, line, kind, self._is_bound(ns, name)))

    def _ref_head(self, path: ast.Path, line: int) -> None:
        """A qualified long identifier mentions its head structure."""
        if len(path) > 1:
            self.ref("structures", path[0], line, "qualified")

    # -- traversal --------------------------------------------------------

    def visit(self, node) -> None:
        if isinstance(node, (list, tuple)):
            for item in node:
                self.visit(item)
            return
        if not dataclasses.is_dataclass(node) or isinstance(node, type):
            return
        handler = _HANDLERS.get(type(node))
        if handler is not None:
            handler(self, node)
        else:
            self.children(node)

    def children(self, node) -> None:
        for f in dataclasses.fields(node):
            self.visit(getattr(node, f.name))

    # -- declarations that bind module names ------------------------------

    def structure_dec(self, dec: ast.StructureDec) -> None:
        kind = "top" if self.depth == 0 else "nested"
        for binding in dec.bindings:  # simultaneous ('and') bindings
            if binding.sig is not None:
                self.visit(binding.sig)
            self.visit(binding.body)
        for binding in dec.bindings:
            self.bind("structures", binding.name, binding.line, kind)

    def signature_dec(self, dec: ast.SignatureDec) -> None:
        kind = "top" if self.depth == 0 else "nested"
        for _name, sig in dec.bindings:
            self.visit(sig)
        for name, _sig in dec.bindings:
            self.bind("signatures", name, dec.line, kind)

    def functor_dec(self, dec: ast.FunctorDec) -> None:
        kind = "top" if self.depth == 0 else "nested"
        for binding in dec.bindings:
            self.push()
            if binding.fct_param is not None:
                fp = binding.fct_param
                self.visit(fp.param_sig)
                self.bind("functors", fp.name, fp.line, "param")
                self.visit(fp.result_sig)
            else:
                if binding.param_sig is not None:
                    self.visit(binding.param_sig)
                if binding.param_name:
                    self.bind("structures", binding.param_name,
                              binding.line, "param")
            if binding.result_sig is not None:
                self.visit(binding.result_sig)
            self.visit(binding.body)
            self.pop()
        for binding in dec.bindings:
            self.bind("functors", binding.name, binding.line, kind)

    def local_dec(self, dec: ast.LocalDec) -> None:
        self.push()
        self.visit(dec.private)
        self.visit(dec.public)
        self.pop()
        # The public bindings stay visible to the rest of the enclosing
        # scope; re-export them without fresh binding events.
        for ns, names in defined_module_names(dec.public).items():
            self.frames[-1][ns] |= names

    # -- scoping constructs ------------------------------------------------

    def _scoped(self, *parts) -> None:
        self.push()
        for part in parts:
            self.visit(part)
        self.pop()

    def struct_strexp(self, node: ast.StructStrExp) -> None:
        self._scoped(node.decs)

    def let_strexp(self, node: ast.LetStrExp) -> None:
        self._scoped(node.decs, node.body)

    def let_exp(self, node: ast.LetExp) -> None:
        self._scoped(node.decs, node.body)

    def sig_sigexp(self, node: ast.SigSigExp) -> None:
        self._scoped(node.specs)

    def structure_spec(self, node: ast.StructureSpec) -> None:
        for _name, sig in node.bindings:
            self.visit(sig)
        for name, _sig in node.bindings:
            self.bind("structures", name, node.line, "spec")

    # -- references --------------------------------------------------------

    def var_strexp(self, node: ast.VarStrExp) -> None:
        self.ref("structures", node.path[0], node.line, "strexp")

    def app_strexp(self, node: ast.AppStrExp) -> None:
        path = node.functor_path
        if len(path) > 1:
            self._ref_head(path, node.line)
        else:
            self.ref("functors", path[0], node.line, "functor-app")
        self.visit(node.arg)

    def var_sigexp(self, node: ast.VarSigExp) -> None:
        self.ref("signatures", node.name, node.line, "sig-ref")

    def open_dec(self, node: ast.OpenDec) -> None:
        for path in node.paths:
            self.ref("structures", path[0], node.line, "open")

    def var_exp(self, node: ast.VarExp) -> None:
        self._ref_head(node.path, node.line)

    def con_pat(self, node: ast.ConPat) -> None:
        self._ref_head(node.path, node.line)
        self.visit(node.arg)

    def con_ty(self, node: ast.ConTy) -> None:
        self._ref_head(node.path, node.line)
        self.visit(node.args)

    def datatype_repl_dec(self, node: ast.DatatypeReplDec) -> None:
        self._ref_head(node.path, node.line)

    def where_type_sigexp(self, node: ast.WhereTypeSigExp) -> None:
        self.visit(node.base)
        self._ref_head(node.path, node.line)
        self.visit(node.ty)

    def sharing_spec(self, node: ast.SharingSpec) -> None:
        for path in node.paths:
            self._ref_head(path, node.line)

    def exception_dec(self, node: ast.ExceptionDec) -> None:
        for _name, ty, alias in node.bindings:
            self.visit(ty)
            if alias is not None:
                self._ref_head(alias, node.line)


# -- use/def sets --------------------------------------------------------


class UseDefAnalysis:
    """Use/def sets over a project of already-parsed units.

    Construct from ``{unit: parsed declarations}`` (or
    :meth:`of_graph` from a :class:`~repro.cm.depend.DepGraph`).  All
    results are memoized; the analysis never parses.
    """

    def __init__(self, decs_by_unit: dict[str, list[ast.Dec]]):
        self.decs_by_unit = decs_by_unit
        self._exports: dict[str, set[tuple[str, str]]] = {}
        self._scans: dict[str, ScanResult] = {}
        self._uses: dict[str, dict[str, set[str]]] = {}
        self._providers: dict[tuple[str, str], str] | None = None

    @classmethod
    def of_graph(cls, graph) -> "UseDefAnalysis":
        return cls(dict(graph.parsed))

    @property
    def units(self) -> list[str]:
        return list(self.decs_by_unit)

    # -- def sets ---------------------------------------------------------

    def exports(self, unit: str) -> set[tuple[str, str]]:
        """The (ns, name) pairs ``unit``'s top level defines -- the
        bindings that make up its exported interface."""
        out = self._exports.get(unit)
        if out is None:
            defined = defined_module_names(self.decs_by_unit[unit])
            out = {(ns, name) for ns, names in defined.items()
                   for name in names}
            self._exports[unit] = out
        return out

    def providers(self) -> dict[tuple[str, str], str]:
        """(ns, name) -> the unit whose top level defines it."""
        if self._providers is None:
            self._providers = {}
            for unit in self.units:
                for ns, name in self.exports(unit):
                    self._providers[(ns, name)] = unit
        return self._providers

    # -- use sets ---------------------------------------------------------

    def scan(self, unit: str) -> ScanResult:
        scan = self._scans.get(unit)
        if scan is None:
            scan = self._scans[unit] = scan_module_refs(
                self.decs_by_unit[unit])
        return scan

    def used_keys(self, unit: str) -> dict[str, set[str]]:
        """Conservative use-set as provider -> binding keys (the same
        map :func:`repro.cm.depend.analyze` records in
        ``DepGraph.uses``)."""
        out = self._uses.get(unit)
        if out is None:
            name_providers = {name: owner for (_ns, name), owner
                              in self.providers().items()}
            out = uses_from_mentions(
                module_level_mentions(self.decs_by_unit[unit]),
                name_providers, unit)
            self._uses[unit] = out
        return out

    def uses(self, unit: str) -> set[tuple[str, str]]:
        """Conservative ``(import_unit, binding_key)`` pairs."""
        return {(provider, key)
                for provider, keys in self.used_keys(unit).items()
                for key in keys}

    def precise_uses(self, unit: str) -> set[tuple[str, str]]:
        """The scope-aware subset of :meth:`uses`: pairs whose name
        actually escapes (is referenced without a local binding)."""
        escaping = self.scan(unit).escaping()
        return {(provider, key) for provider, key in self.uses(unit)
                if split_binding_key(key) in escaping}

    def unused_imports(self, unit: str) -> list[str]:
        """Import units the conservative analysis charges ``unit`` with
        but whose precise use-set is empty -- every mention creating the
        edge is locally bound, so the whole edge is spurious (SC006)."""
        genuinely_used = {provider
                          for provider, _key in self.precise_uses(unit)}
        return sorted(set(self.used_keys(unit)) - genuinely_used)


_HANDLERS = {
    ast.StructureDec: _Scanner.structure_dec,
    ast.SignatureDec: _Scanner.signature_dec,
    ast.FunctorDec: _Scanner.functor_dec,
    ast.LocalDec: _Scanner.local_dec,
    ast.StructStrExp: _Scanner.struct_strexp,
    ast.LetStrExp: _Scanner.let_strexp,
    ast.LetExp: _Scanner.let_exp,
    ast.SigSigExp: _Scanner.sig_sigexp,
    ast.StructureSpec: _Scanner.structure_spec,
    ast.VarStrExp: _Scanner.var_strexp,
    ast.AppStrExp: _Scanner.app_strexp,
    ast.VarSigExp: _Scanner.var_sigexp,
    ast.OpenDec: _Scanner.open_dec,
    ast.VarExp: _Scanner.var_exp,
    ast.ConPat: _Scanner.con_pat,
    ast.ConTy: _Scanner.con_ty,
    ast.DatatypeReplDec: _Scanner.datatype_repl_dec,
    ast.WhereTypeSigExp: _Scanner.where_type_sigexp,
    ast.SharingSpec: _Scanner.sharing_spec,
    ast.ExceptionDec: _Scanner.exception_dec,
}
