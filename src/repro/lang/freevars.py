"""Conservative free-name analysis over the AST.

Two clients:

- Functor elaboration trims the functor's closure environment to the
  names its body mentions, so that dehydrated functors reference imported
  entities through (pid, index) stubs instead of dragging the whole
  compilation context into the bin file (see DESIGN.md).
- The compilation manager's dependency analyzer
  (:mod:`repro.cm.depend`) finds which other units a source file
  mentions, and which of their bindings (:func:`uses_from_mentions`,
  shared with the static analyzer).

The analysis is deliberately *conservative*: it collects every name
mentioned in a reference position, without subtracting locally-bound
names.  Over-approximation only costs a little precision (an extra
dependency edge, a slightly fatter closure); under-approximation would be
unsound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.lang import ast

#: The namespaces that matter for inter-unit dependencies (footnote 4:
#: separately compiled units hold structures, signatures and functors).
#: Shared by the dependency analyzer and the static analyzer.
MODULE_NAMESPACES = ("structures", "signatures", "functors")


def binding_key(ns: str, name: str) -> str:
    """The canonical ``"ns:name"`` spelling of a module-level binding --
    the key format of ``DepGraph.uses``, of bin-record ``binding_pids``
    / ``used_bindings`` / ``dep_summary``, and of the ledger's binding
    checks."""
    return f"{ns}:{name}"


def split_binding_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`binding_key`."""
    ns, _, name = key.partition(":")
    return ns, name


@dataclass
class Mentions:
    """Names mentioned per namespace."""

    values: set[str] = field(default_factory=set)
    tycons: set[str] = field(default_factory=set)
    structures: set[str] = field(default_factory=set)
    signatures: set[str] = field(default_factory=set)
    functors: set[str] = field(default_factory=set)

    def update(self, other: "Mentions") -> None:
        self.values |= other.values
        self.tycons |= other.tycons
        self.structures |= other.structures
        self.signatures |= other.signatures
        self.functors |= other.functors

    def module_names(self) -> dict[str, set[str]]:
        """The module-namespace slices as a dict (see
        :data:`MODULE_NAMESPACES`)."""
        return {ns: getattr(self, ns) for ns in MODULE_NAMESPACES}


def uses_from_mentions(mentions: Mentions, providers: dict[str, str],
                       self_name: str) -> dict[str, set[str]]:
    """The conservative use-set: provider unit -> the binding keys of
    ``providers`` that ``mentions`` references.

    ``providers`` maps a module-level name to its defining unit (the
    dependency analyzer's provider table); mentions resolving to
    ``self_name`` are dropped (a unit does not use itself).  This is THE
    use-set computation: :func:`repro.cm.depend.analyze` derives both
    the dependency edges and ``DepGraph.uses`` from it, and
    :class:`~repro.analysis.scopes.UseDefAnalysis` re-exposes it to the
    lint rules, so the build and the analyzer can never disagree about
    what a unit uses.
    """
    uses: dict[str, set[str]] = {}
    for ns in MODULE_NAMESPACES:
        for module_name in getattr(mentions, ns):
            provider = providers.get(module_name)
            if provider is not None and provider != self_name:
                uses.setdefault(provider, set()).add(
                    binding_key(ns, module_name))
    return uses


def _mention_path(out: Mentions, path: ast.Path, namespace: str) -> None:
    if len(path) > 1:
        out.structures.add(path[0])
    else:
        getattr(out, namespace).add(path[0])


class _FieldNames(dict):
    """``type -> field names`` for dataclasses, ``None`` for any other
    type; filled on first sight of each type, so the walk asks
    :mod:`dataclasses` once per class instead of once per node."""

    def __missing__(self, cls: type) -> tuple[str, ...] | None:
        names = (tuple(f.name for f in dataclasses.fields(cls))
                 if dataclasses.is_dataclass(cls) else None)
        self[cls] = names
        return names


_FIELD_NAMES = _FieldNames()


def mentioned_names(node) -> Mentions:
    """All names mentioned by an AST node (or list of nodes)."""
    out = Mentions()
    _walk(node, out)
    return out


def _walk(node, out: Mentions) -> None:
    if isinstance(node, (list, tuple)):
        for item in node:
            _walk(item, out)
        return
    names = _FIELD_NAMES[type(node)]
    if names is None:
        return

    if isinstance(node, ast.VarExp):
        _mention_path(out, node.path, "values")
    elif isinstance(node, ast.VarPat):
        # Might be a binder or a nullary-constructor use; include it.
        out.values.add(node.name)
    elif isinstance(node, ast.ConPat):
        _mention_path(out, node.path, "values")
    elif isinstance(node, ast.ConTy):
        _mention_path(out, node.path, "tycons")
    elif isinstance(node, ast.VarStrExp):
        out.structures.add(node.path[0])
    elif isinstance(node, ast.AppStrExp):
        _mention_path(out, node.functor_path, "functors")
    elif isinstance(node, ast.VarSigExp):
        out.signatures.add(node.name)
    elif isinstance(node, ast.OpenDec):
        for path in node.paths:
            out.structures.add(path[0])
    elif isinstance(node, ast.DatatypeReplDec):
        _mention_path(out, node.path, "tycons")
    elif isinstance(node, ast.ExceptionDec):
        for _name, _ty, alias in node.bindings:
            if alias is not None:
                _mention_path(out, alias, "values")
    elif isinstance(node, ast.WhereTypeSigExp):
        _mention_path(out, node.path, "tycons")
    elif isinstance(node, ast.SharingSpec):
        for path in node.paths:
            _mention_path(out, path, "tycons")

    for name in names:
        value = getattr(node, name)
        if isinstance(value, (list, tuple)) or \
                _FIELD_NAMES[type(value)] is not None:
            _walk(value, out)


def module_level_mentions(decs: list[ast.Dec]) -> Mentions:
    """Mentions restricted to the module namespaces (structures,
    signatures, functors) -- what inter-unit dependency analysis needs.

    Names *defined* by the declarations themselves are subtracted, since
    a unit does not depend on itself.
    """
    out = mentioned_names(decs)
    defined = defined_module_names(decs)
    return Mentions(
        values=set(),
        tycons=set(),
        structures=out.structures - defined["structures"],
        signatures=out.signatures - defined["signatures"],
        functors=out.functors - defined["functors"],
    )


def defined_module_names(decs: list[ast.Dec]) -> dict[str, set[str]]:
    """The module-level names a declaration list defines (including
    through ``local..in..end``)."""
    defined = {"structures": set(), "signatures": set(), "functors": set()}
    _scan_module_names(decs, defined)
    return defined


def _scan_module_names(decs, defined: dict[str, set[str]]) -> None:
    for dec in decs:
        if isinstance(dec, ast.StructureDec):
            for binding in dec.bindings:
                defined["structures"].add(binding.name)
        elif isinstance(dec, ast.SignatureDec):
            for name, _sig in dec.bindings:
                defined["signatures"].add(name)
        elif isinstance(dec, ast.FunctorDec):
            for binding in dec.bindings:
                defined["functors"].add(binding.name)
        elif isinstance(dec, ast.LocalDec):
            _scan_module_names(dec.private, defined)
            _scan_module_names(dec.public, defined)
