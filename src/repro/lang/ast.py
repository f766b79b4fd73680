"""Abstract syntax for the Standard ML subset.

All nodes are plain dataclasses so that they can be traversed generically
and written to bin files by :mod:`repro.pickle` (a compilation unit's
"code" in this reproduction is its elaborated AST; see DESIGN.md).

Resolution annotations
----------------------

The elaborator decorates a few node classes in place with *context
independent* facts needed by the dynamic semantics (chiefly: whether a
lowercase name in a pattern or expression is a variable, a datatype
constructor, or an exception constructor).  These annotations live in the
mutable ``info`` fields.  They are deliberately restricted to facts that
are functions of the lexical scope's *shape* (which is identical across
repeated functor-body elaborations), never of particular type stamps.

Because they are written in place, a tree goes to one compile: the
elaborated tree becomes that unit's code.  The build hands the tree its
dependency analysis parsed to the first compile of that source text
(:func:`repro.cm.depend.take_tree`), and every other compile, and the
static analyzer once a compile has taken the tree, parses afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A (possibly qualified) long identifier such as ``A.B.x`` -> ("A","B","x").
Path = tuple[str, ...]


def path_str(path: Path) -> str:
    return ".".join(path)


@dataclass
class Node:
    """Base class carrying a source line for error messages."""


@dataclass
class ConInfo:
    """Elaborator annotation: this name denotes a constructor.

    Stored in the ``info`` field of :class:`VarPat`, :class:`ConPat` and
    :class:`VarExp` nodes.  Contains only scope-shape facts (safe to share
    across functor applications): the constructor's name, whether it
    carries an argument, and whether it is an exception constructor
    (exception identity is resolved *dynamically* through the environment,
    preserving generativity).
    """

    name: str
    has_arg: bool
    is_exn: bool = False


# ---------------------------------------------------------------------------
# Syntactic types
# ---------------------------------------------------------------------------


@dataclass
class Ty(Node):
    pass


@dataclass
class TyVarTy(Ty):
    name: str  # includes the leading quote(s): "'a", "''a"
    line: int = 0


@dataclass
class ConTy(Ty):
    """A type-constructor application: ``(ty1, ..., tyn) path``."""

    args: list[Ty]
    path: Path
    line: int = 0


@dataclass
class TupleTy(Ty):
    parts: list[Ty]
    line: int = 0


@dataclass
class RecordTy(Ty):
    fields: list[tuple[str, Ty]]
    line: int = 0


@dataclass
class ArrowTy(Ty):
    dom: Ty
    rng: Ty
    line: int = 0


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass
class Pat(Node):
    pass


@dataclass
class WildPat(Pat):
    line: int = 0


@dataclass
class VarPat(Pat):
    """An unqualified lowercase name.

    The elaborator sets ``info`` to ``"var"`` or to a ``ConInfo`` when the
    name is actually a nullary constructor in scope.
    """

    name: str
    line: int = 0
    info: object = None


@dataclass
class ConstPat(Pat):
    """Integer, string or char literal pattern."""

    kind: str  # "int" | "string" | "char" | "word"
    value: object = None
    line: int = 0


@dataclass
class ConPat(Pat):
    """Constructor application pattern ``C pat`` or qualified ``A.C``."""

    path: Path
    arg: Pat | None
    line: int = 0
    info: object = None


@dataclass
class TuplePat(Pat):
    parts: list[Pat]
    line: int = 0


@dataclass
class RecordPat(Pat):
    fields: list[tuple[str, Pat]]
    flexible: bool = False  # true when the pattern ends with "..."
    line: int = 0
    #: Set by the elaborator when ``flexible``: the full sorted label list
    #: of the record type, so the evaluator can ignore extra fields.
    info: object = None


@dataclass
class ListPat(Pat):
    parts: list[Pat]
    line: int = 0


@dataclass
class AsPat(Pat):
    name: str
    pat: Pat
    line: int = 0


@dataclass
class TypedPat(Pat):
    pat: Pat
    ty: Ty
    line: int = 0


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Exp(Node):
    pass


@dataclass
class IntExp(Exp):
    value: int
    line: int = 0


@dataclass
class WordExp(Exp):
    value: int
    line: int = 0


@dataclass
class RealExp(Exp):
    value: float
    line: int = 0


@dataclass
class StringExp(Exp):
    value: str
    line: int = 0


@dataclass
class CharExp(Exp):
    value: str
    line: int = 0


@dataclass
class VarExp(Exp):
    """A (possibly qualified) value identifier.

    ``info`` is set by the elaborator to ``"var"`` or a ``ConInfo``.
    """

    path: Path
    line: int = 0
    info: object = None


@dataclass
class SelectorExp(Exp):
    """``#label`` -- a record field selector used as a function."""

    label: str
    line: int = 0


@dataclass
class TupleExp(Exp):
    parts: list[Exp]
    line: int = 0


@dataclass
class RecordExp(Exp):
    fields: list[tuple[str, Exp]]
    line: int = 0


@dataclass
class ListExp(Exp):
    parts: list[Exp]
    line: int = 0


@dataclass
class SeqExp(Exp):
    """``(e1; e2; ...; en)`` -- evaluate all, yield the last."""

    parts: list[Exp]
    line: int = 0


@dataclass
class AppExp(Exp):
    fn: Exp
    arg: Exp
    line: int = 0


@dataclass
class FnExp(Exp):
    """``fn pat => exp | ...`` -- a match as an anonymous function."""

    rules: list[tuple[Pat, Exp]]
    line: int = 0


@dataclass
class LetExp(Exp):
    decs: list["Dec"]
    body: Exp
    line: int = 0


@dataclass
class IfExp(Exp):
    cond: Exp
    then: Exp
    els: Exp
    line: int = 0


@dataclass
class CaseExp(Exp):
    scrutinee: Exp
    rules: list[tuple[Pat, Exp]]
    line: int = 0


@dataclass
class AndalsoExp(Exp):
    left: Exp
    right: Exp
    line: int = 0


@dataclass
class OrelseExp(Exp):
    left: Exp
    right: Exp
    line: int = 0


@dataclass
class WhileExp(Exp):
    cond: Exp
    body: Exp
    line: int = 0


@dataclass
class RaiseExp(Exp):
    exn: Exp
    line: int = 0


@dataclass
class HandleExp(Exp):
    body: Exp
    rules: list[tuple[Pat, Exp]]
    line: int = 0


@dataclass
class TypedExp(Exp):
    exp: Exp
    ty: Ty
    line: int = 0


# ---------------------------------------------------------------------------
# Core declarations
# ---------------------------------------------------------------------------


@dataclass
class Dec(Node):
    pass


@dataclass
class ValDec(Dec):
    tyvars: list[str]
    bindings: list[tuple[Pat, Exp]]
    line: int = 0


@dataclass
class ValRecDec(Dec):
    tyvars: list[str]
    bindings: list[tuple[str, FnExp]]
    line: int = 0


@dataclass
class FunClause(Node):
    """One clause of a ``fun`` binding: name, curried argument patterns,
    optional result type constraint, and body."""

    name: str
    pats: list[Pat]
    result_ty: Ty | None
    body: Exp
    line: int = 0


@dataclass
class FunDec(Dec):
    tyvars: list[str]
    #: Each element groups the clauses of one function.
    functions: list[list[FunClause]] = field(default_factory=list)
    line: int = 0


@dataclass
class TypeDec(Dec):
    bindings: list[tuple[list[str], str, Ty]]
    line: int = 0


@dataclass
class ConBind(Node):
    name: str
    arg_ty: Ty | None
    line: int = 0


@dataclass
class DatatypeDec(Dec):
    bindings: list[tuple[list[str], str, list[ConBind]]]
    #: ``withtype`` abbreviations elaborated along with the datatypes.
    withtypes: list[tuple[list[str], str, Ty]] = field(default_factory=list)
    line: int = 0


@dataclass
class DatatypeReplDec(Dec):
    """``datatype t = datatype A.u`` -- datatype replication."""

    name: str
    path: Path
    line: int = 0


@dataclass
class AbstypeDec(Dec):
    """``abstype ... with decs end`` (treated as datatype + local)."""

    bindings: list[tuple[list[str], str, list[ConBind]]]
    body: list[Dec]
    line: int = 0


@dataclass
class ExceptionDec(Dec):
    #: Each binding is (name, optional argument type, optional alias path).
    bindings: list[tuple[str, Ty | None, Path | None]]
    line: int = 0


@dataclass
class LocalDec(Dec):
    private: list[Dec]
    public: list[Dec]
    line: int = 0


@dataclass
class OpenDec(Dec):
    paths: list[Path]
    line: int = 0
    #: Elaborator records, per path, the list of value/constructor names
    #: made visible, so the evaluator can splice the right dynamic fields.
    info: object = None


@dataclass
class FixityDec(Dec):
    """``infix``/``infixr``/``nonfix`` -- consumed entirely by the parser
    but kept in the AST so units re-parsed from bin files agree."""

    assoc: str  # "left" | "right" | "non"
    precedence: int
    names: list[str]
    line: int = 0


# ---------------------------------------------------------------------------
# Module language
# ---------------------------------------------------------------------------


@dataclass
class StrExp(Node):
    pass


@dataclass
class StructStrExp(StrExp):
    decs: list[Dec]
    line: int = 0


@dataclass
class VarStrExp(StrExp):
    path: Path
    line: int = 0


@dataclass
class AppStrExp(StrExp):
    """Functor application; the functor may live inside a structure
    (``Lib.Sort(Arg)``) -- a slice of the higher-order module style the
    paper's §10 discusses."""

    functor_path: Path
    arg: StrExp
    line: int = 0
    #: Set by the elaborator to "functor" when the applied functor takes
    #: a functor-valued argument, so the evaluator resolves the argument
    #: path in the functor namespace.
    info: object = None


@dataclass
class LetStrExp(StrExp):
    decs: list[Dec]
    body: StrExp
    line: int = 0


@dataclass
class ConstraintStrExp(StrExp):
    body: StrExp
    sig: "SigExp"
    opaque: bool
    line: int = 0


@dataclass
class SigExp(Node):
    pass


@dataclass
class SigSigExp(SigExp):
    specs: list["Spec"]
    line: int = 0


@dataclass
class VarSigExp(SigExp):
    name: str
    line: int = 0


@dataclass
class WhereTypeSigExp(SigExp):
    base: SigExp
    tyvars: list[str]
    path: Path
    ty: Ty
    line: int = 0


@dataclass
class Spec(Node):
    pass


@dataclass
class ValSpec(Spec):
    bindings: list[tuple[str, Ty]]
    line: int = 0


@dataclass
class TypeSpec(Spec):
    #: (tyvars, name, optional transparent definition)
    bindings: list[tuple[list[str], str, Ty | None]]
    equality: bool = False  # True for ``eqtype``
    line: int = 0


@dataclass
class DatatypeSpec(Spec):
    bindings: list[tuple[list[str], str, list[ConBind]]]
    line: int = 0


@dataclass
class ExceptionSpec(Spec):
    bindings: list[tuple[str, Ty | None]]
    line: int = 0


@dataclass
class StructureSpec(Spec):
    bindings: list[tuple[str, SigExp]]
    line: int = 0


@dataclass
class IncludeSpec(Spec):
    sig: SigExp
    line: int = 0


@dataclass
class SharingSpec(Spec):
    """``sharing type p1 = p2 = ...``"""

    paths: list[Path]
    line: int = 0


# ---------------------------------------------------------------------------
# Top-level (module-level) declarations
# ---------------------------------------------------------------------------


@dataclass
class StrBind(Node):
    name: str
    sig: SigExp | None
    opaque: bool
    body: StrExp
    line: int = 0


@dataclass
class StructureDec(Dec):
    bindings: list[StrBind]
    line: int = 0


@dataclass
class SignatureDec(Dec):
    bindings: list[tuple[str, SigExp]]
    line: int = 0


@dataclass
class FctParamSpec(Node):
    """A *functor-valued* parameter spec:
    ``functor G (X : param_sig) : result_sig`` -- the higher-order form
    (Appel & MacQueen §10.2; SML/NJ extension)."""

    name: str
    inner_param: str
    param_sig: SigExp
    result_sig: SigExp
    line: int = 0


@dataclass
class FctBind(Node):
    name: str
    param_name: str
    param_sig: SigExp | None
    result_sig: SigExp | None
    opaque: bool
    body: StrExp
    line: int = 0
    #: Set instead of param_name/param_sig when the parameter is itself
    #: a functor.
    fct_param: FctParamSpec | None = None


@dataclass
class FunctorDec(Dec):
    bindings: list[FctBind]
    line: int = 0
