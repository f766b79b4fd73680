"""Core-language elaboration: expressions, patterns, core declarations.

The :class:`Elaborator` carries the mutable context (current environment,
let-level, type-variable scopes, stamp generator).  Module-language
elaboration lives in :mod:`repro.elab.modules` and drives these methods.
"""

from __future__ import annotations

from repro.elab.errors import ElabError
from repro.elab.unify import unify
from repro.lang import ast
from repro.semant import prim, stamps
from repro.semant.env import Env, ValueBinding
from repro.semant.types import (
    BoundVar,
    ConType,
    Constructor,
    DatatypeTycon,
    FlexRecord,
    FunType,
    PolyType,
    RecordType,
    TyVar,
    Type,
    TypeFun,
    apply_typefun,
    compute_datatype_equality,
    instantiate,
    prune,
    tuple_type,
    unit_type,
)


class _TyvarScope:
    """One scope of explicit/implicit type variables."""

    def __init__(self, flexible: bool, level: int):
        self.table: dict[str, Type] = {}
        self.flexible = flexible
        self.level = level


class Elaborator:
    """Elaboration context for one compilation unit (or one interactive
    declaration)."""

    def __init__(self, env: Env):
        self.env = env
        self.level = 0
        self._tyvar_scopes: list[_TyvarScope] = []
        #: Stamps minted while elaborating the current unit; the pickler
        #: uses this set to tell local objects from imported ones.
        self.new_stamps: set[int] = set()
        #: (message, line) warnings: nonexhaustive/redundant matches.
        self.warnings: list[tuple[str, int]] = []

    def warn(self, message: str, line: int) -> None:
        if (message, line) not in self.warnings:
            self.warnings.append((message, line))

    # -- plumbing -----------------------------------------------------------

    def fresh_stamp(self):
        stamp = stamps.fresh_stamp()
        self.new_stamps.add(stamp.id)
        return stamp

    def fresh_tyvar(self, eq: bool = False) -> TyVar:
        return TyVar(self.level, eq=eq)

    def error(self, message: str, line: int = 0):
        raise ElabError(message, line, 0)

    def push_frame(self) -> Env:
        self.env = self.env.child()
        return self.env

    def pop_frame(self) -> Env:
        frame = self.env
        assert frame.parent is not None
        self.env = frame.parent
        return frame

    def push_tyvars(self, names: list[str], flexible: bool) -> _TyvarScope:
        scope = _TyvarScope(flexible, self.level)
        for name in names:
            scope.table[name] = TyVar(self.level, eq=name.startswith("''"))
        self._tyvar_scopes.append(scope)
        return scope

    def pop_tyvars(self) -> _TyvarScope:
        return self._tyvar_scopes.pop()

    def lookup_tyvar(self, name: str, line: int) -> Type:
        for scope in reversed(self._tyvar_scopes):
            if name in scope.table:
                return scope.table[name]
        for scope in reversed(self._tyvar_scopes):
            if scope.flexible:
                var = TyVar(scope.level, eq=name.startswith("''"))
                scope.table[name] = var
                return var
        self.error(f"unbound type variable {name}", line)

    # -- syntactic types ------------------------------------------------------

    def elab_ty(self, ty: ast.Ty) -> Type:
        if isinstance(ty, ast.TyVarTy):
            return self.lookup_tyvar(ty.name, ty.line)
        if isinstance(ty, ast.ConTy):
            return self._elab_conty(ty)
        if isinstance(ty, ast.TupleTy):
            return tuple_type([self.elab_ty(t) for t in ty.parts])
        if isinstance(ty, ast.RecordTy):
            labels = [label for label, _ in ty.fields]
            if len(set(labels)) != len(labels):
                self.error("duplicate record label in type", ty.line)
            return RecordType(
                tuple((label, self.elab_ty(t)) for label, t in ty.fields)
            )
        if isinstance(ty, ast.ArrowTy):
            return FunType(self.elab_ty(ty.dom), self.elab_ty(ty.rng))
        raise AssertionError(f"unknown type syntax {ty!r}")

    def _elab_conty(self, ty: ast.ConTy) -> Type:
        tycon = self.env.lookup_tycon_path(ty.path)
        if tycon is None:
            self.error(f"unbound type constructor {ast.path_str(ty.path)}",
                       ty.line)
        args = tuple(self.elab_ty(t) for t in ty.args)
        if isinstance(tycon, TypeFun):
            if len(args) != tycon.arity:
                self.error(
                    f"type {ast.path_str(ty.path)} expects {tycon.arity} "
                    f"argument(s), got {len(args)}", ty.line)
            return apply_typefun(tycon, args)
        if len(args) != tycon.arity:
            self.error(
                f"type constructor {ast.path_str(ty.path)} expects "
                f"{tycon.arity} argument(s), got {len(args)}", ty.line)
        return ConType(tycon, args)

    # -- patterns -------------------------------------------------------------

    def elab_pat(self, pat: ast.Pat, bindings: dict[str, Type]) -> Type:
        """Elaborate a pattern, accumulating variable bindings.

        Returns the pattern's type; annotates constructor nodes.
        """
        if isinstance(pat, ast.WildPat):
            return self.fresh_tyvar()
        if isinstance(pat, ast.VarPat):
            return self._elab_varpat(pat, bindings)
        if isinstance(pat, ast.ConstPat):
            return _const_type(pat.kind)
        if isinstance(pat, ast.ConPat):
            return self._elab_conpat(pat, bindings)
        if isinstance(pat, ast.TuplePat):
            if not pat.parts:
                return unit_type()
            return tuple_type([self.elab_pat(p, bindings) for p in pat.parts])
        if isinstance(pat, ast.RecordPat):
            fields = []
            for label, p in pat.fields:
                fields.append((label, self.elab_pat(p, bindings)))
            if len({label for label, _ in fields}) != len(fields):
                self.error("duplicate record label in pattern", pat.line)
            if pat.flexible:
                return FlexRecord(dict(fields), self.level)
            return RecordType(tuple(fields))
        if isinstance(pat, ast.ListPat):
            elem = self.fresh_tyvar()
            for p in pat.parts:
                unify(self.elab_pat(p, bindings), elem, pat.line)
            return prim.list_type(elem)
        if isinstance(pat, ast.AsPat):
            if pat.name in bindings:
                self.error(f"duplicate variable {pat.name} in pattern",
                           pat.line)
            ty = self.elab_pat(pat.pat, bindings)
            bindings[pat.name] = ty
            return ty
        if isinstance(pat, ast.TypedPat):
            ty = self.elab_pat(pat.pat, bindings)
            unify(ty, self.elab_ty(pat.ty), pat.line)
            return ty
        raise AssertionError(f"unknown pattern {pat!r}")

    def _elab_varpat(self, pat: ast.VarPat, bindings: dict[str, Type]) -> Type:
        binding = self.env.lookup_value(pat.name)
        if binding is not None and binding.is_constructor():
            con = binding.con
            if con.has_arg:
                self.error(
                    f"constructor {pat.name} used without an argument",
                    pat.line)
            pat.info = ast.ConInfo(con.name, False, con.is_exn)
            return instantiate(binding.scheme, self.level)
        pat.info = "var"
        if pat.name in bindings:
            self.error(f"duplicate variable {pat.name} in pattern", pat.line)
        var = self.fresh_tyvar()
        bindings[pat.name] = var
        return var

    def _elab_conpat(self, pat: ast.ConPat, bindings: dict[str, Type]) -> Type:
        if pat.path == ("ref",) and pat.arg is not None:
            # `ref` is a primitive value, but the Definition lets it be
            # used as a (complete, single-constructor) pattern.
            pat.info = ast.ConInfo("ref", True)
            inner = self.elab_pat(pat.arg, bindings)
            return prim.ref_type(inner)
        binding = self.env.lookup_value_path(pat.path)
        if binding is None or not binding.is_constructor():
            self.error(
                f"{ast.path_str(pat.path)} is not a constructor", pat.line)
        con = binding.con
        pat.info = ast.ConInfo(con.name, con.has_arg, con.is_exn)
        scheme_inst = instantiate(binding.scheme, self.level)
        if pat.arg is None:
            if con.has_arg:
                self.error(
                    f"constructor {ast.path_str(pat.path)} needs an "
                    f"argument", pat.line)
            return scheme_inst
        if not con.has_arg:
            self.error(
                f"constructor {ast.path_str(pat.path)} takes no argument",
                pat.line)
        fn = prune(scheme_inst)
        assert isinstance(fn, FunType), fn
        arg_ty = self.elab_pat(pat.arg, bindings)
        unify(arg_ty, fn.dom, pat.line)
        return fn.rng

    # -- expressions ---------------------------------------------------------

    def elab_exp(self, exp: ast.Exp) -> Type:
        method = _EXP_DISPATCH.get(type(exp))
        if method is None:
            raise AssertionError(f"unknown expression {exp!r}")
        return method(self, exp)

    def _elab_int(self, exp: ast.IntExp) -> Type:
        return prim.int_type()

    def _elab_word(self, exp: ast.WordExp) -> Type:
        return prim.word_type()

    def _elab_real(self, exp: ast.RealExp) -> Type:
        return prim.real_type()

    def _elab_string(self, exp: ast.StringExp) -> Type:
        return prim.string_type()

    def _elab_char(self, exp: ast.CharExp) -> Type:
        return prim.char_type()

    def _elab_var(self, exp: ast.VarExp) -> Type:
        binding = self.env.lookup_value_path(exp.path)
        if binding is None:
            self.error(f"unbound variable {ast.path_str(exp.path)}",
                       exp.line)
        if binding.is_constructor():
            con = binding.con
            exp.info = ast.ConInfo(con.name, con.has_arg, con.is_exn)
        else:
            exp.info = "var"
        return instantiate(binding.scheme, self.level)

    def _elab_selector(self, exp: ast.SelectorExp) -> Type:
        field = self.fresh_tyvar()
        record = FlexRecord({exp.label: field}, self.level)
        return FunType(record, field)

    def _elab_tuple(self, exp: ast.TupleExp) -> Type:
        if not exp.parts:
            return unit_type()
        return tuple_type([self.elab_exp(e) for e in exp.parts])

    def _elab_record(self, exp: ast.RecordExp) -> Type:
        labels = [label for label, _ in exp.fields]
        if len(set(labels)) != len(labels):
            self.error("duplicate record label", exp.line)
        return RecordType(
            tuple((label, self.elab_exp(e)) for label, e in exp.fields)
        )

    def _elab_list(self, exp: ast.ListExp) -> Type:
        elem = self.fresh_tyvar()
        for e in exp.parts:
            unify(self.elab_exp(e), elem, exp.line)
        return prim.list_type(elem)

    def _elab_seq(self, exp: ast.SeqExp) -> Type:
        ty = unit_type()
        for e in exp.parts:
            ty = self.elab_exp(e)
        return ty

    def _elab_app(self, exp: ast.AppExp) -> Type:
        arg_ty = self.elab_exp(exp.arg)
        fn_ty = self.elab_exp(exp.fn)
        result = self.fresh_tyvar()
        unify(fn_ty, FunType(arg_ty, result), exp.line)
        return result

    def _elab_fn(self, exp: ast.FnExp) -> Type:
        dom = self.fresh_tyvar()
        rng = self.fresh_tyvar()
        for pat, body in exp.rules:
            bindings: dict[str, Type] = {}
            unify(self.elab_pat(pat, bindings), dom, exp.line)
            self.push_frame()
            for name, ty in bindings.items():
                self.env.bind_value(name, ValueBinding(ty))
            unify(self.elab_exp(body), rng, exp.line)
            self.pop_frame()
        self.check_rules(exp.rules, dom, exp.line, "fn")
        return FunType(dom, rng)

    def check_rules(self, rules, scrutinee_ty: Type, line: int,
                    kind: str) -> None:
        from repro.elab.matchcheck import check_match

        check_match(rules, scrutinee_ty, line, kind, self.warn)

    def _elab_let(self, exp: ast.LetExp) -> Type:
        self.push_frame()
        for dec in exp.decs:
            self.elab_dec(dec)
        ty = self.elab_exp(exp.body)
        self.pop_frame()
        return ty

    def _elab_if(self, exp: ast.IfExp) -> Type:
        unify(self.elab_exp(exp.cond), prim.bool_type(), exp.line)
        then_ty = self.elab_exp(exp.then)
        unify(then_ty, self.elab_exp(exp.els), exp.line)
        return then_ty

    def _elab_case(self, exp: ast.CaseExp) -> Type:
        scrutinee = self.elab_exp(exp.scrutinee)
        result = self.fresh_tyvar()
        for pat, body in exp.rules:
            bindings: dict[str, Type] = {}
            unify(self.elab_pat(pat, bindings), scrutinee, exp.line)
            self.push_frame()
            for name, ty in bindings.items():
                self.env.bind_value(name, ValueBinding(ty))
            unify(self.elab_exp(body), result, exp.line)
            self.pop_frame()
        self.check_rules(exp.rules, scrutinee, exp.line, "case")
        return result

    def _elab_andalso(self, exp: ast.AndalsoExp) -> Type:
        unify(self.elab_exp(exp.left), prim.bool_type(), exp.line)
        unify(self.elab_exp(exp.right), prim.bool_type(), exp.line)
        return prim.bool_type()

    def _elab_orelse(self, exp: ast.OrelseExp) -> Type:
        unify(self.elab_exp(exp.left), prim.bool_type(), exp.line)
        unify(self.elab_exp(exp.right), prim.bool_type(), exp.line)
        return prim.bool_type()

    def _elab_while(self, exp: ast.WhileExp) -> Type:
        unify(self.elab_exp(exp.cond), prim.bool_type(), exp.line)
        self.elab_exp(exp.body)
        return unit_type()

    def _elab_raise(self, exp: ast.RaiseExp) -> Type:
        unify(self.elab_exp(exp.exn), prim.exn_type(), exp.line)
        return self.fresh_tyvar()

    def _elab_handle(self, exp: ast.HandleExp) -> Type:
        body_ty = self.elab_exp(exp.body)
        for pat, rhs in exp.rules:
            bindings: dict[str, Type] = {}
            unify(self.elab_pat(pat, bindings), prim.exn_type(), exp.line)
            self.push_frame()
            for name, ty in bindings.items():
                self.env.bind_value(name, ValueBinding(ty))
            unify(self.elab_exp(rhs), body_ty, exp.line)
            self.pop_frame()
        self.check_rules(exp.rules, prim.exn_type(), exp.line, "handle")
        return body_ty

    def _elab_typed(self, exp: ast.TypedExp) -> Type:
        ty = self.elab_exp(exp.exp)
        unify(ty, self.elab_ty(exp.ty), exp.line)
        return ty

    # -- generalization -------------------------------------------------------

    def generalize(self, ty: Type, expansive: bool, line: int = 0) -> Type:
        """Quantify variables above the current level (value restriction:
        expansive expressions stay monomorphic).  Unresolved overloaded
        operator variables default (to int, usually) at this point."""
        _resolve_overloads(ty)
        if expansive:
            return ty
        mapping: dict[int, BoundVar] = {}
        eqflags: list[bool] = []

        def walk(t: Type) -> Type:
            t = prune(t)
            if isinstance(t, TyVar):
                if t.level > self.level:
                    if t.id not in mapping:
                        mapping[t.id] = BoundVar(len(mapping))
                        eqflags.append(t.eq)
                    return mapping[t.id]
                return t
            if isinstance(t, FlexRecord):
                if t.level > self.level:
                    self.error(
                        "unresolved flexible record type (add a type "
                        "annotation)", line)
                return t
            if isinstance(t, ConType):
                return ConType(t.tycon, tuple(walk(a) for a in t.args))
            if isinstance(t, RecordType):
                return RecordType(
                    tuple((label, walk(f)) for label, f in t.fields))
            if isinstance(t, FunType):
                return FunType(walk(t.dom), walk(t.rng))
            return t

        try:
            body = walk(ty)
        finally:
            walk = None  # it reaches itself through its closure cell
        if not mapping:
            return ty
        return PolyType(len(mapping), body, tuple(eqflags))

    # -- core declarations ----------------------------------------------------

    def elab_dec(self, dec: ast.Dec) -> None:
        """Elaborate a declaration, binding its names in the current
        frame."""
        method = _DEC_DISPATCH.get(type(dec))
        if method is None:
            # Module-level declarations are handled by elab.modules, which
            # extends this dispatch table at import time.
            raise AssertionError(f"unknown declaration {dec!r}")
        method(self, dec)

    def _elab_val_dec(self, dec: ast.ValDec) -> None:
        self.push_tyvars(dec.tyvars, flexible=True)
        results: list[tuple[dict[str, Type], bool, int]] = []
        for pat, exp in dec.bindings:
            self.level += 1
            exp_ty = self.elab_exp(exp)
            bindings: dict[str, Type] = {}
            pat_ty = self.elab_pat(pat, bindings)
            unify(pat_ty, exp_ty, dec.line)
            self.level -= 1
            self.check_rules([(pat, None)], pat_ty, dec.line, "val")
            results.append((bindings, _is_expansive(exp), dec.line))
        self.pop_tyvars()
        for bindings, expansive, line in results:
            for name, ty in bindings.items():
                scheme = self.generalize(ty, expansive, line)
                self.env.bind_value(name, ValueBinding(scheme))

    def _elab_val_rec_dec(self, dec: ast.ValRecDec) -> None:
        self.push_tyvars(dec.tyvars, flexible=True)
        self.level += 1
        self.push_frame()
        pre: dict[str, TyVar] = {}
        for name, _fn in dec.bindings:
            var = self.fresh_tyvar()
            pre[name] = var
            self.env.bind_value(name, ValueBinding(var))
        for name, fn in dec.bindings:
            unify(self.elab_exp(fn), pre[name], dec.line)
        self.pop_frame()
        self.level -= 1
        self.pop_tyvars()
        for name, _fn in dec.bindings:
            scheme = self.generalize(pre[name], False, dec.line)
            self.env.bind_value(name, ValueBinding(scheme))

    def _elab_fun_dec(self, dec: ast.FunDec) -> None:
        self.push_tyvars(dec.tyvars, flexible=True)
        self.level += 1
        self.push_frame()
        pre: dict[str, TyVar] = {}
        for clauses in dec.functions:
            name = clauses[0].name
            var = self.fresh_tyvar()
            pre[name] = var
            self.env.bind_value(name, ValueBinding(var))
        for clauses in dec.functions:
            self._elab_clauses(clauses, pre[clauses[0].name])
        self.pop_frame()
        self.level -= 1
        self.pop_tyvars()
        for clauses in dec.functions:
            name = clauses[0].name
            scheme = self.generalize(pre[name], False, dec.line)
            self.env.bind_value(name, ValueBinding(scheme))

    def _elab_clauses(self, clauses: list[ast.FunClause], fn_ty: Type) -> None:
        arity = len(clauses[0].pats)
        clause_arg_types: list[list[Type]] = []
        for clause in clauses:
            if len(clause.pats) != arity:
                self.error(
                    f"clauses of {clause.name} differ in argument count",
                    clause.line)
            bindings: dict[str, Type] = {}
            arg_tys = [self.elab_pat(p, bindings) for p in clause.pats]
            clause_arg_types.append(arg_tys)
            self.push_frame()
            for name, ty in bindings.items():
                self.env.bind_value(name, ValueBinding(ty))
            body_ty = self.elab_exp(clause.body)
            if clause.result_ty is not None:
                unify(body_ty, self.elab_ty(clause.result_ty), clause.line)
            self.pop_frame()
            clause_ty: Type = body_ty
            for arg in reversed(arg_tys):
                clause_ty = FunType(arg, clause_ty)
            unify(fn_ty, clause_ty, clause.line)
        from repro.elab.matchcheck import check_clauses

        check_clauses(clauses, clause_arg_types[0], clauses[0].line,
                      self.warn)

    def _elab_type_dec(self, dec: ast.TypeDec) -> None:
        for tyvars, name, ty in dec.bindings:
            self.env.bind_tycon(name, self._elab_typefun(tyvars, name, ty))

    def _elab_typefun(self, tyvars: list[str], name: str,
                      ty: ast.Ty) -> TypeFun:
        scope = self.push_tyvars([], flexible=False)
        for i, tv in enumerate(tyvars):
            scope.table[tv] = BoundVar(i)
        body = self.elab_ty(ty)
        self.pop_tyvars()
        return TypeFun(len(tyvars), body, name)

    def _elab_datatype_dec(self, dec: ast.DatatypeDec) -> None:
        self.elab_datatype_bindings(dec.bindings, dec.withtypes)

    def elab_datatype_bindings(
        self,
        bindings: list[tuple[list[str], str, list[ast.ConBind]]],
        withtypes: list[tuple[list[str], str, ast.Ty]] = (),
    ) -> tuple[list[DatatypeTycon], list[Constructor]]:
        """Elaborate a (possibly recursive) bundle of datatype bindings;
        used by both declarations and signature specs."""
        tycons: list[DatatypeTycon] = []
        for tyvars, name, _cons in bindings:
            tycon = DatatypeTycon(self.fresh_stamp(), name, len(tyvars))
            tycons.append(tycon)
            self.env.bind_tycon(name, tycon)
        for tyvars, name, ty in withtypes:
            self.env.bind_tycon(name, self._elab_typefun(tyvars, name, ty))
        all_cons: list[Constructor] = []
        for tycon, (tyvars, _name, conbinds) in zip(tycons, bindings):
            scope = self.push_tyvars([], flexible=False)
            for i, tv in enumerate(tyvars):
                scope.table[tv] = BoundVar(i)
            result = ConType(
                tycon, tuple(BoundVar(i) for i in range(len(tyvars))))
            seen: set[str] = set()
            for conbind in conbinds:
                if conbind.name in seen:
                    self.error(
                        f"duplicate constructor {conbind.name}", conbind.line)
                seen.add(conbind.name)
                if conbind.arg_ty is None:
                    body: Type = result
                    has_arg = False
                else:
                    body = FunType(self.elab_ty(conbind.arg_ty), result)
                    has_arg = True
                scheme: Type = body
                if tycon.arity:
                    scheme = PolyType(tycon.arity, body)
                con = Constructor(conbind.name, tycon, scheme, has_arg)
                tycon.constructors.append(con)
                all_cons.append(con)
                self.env.bind_value(conbind.name, ValueBinding(scheme, con))
            self.pop_tyvars()
        compute_datatype_equality(tycons)
        return tycons, all_cons

    def _elab_datatype_repl_dec(self, dec: ast.DatatypeReplDec) -> None:
        tycon = self.env.lookup_tycon_path(dec.path)
        if not isinstance(tycon, DatatypeTycon):
            self.error(
                f"{ast.path_str(dec.path)} is not a datatype", dec.line)
        self.env.bind_tycon(dec.name, tycon)
        for con in tycon.constructors:
            self.env.bind_value(con.name, ValueBinding(con.scheme, con))

    def _elab_abstype_dec(self, dec: ast.AbstypeDec) -> None:
        self.push_frame()
        tycons, _cons = self.elab_datatype_bindings(dec.bindings)
        inner = self.push_frame()
        for d in dec.body:
            self.elab_dec(d)
        self.pop_frame()
        self.pop_frame()
        # Export the type (without constructors) and the body's bindings.
        for tycon in tycons:
            self.env.bind_tycon(tycon.name, tycon)
        self.env.absorb(inner)

    def _elab_exception_dec(self, dec: ast.ExceptionDec) -> None:
        for name, arg_ty, alias in dec.bindings:
            if alias is not None:
                binding = self.env.lookup_value_path(alias)
                if (binding is None or binding.con is None
                        or not binding.con.is_exn):
                    self.error(
                        f"{ast.path_str(alias)} is not an exception",
                        dec.line)
                self.env.bind_value(name, binding)
                continue
            if arg_ty is None:
                scheme: Type = prim.exn_type()
                has_arg = False
            else:
                arg = self.elab_ty(arg_ty)
                if _free_tyvars(arg):
                    self.error(
                        "exception type must be monomorphic", dec.line)
                scheme = FunType(arg, prim.exn_type())
                has_arg = True
            con = Constructor(name, None, scheme, has_arg, is_exn=True)
            self.env.bind_value(name, ValueBinding(scheme, con))

    def _elab_local_dec(self, dec: ast.LocalDec) -> None:
        self.push_frame()
        for d in dec.private:
            self.elab_dec(d)
        public = self.push_frame()
        for d in dec.public:
            self.elab_dec(d)
        self.pop_frame()
        self.pop_frame()
        self.env.absorb(public)

    def _elab_open_dec(self, dec: ast.OpenDec) -> None:
        for path in dec.paths:
            struct = self.env.lookup_structure_path(path)
            if struct is None:
                self.error(f"unbound structure {ast.path_str(path)}",
                           dec.line)
            self.env.absorb(struct.env)

    def _elab_fixity_dec(self, dec: ast.FixityDec) -> None:
        pass  # fixity is a purely syntactic matter, handled by the parser


def _resolve_overloads(ty: Type) -> None:
    """Link every unresolved OverloadVar in ``ty`` to its default type
    (respecting an equality constraint if one was imposed)."""
    from repro.semant.types import OverloadVar

    ty = prune(ty)
    if isinstance(ty, OverloadVar):
        default = ty.default
        if ty.eq and not default.admits_equality():
            for cand in ty.candidates:
                if cand.admits_equality():
                    default = cand
                    break
        ty.link = ConType(default)
    elif isinstance(ty, ConType):
        for a in ty.args:
            _resolve_overloads(a)
    elif isinstance(ty, RecordType):
        for _, f in ty.fields:
            _resolve_overloads(f)
    elif isinstance(ty, FlexRecord):
        for f in ty.fields.values():
            _resolve_overloads(f)
    elif isinstance(ty, FunType):
        _resolve_overloads(ty.dom)
        _resolve_overloads(ty.rng)


def _const_type(kind: str) -> Type:
    return {
        "int": prim.int_type(),
        "word": prim.word_type(),
        "string": prim.string_type(),
        "char": prim.char_type(),
    }[kind]


def _is_expansive(exp: ast.Exp) -> bool:
    """The value restriction's syntactic-value test (inverted)."""
    if isinstance(exp, (ast.IntExp, ast.WordExp, ast.RealExp, ast.StringExp,
                        ast.CharExp, ast.VarExp, ast.FnExp,
                        ast.SelectorExp)):
        return False
    if isinstance(exp, ast.TupleExp):
        return any(_is_expansive(e) for e in exp.parts)
    if isinstance(exp, ast.RecordExp):
        return any(_is_expansive(e) for _, e in exp.fields)
    if isinstance(exp, ast.ListExp):
        return any(_is_expansive(e) for e in exp.parts)
    if isinstance(exp, ast.TypedExp):
        return _is_expansive(exp.exp)
    if isinstance(exp, ast.AppExp):
        # A constructor application to a value is a value -- except ref.
        fn = exp.fn
        if isinstance(fn, ast.VarExp) and isinstance(fn.info, ast.ConInfo):
            if fn.path[-1] != "ref":
                return _is_expansive(exp.arg)
        return True
    return True


def _free_tyvars(ty: Type) -> list[TyVar]:
    out: list[TyVar] = []

    def walk(t: Type) -> None:
        t = prune(t)
        if isinstance(t, TyVar):
            if t not in out:
                out.append(t)
        elif isinstance(t, ConType):
            for a in t.args:
                walk(a)
        elif isinstance(t, RecordType):
            for _, f in t.fields:
                walk(f)
        elif isinstance(t, FlexRecord):
            for f in t.fields.values():
                walk(f)
        elif isinstance(t, FunType):
            walk(t.dom)
            walk(t.rng)

    walk(ty)
    return out


_EXP_DISPATCH = {
    ast.IntExp: Elaborator._elab_int,
    ast.WordExp: Elaborator._elab_word,
    ast.RealExp: Elaborator._elab_real,
    ast.StringExp: Elaborator._elab_string,
    ast.CharExp: Elaborator._elab_char,
    ast.VarExp: Elaborator._elab_var,
    ast.SelectorExp: Elaborator._elab_selector,
    ast.TupleExp: Elaborator._elab_tuple,
    ast.RecordExp: Elaborator._elab_record,
    ast.ListExp: Elaborator._elab_list,
    ast.SeqExp: Elaborator._elab_seq,
    ast.AppExp: Elaborator._elab_app,
    ast.FnExp: Elaborator._elab_fn,
    ast.LetExp: Elaborator._elab_let,
    ast.IfExp: Elaborator._elab_if,
    ast.CaseExp: Elaborator._elab_case,
    ast.AndalsoExp: Elaborator._elab_andalso,
    ast.OrelseExp: Elaborator._elab_orelse,
    ast.WhileExp: Elaborator._elab_while,
    ast.RaiseExp: Elaborator._elab_raise,
    ast.HandleExp: Elaborator._elab_handle,
    ast.TypedExp: Elaborator._elab_typed,
}

_DEC_DISPATCH = {
    ast.ValDec: Elaborator._elab_val_dec,
    ast.ValRecDec: Elaborator._elab_val_rec_dec,
    ast.FunDec: Elaborator._elab_fun_dec,
    ast.TypeDec: Elaborator._elab_type_dec,
    ast.DatatypeDec: Elaborator._elab_datatype_dec,
    ast.DatatypeReplDec: Elaborator._elab_datatype_repl_dec,
    ast.AbstypeDec: Elaborator._elab_abstype_dec,
    ast.ExceptionDec: Elaborator._elab_exception_dec,
    ast.LocalDec: Elaborator._elab_local_dec,
    ast.OpenDec: Elaborator._elab_open_dec,
    ast.FixityDec: Elaborator._elab_fixity_dec,
}


def register_dec_handler(node_class, handler) -> None:
    """Extension point used by :mod:`repro.elab.modules` to add the
    module-language declarations to the dispatch table."""
    _DEC_DISPATCH[node_class] = handler
