"""Recursive-descent parser for the Standard ML subset.

The grammar follows the Definition of Standard ML, restricted to the
subset listed in DESIGN.md.  Infix expressions and patterns are resolved
with precedence climbing against a :class:`repro.lang.ops.FixityEnv`
threaded through declaration scopes.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.ops import Fixity, FixityEnv
from repro.lang.tokens import TokKind, Token

# Tokens that can never start an atomic expression; used to stop the
# application-expression loop.
_EXP_TERMINATORS = {
    "then", "else", "do", "of", "and", "in", "end", "handle", "andalso",
    "orelse", "val", "fun", "type", "datatype", "exception", "structure",
    "signature", "functor", "local", "open", "infix", "infixr", "nonfix",
    "sharing", "where", "with", "withtype", "abstype", "eqtype", "include",
    "rec", "sig", "struct", "=", "=>", "->", "|", ":", ":>",
}


def parse_program(text: str) -> list[ast.Dec]:
    """Parse a full compilation unit: a sequence of declarations."""
    return Parser(text).program()


def parse_expression(text: str) -> ast.Exp:
    """Parse a single expression (used by the interactive loop and tests)."""
    parser = Parser(text)
    exp = parser.exp()
    parser.expect_eof()
    return exp


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.fixity = FixityEnv.initial()

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # ``pos`` never passes the EOF token; only a lookahead can.
        if not ahead:
            return self.toks[self.pos]
        toks = self.toks
        i = self.pos + ahead
        return toks[i] if i < len(toks) else toks[-1]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokKind) -> bool:
        return self.toks[self.pos].kind is kind

    def at_kw(self, word: str) -> bool:
        tok = self.toks[self.pos]
        return tok.kind is TokKind.KEYWORD and tok.text == word

    def eat_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.advance()
            return True
        return False

    def eat(self, kind: TokKind) -> bool:
        if self.at(kind):
            self.advance()
            return True
        return False

    def expect(self, kind: TokKind, what: str = "") -> Token:
        if not self.at(kind):
            raise self.error(f"expected {what or kind.name}, found {self.peek()}")
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            raise self.error(f"expected '{word}', found {self.peek()}")
        return self.advance()

    def expect_eof(self) -> None:
        if not self.at(TokKind.EOF):
            raise self.error(f"unexpected {self.peek()} after end of phrase")

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- identifiers and paths ----------------------------------------------

    def ident(self, what: str = "identifier") -> str:
        """An unqualified identifier; ``op`` may prefix a symbolic one."""
        if self.eat_kw("op"):
            return self.op_ident()
        tok = self.peek()
        if tok.kind is TokKind.ID or tok.kind is TokKind.SYMID:
            self.advance()
            return tok.text
        if tok.is_keyword("*"):  # '*' is reserved but a legal value id
            self.advance()
            return "*"
        if tok.is_keyword("="):
            self.advance()
            return "="
        raise self.error(f"expected {what}, found {tok}")

    def op_ident(self) -> str:
        tok = self.peek()
        if tok.kind in (TokKind.ID, TokKind.SYMID):
            self.advance()
            return tok.text
        if tok.is_keyword("*") or tok.is_keyword("="):
            self.advance()
            return tok.text
        raise self.error(f"expected identifier after 'op', found {tok}")

    def label(self) -> str:
        """A record label: an identifier or a positive integer."""
        if self.at(TokKind.INT):
            tok = self.advance()
            if tok.value <= 0:
                raise self.error("numeric record labels start at 1")
            return str(tok.value)
        return self.ident("record label")

    def longid(self) -> ast.Path:
        """A qualified name ``A.B.x``; the final component may be symbolic."""
        parts = [self.ident()]
        while self.at(TokKind.DOT):
            self.advance()
            parts.append(self.ident())
        return tuple(parts)

    # -- programs and declarations -------------------------------------------

    def program(self) -> list[ast.Dec]:
        decs = self.dec_sequence(stop=("",))
        self.expect_eof()
        return decs

    def dec_sequence(self, stop: tuple[str, ...]) -> list[ast.Dec]:
        """Parse declarations until EOF or one of the given stop keywords."""
        decs: list[ast.Dec] = []
        while True:
            while self.eat(TokKind.SEMICOLON):
                pass
            tok = self.peek()
            if tok.kind in (TokKind.EOF, TokKind.RPAREN):
                return decs
            if tok.kind is TokKind.KEYWORD and tok.text in stop:
                return decs
            decs.append(self.dec())

    def dec(self) -> ast.Dec:
        tok = self.peek()
        if tok.kind is not TokKind.KEYWORD:
            raise self.error(f"expected a declaration, found {tok}")
        handlers = {
            "val": self.val_dec,
            "fun": self.fun_dec,
            "type": self.type_dec,
            "datatype": self.datatype_dec,
            "abstype": self.abstype_dec,
            "exception": self.exception_dec,
            "local": self.local_dec,
            "open": self.open_dec,
            "infix": self.fixity_dec,
            "infixr": self.fixity_dec,
            "nonfix": self.fixity_dec,
            "structure": self.structure_dec,
            "signature": self.signature_dec,
            "functor": self.functor_dec,
        }
        handler = handlers.get(tok.text)
        if handler is None:
            raise self.error(f"unexpected {tok} at start of declaration")
        return handler()

    def tyvarseq(self) -> list[str]:
        """An optional ``'a`` or ``('a, 'b)`` type-variable sequence."""
        if self.at(TokKind.TYVAR):
            return [self.advance().text]
        if self.at(TokKind.LPAREN) and self.peek(1).kind is TokKind.TYVAR:
            self.advance()
            names = [self.expect(TokKind.TYVAR).text]
            while self.eat(TokKind.COMMA):
                names.append(self.expect(TokKind.TYVAR).text)
            self.expect(TokKind.RPAREN)
            return names
        return []

    def val_dec(self) -> ast.Dec:
        line = self.expect_kw("val").line
        tyvars = self.tyvarseq()
        if self.eat_kw("rec"):
            return self._val_rec(tyvars, line)
        bindings = [self._val_bind()]
        while self.eat_kw("and"):
            if self.eat_kw("rec"):
                # ``val x = e and rec f = fn ...`` is not in the subset.
                raise self.error("'val rec' must begin the binding group")
            bindings.append(self._val_bind())
        return ast.ValDec(tyvars, bindings, line)

    def _val_bind(self) -> tuple[ast.Pat, ast.Exp]:
        pat = self.pat()
        self.expect_kw("=")
        return (pat, self.exp())

    def _val_rec(self, tyvars: list[str], line: int) -> ast.ValRecDec:
        bindings = []
        while True:
            name = self.ident("function name")
            self.expect_kw("=")
            body = self.exp()
            if not isinstance(body, ast.FnExp):
                raise self.error("'val rec' right-hand side must be 'fn ...'")
            bindings.append((name, body))
            if not self.eat_kw("and"):
                return ast.ValRecDec(tyvars, bindings, line)

    def fun_dec(self) -> ast.FunDec:
        line = self.expect_kw("fun").line
        tyvars = self.tyvarseq()
        functions = [self._fun_clauses()]
        while self.eat_kw("and"):
            functions.append(self._fun_clauses())
        return ast.FunDec(tyvars, functions, line)

    def _fun_clauses(self) -> list[ast.FunClause]:
        clauses = [self._fun_clause()]
        while self.at_kw("|"):
            self.advance()
            clauses.append(self._fun_clause())
        if len({c.name for c in clauses}) != 1:
            raise self.error("clauses of one 'fun' binding must share a name")
        return clauses

    def _fun_clause(self) -> ast.FunClause:
        line = self.peek().line
        name, pats = self._fun_head()
        result_ty = None
        if self.eat_kw(":"):
            result_ty = self.ty()
        self.expect_kw("=")
        body = self.exp()
        return ast.FunClause(name, pats, result_ty, body, line)

    def _fun_head(self) -> tuple[str, list[ast.Pat]]:
        """Parse a clause head: ``name atpat+`` or infix ``apat id apat``."""
        # Infix definition head: (pat id pat) or pat id pat.
        if self.at(TokKind.LPAREN):
            save = self.pos
            try:
                self.advance()
                left = self.atpat()
                name = self._infix_def_name()
                right = self.atpat()
                self.expect(TokKind.RPAREN)
                more = self._atpat_list()
                return name, [ast.TuplePat([left, right])] + more
            except ParseError:
                self.pos = save
        save = self.pos
        try:
            left = self.atpat()
            name = self._infix_def_name()
            right = self.atpat()
            return name, [ast.TuplePat([left, right])]
        except ParseError:
            self.pos = save
        name = self.ident("function name")
        pats = self._atpat_list()
        if not pats:
            raise self.error("a 'fun' clause needs at least one argument")
        return name, pats

    def _infix_def_name(self) -> str:
        tok = self.peek()
        text = tok.text
        if tok.kind in (TokKind.ID, TokKind.SYMID) or tok.is_keyword("*"):
            if self.fixity.lookup(text) is not None:
                self.advance()
                return text
        raise self.error("not an infix definition")

    def _atpat_list(self) -> list[ast.Pat]:
        pats = []
        while self._starts_atpat():
            pats.append(self.atpat())
        return pats

    def type_dec(self) -> ast.TypeDec:
        line = self.expect_kw("type").line
        bindings = [self._type_bind()]
        while self.eat_kw("and"):
            bindings.append(self._type_bind())
        return ast.TypeDec(bindings, line)

    def _type_bind(self) -> tuple[list[str], str, ast.Ty]:
        tyvars = self.tyvarseq()
        name = self.ident("type name")
        self.expect_kw("=")
        return (tyvars, name, self.ty())

    def datatype_dec(self) -> ast.Dec:
        line = self.expect_kw("datatype").line
        # Replication: datatype t = datatype A.u
        if (
            self.peek().kind is TokKind.ID
            and self.peek(1).is_keyword("=")
            and self.peek(2).is_keyword("datatype")
        ):
            name = self.advance().text
            self.advance()  # =
            self.advance()  # datatype
            return ast.DatatypeReplDec(name, self.longid(), line)
        bindings = [self._datatype_bind()]
        while self.eat_kw("and"):
            bindings.append(self._datatype_bind())
        withtypes = []
        if self.eat_kw("withtype"):
            withtypes.append(self._type_bind())
            while self.eat_kw("and"):
                withtypes.append(self._type_bind())
        return ast.DatatypeDec(bindings, withtypes, line)

    def _datatype_bind(self) -> tuple[list[str], str, list[ast.ConBind]]:
        tyvars = self.tyvarseq()
        name = self.ident("datatype name")
        self.expect_kw("=")
        cons = [self._con_bind()]
        while self.at_kw("|"):
            self.advance()
            cons.append(self._con_bind())
        return (tyvars, name, cons)

    def _con_bind(self) -> ast.ConBind:
        line = self.peek().line
        name = self.ident("constructor name")
        arg_ty = self.ty() if self.eat_kw("of") else None
        return ast.ConBind(name, arg_ty, line)

    def abstype_dec(self) -> ast.AbstypeDec:
        line = self.expect_kw("abstype").line
        bindings = [self._datatype_bind()]
        while self.eat_kw("and"):
            bindings.append(self._datatype_bind())
        self.expect_kw("with")
        body = self.dec_sequence(stop=("end",))
        self.expect_kw("end")
        return ast.AbstypeDec(bindings, body, line)

    def exception_dec(self) -> ast.ExceptionDec:
        line = self.expect_kw("exception").line
        bindings = [self._exn_bind()]
        while self.eat_kw("and"):
            bindings.append(self._exn_bind())
        return ast.ExceptionDec(bindings, line)

    def _exn_bind(self) -> tuple[str, ast.Ty | None, ast.Path | None]:
        name = self.ident("exception name")
        if self.eat_kw("of"):
            return (name, self.ty(), None)
        if self.eat_kw("="):
            return (name, None, self.longid())
        return (name, None, None)

    def local_dec(self) -> ast.LocalDec:
        line = self.expect_kw("local").line
        outer = self.fixity
        self.fixity = outer.child()
        private = self.dec_sequence(stop=("in",))
        self.expect_kw("in")
        public = self.dec_sequence(stop=("end",))
        self.expect_kw("end")
        self.fixity = outer
        return ast.LocalDec(private, public, line)

    def open_dec(self) -> ast.OpenDec:
        line = self.expect_kw("open").line
        paths = [self.longid()]
        while self.peek().kind is TokKind.ID:
            paths.append(self.longid())
        return ast.OpenDec(paths, line)

    def fixity_dec(self) -> ast.FixityDec:
        tok = self.advance()
        assoc = {"infix": "left", "infixr": "right", "nonfix": "non"}[tok.text]
        precedence = 0
        if self.at(TokKind.INT):
            precedence = self.advance().value
        names = []
        while self.peek().kind in (TokKind.ID, TokKind.SYMID) or self.at_kw("*"):
            names.append(self.advance().text)
        if not names:
            raise self.error("fixity declaration names no operators")
        for name in names:
            fix = None if assoc == "non" else Fixity(precedence, assoc)
            self.fixity.declare(name, fix)
        return ast.FixityDec(assoc, precedence, names, tok.line)

    # -- module declarations ---------------------------------------------

    def structure_dec(self) -> ast.StructureDec:
        line = self.expect_kw("structure").line
        bindings = [self._str_bind()]
        while self.eat_kw("and"):
            bindings.append(self._str_bind())
        return ast.StructureDec(bindings, line)

    def _str_bind(self) -> ast.StrBind:
        line = self.peek().line
        name = self.ident("structure name")
        sig = None
        opaque = False
        if self.eat_kw(":"):
            sig = self.sigexp()
        elif self.eat_kw(":>"):
            sig = self.sigexp()
            opaque = True
        self.expect_kw("=")
        return ast.StrBind(name, sig, opaque, self.strexp(), line)

    def strexp(self) -> ast.StrExp:
        line = self.peek().line
        if self.eat_kw("struct"):
            outer = self.fixity
            self.fixity = outer.child()
            decs = self.dec_sequence(stop=("end",))
            self.expect_kw("end")
            self.fixity = outer
            body: ast.StrExp = ast.StructStrExp(decs, line)
        elif self.eat_kw("let"):
            outer = self.fixity
            self.fixity = outer.child()
            decs = self.dec_sequence(stop=("in",))
            self.expect_kw("in")
            inner = self.strexp()
            self.expect_kw("end")
            self.fixity = outer
            body = ast.LetStrExp(decs, inner, line)
        else:
            path = self.longid()
            if self.at(TokKind.LPAREN):
                self.advance()
                # Functor argument: a structure expression, or a bare
                # declaration sequence (derived form).
                if self._starts_strexp():
                    arg = self.strexp()
                else:
                    decs = self.dec_sequence(stop=(")",))
                    arg = ast.StructStrExp(decs, line)
                self.expect(TokKind.RPAREN)
                body = ast.AppStrExp(path, arg, line)
            else:
                body = ast.VarStrExp(path, line)
        while True:
            if self.eat_kw(":"):
                body = ast.ConstraintStrExp(body, self.sigexp(), False, line)
            elif self.eat_kw(":>"):
                body = ast.ConstraintStrExp(body, self.sigexp(), True, line)
            else:
                return body

    def _starts_strexp(self) -> bool:
        tok = self.peek()
        if tok.is_keyword("struct") or tok.is_keyword("let"):
            return True
        return tok.kind is TokKind.ID

    def signature_dec(self) -> ast.SignatureDec:
        line = self.expect_kw("signature").line
        bindings = [self._sig_bind()]
        while self.eat_kw("and"):
            bindings.append(self._sig_bind())
        return ast.SignatureDec(bindings, line)

    def _sig_bind(self) -> tuple[str, ast.SigExp]:
        name = self.ident("signature name")
        self.expect_kw("=")
        return (name, self.sigexp())

    def functor_dec(self) -> ast.FunctorDec:
        line = self.expect_kw("functor").line
        bindings = [self._fct_bind()]
        while self.eat_kw("and"):
            bindings.append(self._fct_bind())
        return ast.FunctorDec(bindings, line)

    def _fct_bind(self) -> ast.FctBind:
        line = self.peek().line
        name = self.ident("functor name")
        self.expect(TokKind.LPAREN)
        fct_param = None
        param_sig = None
        if self.at_kw("functor"):
            # Higher-order parameter: functor G (X : S1) : S2
            fline = self.advance().line
            gname = self.ident("functor parameter name")
            self.expect(TokKind.LPAREN)
            inner = self.ident("inner parameter")
            self.expect_kw(":")
            inner_sig = self.sigexp()
            self.expect(TokKind.RPAREN)
            self.expect_kw(":")
            inner_result = self.sigexp()
            fct_param = ast.FctParamSpec(gname, inner, inner_sig,
                                         inner_result, fline)
            param_name = gname
        else:
            param_name = self.ident("functor parameter")
            self.expect_kw(":")
            param_sig = self.sigexp()
        self.expect(TokKind.RPAREN)
        result_sig = None
        opaque = False
        if self.eat_kw(":"):
            result_sig = self.sigexp()
        elif self.eat_kw(":>"):
            result_sig = self.sigexp()
            opaque = True
        self.expect_kw("=")
        return ast.FctBind(name, param_name, param_sig, result_sig, opaque,
                           self.strexp(), line, fct_param)

    # -- signature expressions and specs -----------------------------------

    def sigexp(self) -> ast.SigExp:
        line = self.peek().line
        if self.eat_kw("sig"):
            specs = self._spec_sequence()
            self.expect_kw("end")
            base: ast.SigExp = ast.SigSigExp(specs, line)
        else:
            base = ast.VarSigExp(self.ident("signature name"), line)
        while self.at_kw("where"):
            self.advance()
            self.expect_kw("type")
            while True:
                tyvars = self.tyvarseq()
                path = self.longid()
                self.expect_kw("=")
                ty = self.ty()
                base = ast.WhereTypeSigExp(base, tyvars, path, ty, line)
                if not self.eat_kw("and"):
                    break
                # "and type" continues the where; plain "and" would belong
                # to an enclosing binding, so require the 'type' keyword.
                self.expect_kw("type")
        return base

    def _spec_sequence(self) -> list[ast.Spec]:
        specs: list[ast.Spec] = []
        while True:
            while self.eat(TokKind.SEMICOLON):
                pass
            tok = self.peek()
            if tok.kind is not TokKind.KEYWORD or tok.text == "end":
                return specs
            if tok.text == "val":
                specs.append(self._val_spec())
            elif tok.text in ("type", "eqtype"):
                specs.append(self._type_spec())
            elif tok.text == "datatype":
                specs.append(self._datatype_spec())
            elif tok.text == "exception":
                specs.append(self._exception_spec())
            elif tok.text == "structure":
                specs.append(self._structure_spec())
            elif tok.text == "include":
                line = self.advance().line
                specs.append(ast.IncludeSpec(self.sigexp(), line))
            elif tok.text == "sharing":
                specs.append(self._sharing_spec())
            else:
                return specs

    def _val_spec(self) -> ast.ValSpec:
        line = self.expect_kw("val").line
        bindings = []
        while True:
            name = self.ident("value name")
            self.expect_kw(":")
            bindings.append((name, self.ty()))
            if not self.eat_kw("and"):
                return ast.ValSpec(bindings, line)

    def _type_spec(self) -> ast.TypeSpec:
        tok = self.advance()  # type | eqtype
        equality = tok.text == "eqtype"
        bindings = []
        while True:
            tyvars = self.tyvarseq()
            name = self.ident("type name")
            definition = None
            if self.at_kw("="):
                self.advance()
                definition = self.ty()
            bindings.append((tyvars, name, definition))
            if not self.eat_kw("and"):
                return ast.TypeSpec(bindings, equality, tok.line)

    def _datatype_spec(self) -> ast.DatatypeSpec:
        line = self.expect_kw("datatype").line
        bindings = [self._datatype_bind()]
        while self.eat_kw("and"):
            bindings.append(self._datatype_bind())
        return ast.DatatypeSpec(bindings, line)

    def _exception_spec(self) -> ast.ExceptionSpec:
        line = self.expect_kw("exception").line
        bindings = []
        while True:
            name = self.ident("exception name")
            ty = self.ty() if self.eat_kw("of") else None
            bindings.append((name, ty))
            if not self.eat_kw("and"):
                return ast.ExceptionSpec(bindings, line)

    def _structure_spec(self) -> ast.StructureSpec:
        line = self.expect_kw("structure").line
        bindings = []
        while True:
            name = self.ident("structure name")
            self.expect_kw(":")
            bindings.append((name, self.sigexp()))
            if not self.eat_kw("and"):
                return ast.StructureSpec(bindings, line)

    def _sharing_spec(self) -> ast.SharingSpec:
        line = self.expect_kw("sharing").line
        self.expect_kw("type")
        paths = [self.longid()]
        self.expect_kw("=")
        paths.append(self.longid())
        while self.eat_kw("="):
            paths.append(self.longid())
        return ast.SharingSpec(paths, line)

    # -- types ---------------------------------------------------------------

    def ty(self) -> ast.Ty:
        line = self.peek().line
        left = self._tuple_ty()
        if self.eat_kw("->"):
            return ast.ArrowTy(left, self.ty(), line)
        return left

    def _tuple_ty(self) -> ast.Ty:
        line = self.peek().line
        parts = [self._app_ty()]
        while self.at_kw("*"):
            self.advance()
            parts.append(self._app_ty())
        if len(parts) == 1:
            return parts[0]
        return ast.TupleTy(parts, line)

    def _app_ty(self) -> ast.Ty:
        line = self.peek().line
        ty = self._atomic_ty()
        while self.peek().kind is TokKind.ID:
            path = self.longid()
            ty = ast.ConTy([ty], path, line)
        return ty

    def _atomic_ty(self) -> ast.Ty:
        tok = self.peek()
        line = tok.line
        if tok.kind is TokKind.TYVAR:
            self.advance()
            return ast.TyVarTy(tok.text, line)
        if tok.kind is TokKind.LBRACE:
            self.advance()
            fields = []
            if not self.at(TokKind.RBRACE):
                fields.append(self._ty_field())
                while self.eat(TokKind.COMMA):
                    fields.append(self._ty_field())
            self.expect(TokKind.RBRACE)
            return ast.RecordTy(fields, line)
        if tok.kind is TokKind.LPAREN:
            self.advance()
            tys = [self.ty()]
            while self.eat(TokKind.COMMA):
                tys.append(self.ty())
            self.expect(TokKind.RPAREN)
            if len(tys) > 1:
                path = self.longid()
                ty: ast.Ty = ast.ConTy(tys, path, line)
            else:
                ty = tys[0]
            return ty
        if tok.kind is TokKind.ID:
            return ast.ConTy([], self.longid(), line)
        raise self.error(f"expected a type, found {tok}")

    def _ty_field(self) -> tuple[str, ast.Ty]:
        label = self.label()
        self.expect_kw(":")
        return (label, self.ty())

    # -- patterns -------------------------------------------------------------

    def pat(self) -> ast.Pat:
        """Full pattern: infix constructor resolution + 'as' + ': ty'."""
        line = self.peek().line
        # 'name as pat' / 'name : ty as pat'
        if self.peek().kind is TokKind.ID and not self._id_is_con(self.peek().text):
            if self.peek(1).is_keyword("as"):
                name = self.advance().text
                self.advance()
                return ast.AsPat(name, self.pat(), line)
        pat = self._infix_pat()
        while self.at_kw(":"):
            self.advance()
            pat = ast.TypedPat(pat, self.ty(), line)
            if self.peek().is_keyword("as") and isinstance(pat.pat, ast.VarPat):
                self.advance()
                return ast.AsPat(pat.pat.name, self.pat(), line)
        return pat

    def _infix_pat(self) -> ast.Pat:
        items: list[object] = [self._app_pat()]
        while True:
            tok = self.peek()
            text = tok.text
            if tok.kind in (TokKind.ID, TokKind.SYMID) or tok.is_keyword("*"):
                fix = self.fixity.lookup(text)
                if fix is not None and text != "=":
                    self.advance()
                    items.append((text, fix, tok.line))
                    items.append(self._app_pat())
                    continue
            break
        return self._resolve_infix(items, self._mk_con_pat)

    def _mk_con_pat(self, name: str, left: ast.Pat, right: ast.Pat,
                    line: int) -> ast.Pat:
        return ast.ConPat((name,), ast.TuplePat([left, right], line), line)

    def _app_pat(self) -> ast.Pat:
        """Constructor application: ``longid atpat`` or an atomic pattern."""
        tok = self.peek()
        if tok.kind is TokKind.ID or tok.is_keyword("op"):
            save = self.pos
            op_used = self.eat_kw("op")
            if self.peek().kind is TokKind.ID or (
                op_used and self.peek().kind is TokKind.SYMID
            ):
                path = self.longid()
                if self._starts_atpat():
                    return ast.ConPat(path, self.atpat(), tok.line)
                self.pos = save
        return self.atpat()

    def _starts_atpat(self) -> bool:
        tok = self.peek()
        if tok.kind in (
            TokKind.ID, TokKind.INT, TokKind.WORD, TokKind.STRING,
            TokKind.CHAR, TokKind.LPAREN, TokKind.LBRACKET, TokKind.LBRACE,
            TokKind.UNDERSCORE,
        ):
            if tok.kind is TokKind.ID and self.fixity.lookup(tok.text):
                return False  # infix operator: not the start of an atpat
            return True
        return tok.is_keyword("op")

    def atpat(self) -> ast.Pat:
        tok = self.peek()
        line = tok.line
        if tok.kind is TokKind.UNDERSCORE:
            self.advance()
            return ast.WildPat(line)
        if tok.kind is TokKind.INT:
            self.advance()
            return ast.ConstPat("int", tok.value, line)
        if tok.kind is TokKind.WORD:
            self.advance()
            return ast.ConstPat("word", tok.value, line)
        if tok.kind is TokKind.STRING:
            self.advance()
            return ast.ConstPat("string", tok.value, line)
        if tok.kind is TokKind.CHAR:
            self.advance()
            return ast.ConstPat("char", tok.value, line)
        if tok.kind is TokKind.ID or tok.is_keyword("op"):
            op_used = self.eat_kw("op")
            if op_used:
                name = self.op_ident()
                return ast.VarPat(name, line)
            path = self.longid()
            if len(path) > 1:
                return ast.ConPat(path, None, line)
            return ast.VarPat(path[0], line)
        if tok.kind is TokKind.LPAREN:
            self.advance()
            if self.eat(TokKind.RPAREN):
                return ast.TuplePat([], line)  # unit
            pats = [self.pat()]
            while self.eat(TokKind.COMMA):
                pats.append(self.pat())
            self.expect(TokKind.RPAREN)
            if len(pats) == 1:
                return pats[0]
            return ast.TuplePat(pats, line)
        if tok.kind is TokKind.LBRACKET:
            self.advance()
            pats = []
            if not self.at(TokKind.RBRACKET):
                pats.append(self.pat())
                while self.eat(TokKind.COMMA):
                    pats.append(self.pat())
            self.expect(TokKind.RBRACKET)
            return ast.ListPat(pats, line)
        if tok.kind is TokKind.LBRACE:
            return self._record_pat()
        raise self.error(f"expected a pattern, found {tok}")

    def _record_pat(self) -> ast.Pat:
        line = self.expect(TokKind.LBRACE).line
        fields: list[tuple[str, ast.Pat]] = []
        flexible = False
        if not self.at(TokKind.RBRACE):
            while True:
                if self.at(TokKind.DOTDOTDOT):
                    self.advance()
                    flexible = True
                    break
                label = self.label()
                if self.eat_kw("="):
                    fields.append((label, self.pat()))
                else:
                    # Punning: {x, y} == {x = x, y = y}; allow ': ty' and 'as'.
                    pat: ast.Pat = ast.VarPat(label, line)
                    if self.eat_kw(":"):
                        pat = ast.TypedPat(pat, self.ty(), line)
                    if self.eat_kw("as"):
                        pat = ast.AsPat(label, self.pat(), line)
                    fields.append((label, pat))
                if not self.eat(TokKind.COMMA):
                    break
        self.expect(TokKind.RBRACE)
        return ast.RecordPat(fields, flexible, line)

    def _id_is_con(self, _name: str) -> bool:
        # The parser cannot know constructor-ness; resolution happens in the
        # elaborator.  Only 'as'-pattern lookahead uses this, where treating
        # every name as a variable matches the Definition's grammar.
        return False

    # -- expressions ---------------------------------------------------------

    def exp(self) -> ast.Exp:
        tok = self.peek()
        line = tok.line
        if tok.is_keyword("fn"):
            self.advance()
            return ast.FnExp(self._match(), line)
        if tok.is_keyword("case"):
            self.advance()
            scrutinee = self.exp()
            self.expect_kw("of")
            return ast.CaseExp(scrutinee, self._match(), line)
        if tok.is_keyword("if"):
            self.advance()
            cond = self.exp()
            self.expect_kw("then")
            then = self.exp()
            self.expect_kw("else")
            return ast.IfExp(cond, then, self.exp(), line)
        if tok.is_keyword("while"):
            self.advance()
            cond = self.exp()
            self.expect_kw("do")
            return ast.WhileExp(cond, self.exp(), line)
        if tok.is_keyword("raise"):
            self.advance()
            return ast.RaiseExp(self.exp(), line)
        exp = self._orelse_exp()
        while self.at_kw("handle"):
            self.advance()
            exp = ast.HandleExp(exp, self._match(), line)
        return exp

    def _match(self) -> list[tuple[ast.Pat, ast.Exp]]:
        rules = [self._rule()]
        while self.at_kw("|"):
            self.advance()
            rules.append(self._rule())
        return rules

    def _rule(self) -> tuple[ast.Pat, ast.Exp]:
        pat = self.pat()
        self.expect_kw("=>")
        return (pat, self.exp())

    def _orelse_exp(self) -> ast.Exp:
        line = self.peek().line
        left = self._andalso_exp()
        while self.at_kw("orelse"):
            self.advance()
            left = ast.OrelseExp(left, self._andalso_exp(), line)
        return left

    def _andalso_exp(self) -> ast.Exp:
        line = self.peek().line
        left = self._typed_exp()
        while self.at_kw("andalso"):
            self.advance()
            left = ast.AndalsoExp(left, self._typed_exp(), line)
        return left

    def _typed_exp(self) -> ast.Exp:
        line = self.peek().line
        exp = self._infix_exp()
        while self.at_kw(":"):
            self.advance()
            exp = ast.TypedExp(exp, self.ty(), line)
        return exp

    def _infix_exp(self) -> ast.Exp:
        items: list[object] = [self._app_exp()]
        while True:
            tok = self.peek()
            text = tok.text
            if (
                tok.kind in (TokKind.ID, TokKind.SYMID)
                or tok.is_keyword("*")
                or tok.is_keyword("=")
            ):
                fix = self.fixity.lookup(text)
                if fix is not None:
                    self.advance()
                    items.append((text, fix, tok.line))
                    items.append(self._app_exp())
                    continue
            break
        return self._resolve_infix(items, self._mk_infix_app)

    def _mk_infix_app(self, name: str, left: ast.Exp, right: ast.Exp,
                      line: int) -> ast.Exp:
        fn = ast.VarExp((name,), line)
        return ast.AppExp(fn, ast.TupleExp([left, right], line), line)

    def _resolve_infix(self, items: list[object], mk) -> object:
        """Resolve an alternating operand/operator list by precedence.

        ``items`` alternates operands and ``(name, Fixity, line)`` triples.
        Uses the classic two-stack shunting algorithm; equal-precedence
        mixed associativity resolves to the left (with SML/NJ's behaviour).
        """
        operands: list[object] = [items[0]]
        operators: list[tuple[str, Fixity, int]] = []

        def reduce_top() -> None:
            name, _fix, line = operators.pop()
            right = operands.pop()
            left = operands.pop()
            operands.append(mk(name, left, right, line))

        index = 1
        while index < len(items):
            op = items[index]
            operand = items[index + 1]
            index += 2
            name, fix, line = op
            while operators:
                _tname, tfix, _tline = operators[-1]
                if tfix.precedence > fix.precedence or (
                    tfix.precedence == fix.precedence and fix.assoc == "left"
                ):
                    reduce_top()
                else:
                    break
            operators.append((name, fix, line))
            operands.append(operand)
        while operators:
            reduce_top()
        return operands[0]

    def _app_exp(self) -> ast.Exp:
        exp = self.atexp()
        while self._starts_atexp():
            arg = self.atexp()
            exp = ast.AppExp(exp, arg, getattr(exp, "line", 0))
        return exp

    def _starts_atexp(self) -> bool:
        tok = self.peek()
        if tok.kind in (
            TokKind.INT, TokKind.WORD, TokKind.REAL, TokKind.STRING,
            TokKind.CHAR, TokKind.LPAREN, TokKind.LBRACKET, TokKind.LBRACE,
        ):
            return True
        if tok.kind is TokKind.ID:
            return self.fixity.lookup(tok.text) is None
        if tok.kind is TokKind.SYMID:
            return self.fixity.lookup(tok.text) is None
        if tok.kind is TokKind.KEYWORD:
            return tok.text in ("let", "op", "#")
        return False

    def atexp(self) -> ast.Exp:
        tok = self.peek()
        line = tok.line
        if tok.kind is TokKind.INT:
            self.advance()
            return ast.IntExp(tok.value, line)
        if tok.kind is TokKind.WORD:
            self.advance()
            return ast.WordExp(tok.value, line)
        if tok.kind is TokKind.REAL:
            self.advance()
            return ast.RealExp(tok.value, line)
        if tok.kind is TokKind.STRING:
            self.advance()
            return ast.StringExp(tok.value, line)
        if tok.kind is TokKind.CHAR:
            self.advance()
            return ast.CharExp(tok.value, line)
        if tok.is_keyword("op"):
            self.advance()
            return ast.VarExp((self.op_ident(),), line)
        if tok.is_keyword("#"):
            self.advance()
            return ast.SelectorExp(self.label(), line)
        if tok.kind in (TokKind.ID, TokKind.SYMID):
            return ast.VarExp(self.longid(), line)
        if tok.is_keyword("let"):
            self.advance()
            outer = self.fixity
            self.fixity = outer.child()
            decs = self.dec_sequence(stop=("in",))
            self.expect_kw("in")
            body = self.exp()
            if self.at(TokKind.SEMICOLON):
                parts = [body]
                while self.eat(TokKind.SEMICOLON):
                    parts.append(self.exp())
                body = ast.SeqExp(parts, line)
            self.expect_kw("end")
            self.fixity = outer
            return ast.LetExp(decs, body, line)
        if tok.kind is TokKind.LPAREN:
            self.advance()
            if self.eat(TokKind.RPAREN):
                return ast.TupleExp([], line)  # unit
            first = self.exp()
            if self.at(TokKind.COMMA):
                parts = [first]
                while self.eat(TokKind.COMMA):
                    parts.append(self.exp())
                self.expect(TokKind.RPAREN)
                return ast.TupleExp(parts, line)
            if self.at(TokKind.SEMICOLON):
                parts = [first]
                while self.eat(TokKind.SEMICOLON):
                    parts.append(self.exp())
                self.expect(TokKind.RPAREN)
                return ast.SeqExp(parts, line)
            self.expect(TokKind.RPAREN)
            return first
        if tok.kind is TokKind.LBRACKET:
            self.advance()
            parts = []
            if not self.at(TokKind.RBRACKET):
                parts.append(self.exp())
                while self.eat(TokKind.COMMA):
                    parts.append(self.exp())
            self.expect(TokKind.RBRACKET)
            return ast.ListExp(parts, line)
        if tok.kind is TokKind.LBRACE:
            self.advance()
            fields = []
            if not self.at(TokKind.RBRACE):
                fields.append(self._exp_field())
                while self.eat(TokKind.COMMA):
                    fields.append(self._exp_field())
            self.expect(TokKind.RBRACE)
            return ast.RecordExp(fields, line)
        raise self.error(f"expected an expression, found {tok}")

    def _exp_field(self) -> tuple[str, ast.Exp]:
        label = self.label()
        self.expect_kw("=")
        return (label, self.exp())
