"""Signature matching.

``match_structure`` checks an actual structure against an elaborated
signature and produces the constrained view:

- *transparent* (``S : SIG``): flexible tycons are realized to the
  actual's tycons, so type identities leak through to clients -- this is
  exactly the paper's Figure 1 behaviour (``FSort.t = int list`` is
  visible even though ``SORT`` only says ``type t``), and the reason SML
  has pervasive inter-implementation dependencies.
- *opaque* (``S :> SIG``): flexible tycons are realized to brand-new
  abstract tycons, hiding the implementation -- the paper's §10
  "alternatives" style that weakens dependencies.
"""

from __future__ import annotations

from repro.elab.errors import ElabError
from repro.elab.realize import (
    Realization,
    fresh_abstract_realization,
    realize_env,
    realize_type,
)
from repro.elab.unify import equal_types, unify
from repro.semant.env import Env, Sig, Structure
from repro.semant.types import (
    AbstractTycon,
    ConType,
    DatatypeTycon,
    PolyType,
    TypeFun,
    Type,
    instantiate,
    subst_bound,
)


def match_structure(el, actual: Structure, sig: Sig, opaque: bool,
                    line: int = 0) -> Structure:
    """Match ``actual`` against ``sig``; return the constrained structure.

    ``el`` is the :class:`repro.elab.core.Elaborator` (for fresh stamps).
    Raises :class:`ElabError` on any mismatch.
    """
    flex_ids = {stamp.id for stamp in sig.flex}
    rlz: Realization = {}
    _realize_tycons(actual.env, sig.env, flex_ids, rlz, sig.name, line)
    _check_specs(actual.env, sig.env, rlz, sig.name, line)
    if opaque:
        flex_tycons = _flex_tycons(sig)
        out_rlz = fresh_abstract_realization(flex_tycons, el.fresh_stamp)
        # Equality for opaque eqtype specs was verified against the actual
        # by _realize_tycons; the fresh abstract tycons carry the spec's
        # eq attribute already.
        result_env = realize_env(sig.env, out_rlz, el.fresh_stamp)
    else:
        result_env = realize_env(sig.env, rlz, el.fresh_stamp)
    return Structure(el.fresh_stamp(), actual.name, result_env)


def _flex_tycons(sig: Sig) -> list:
    """The flexible tycon objects of a signature, in spec order."""
    found: dict[int, object] = {}
    _collect_flex_tycons(sig.env, {stamp.id for stamp in sig.flex}, found)
    return list(found.values())


def _collect_flex_tycons(env: Env, flex_ids: set[int],
                         found: dict[int, object]) -> None:
    for tycon in env.tycons.values():
        stamp = getattr(tycon, "stamp", None)
        if stamp is not None and stamp.id in flex_ids:
            found.setdefault(stamp.id, tycon)
    for struct in env.structures.values():
        _collect_flex_tycons(struct.env, flex_ids, found)


def _realize_tycons(actual: Env, formal: Env, flex_ids: set[int],
                    rlz: Realization, signame: str, line: int) -> None:
    """First pass: walk type specs (and substructures) building the
    realization of flexible tycons from the actual structure."""
    for name, ftycon in formal.tycons.items():
        atycon = actual.tycons.get(name)
        if atycon is None:
            raise ElabError(
                f"signature {signame}: type {name} is not present in the "
                f"structure", line, 0)
        f_arity = ftycon.arity
        a_arity = atycon.arity
        if f_arity != a_arity:
            raise ElabError(
                f"signature {signame}: type {name} has arity {a_arity}, "
                f"spec requires {f_arity}", line, 0)
        stamp = getattr(ftycon, "stamp", None)
        if stamp is not None and stamp.id in flex_ids:
            if stamp.id in rlz:
                if not _same_tycon_meaning(rlz[stamp.id], atycon):
                    raise ElabError(
                        f"signature {signame}: inconsistent realization of "
                        f"type {name} (sharing violated)", line, 0)
            else:
                rlz[stamp.id] = atycon
            if _spec_requires_equality(ftycon) and not _admits_eq(atycon):
                raise ElabError(
                    f"signature {signame}: eqtype {name} matched by a type "
                    f"that does not admit equality", line, 0)
    for name, fstruct in formal.structures.items():
        astruct = actual.structures.get(name)
        if astruct is None:
            raise ElabError(
                f"signature {signame}: structure {name} is not present",
                line, 0)
        _realize_tycons(astruct.env, fstruct.env, flex_ids, rlz, signame,
                        line)


def _check_specs(actual: Env, formal: Env, rlz: Realization, signame: str,
                 line: int) -> None:
    """Second pass: with the realization known, check definitional type
    specs, datatype specs, and value specs."""
    for name, ftycon in formal.tycons.items():
        atycon = actual.tycons[name]
        if isinstance(ftycon, TypeFun):
            if not _tycon_equals_fun(atycon, ftycon, rlz):
                raise ElabError(
                    f"signature {signame}: type {name} does not equal its "
                    f"spec definition", line, 0)
        elif isinstance(ftycon, DatatypeTycon):
            _check_datatype_spec(name, atycon, ftycon, rlz, signame, line)
    for name, fstruct in formal.structures.items():
        _check_specs(actual.structures[name].env, fstruct.env, rlz,
                     signame, line)
    for name, fval in formal.values.items():
        aval = actual.values.get(name)
        if aval is None:
            raise ElabError(
                f"signature {signame}: value {name} is not present in the "
                f"structure", line, 0)
        spec_scheme = realize_type(fval.scheme, rlz)
        if not scheme_matches(aval.scheme, spec_scheme):
            raise ElabError(
                f"signature {signame}: value {name} : {aval.scheme!r} does "
                f"not match spec {spec_scheme!r}", line, 0)
        if fval.con is not None:
            if aval.con is None:
                raise ElabError(
                    f"signature {signame}: {name} must be a constructor",
                    line, 0)
            if fval.con.is_exn and not aval.con.is_exn:
                raise ElabError(
                    f"signature {signame}: {name} must be an exception",
                    line, 0)


def _check_datatype_spec(name: str, atycon, ftycon: DatatypeTycon,
                         rlz: Realization, signame: str, line: int) -> None:
    if not isinstance(atycon, DatatypeTycon):
        raise ElabError(
            f"signature {signame}: {name} must be a datatype", line, 0)
    formal_cons = {c.name: c for c in ftycon.constructors}
    actual_cons = {c.name: c for c in atycon.constructors}
    if set(formal_cons) != set(actual_cons):
        raise ElabError(
            f"signature {signame}: datatype {name} constructors differ "
            f"({sorted(actual_cons)} vs spec {sorted(formal_cons)})",
            line, 0)
    for cname, fcon in formal_cons.items():
        acon = actual_cons[cname]
        if fcon.has_arg != acon.has_arg:
            raise ElabError(
                f"signature {signame}: constructor {cname} arity differs "
                f"from spec", line, 0)
        spec_scheme = realize_type(fcon.scheme, rlz)
        if not _schemes_equal(acon.scheme, spec_scheme):
            raise ElabError(
                f"signature {signame}: constructor {cname} type differs "
                f"from spec", line, 0)


def _same_tycon_meaning(first, second) -> bool:
    """Are two realizations of one flexible stamp the same type?"""
    if first is second:
        return True
    return _tycons_equal_as_funs(first, second)


def _tycons_equal_as_funs(first, second) -> bool:
    arity = first.arity
    if arity != second.arity:
        return False
    skolems = tuple(
        ConType(AbstractTycon(_skolem_stamp(), f"?s{i}", 0)) for i in
        range(arity))
    return equal_types(_apply_any(first, skolems), _apply_any(second, skolems))


def _tycon_equals_fun(actual, fun: TypeFun, rlz: Realization) -> bool:
    realized_body = realize_type(fun.body, rlz)
    skolems = tuple(
        ConType(AbstractTycon(_skolem_stamp(), f"?s{i}", 0)) for i in
        range(fun.arity))
    formal = subst_bound(realized_body, skolems)
    if actual.arity != fun.arity:
        return False
    return equal_types(_apply_any(actual, skolems), formal)


def _apply_any(tycon, args: tuple) -> Type:
    if isinstance(tycon, TypeFun):
        return subst_bound(tycon.body, args)
    return ConType(tycon, args)


_SKOLEM_COUNTER = [0]


def _skolem_stamp():
    from repro.semant.stamps import Stamp

    _SKOLEM_COUNTER[0] -= 1
    return Stamp(_SKOLEM_COUNTER[0])


def _spec_requires_equality(tycon) -> bool:
    return isinstance(tycon, AbstractTycon) and tycon.eq


def _admits_eq(tycon) -> bool:
    if isinstance(tycon, TypeFun):
        # A type function admits equality when its body does for eq args.
        from repro.semant.types import _admits_eq_structural

        return _admits_eq_structural(tycon.body)
    return tycon.admits_equality()


def scheme_matches(actual_scheme: Type, spec_scheme: Type) -> bool:
    """Is the actual scheme at least as general as the spec's?

    Instantiates the spec with skolem tycons and the actual with fresh
    unification variables, then unifies.
    """
    if isinstance(spec_scheme, PolyType):
        skolems = tuple(
            ConType(
                AbstractTycon(_skolem_stamp(), f"?v{i}", 0,
                              eq=spec_scheme.eqflags[i]))
            for i in range(spec_scheme.arity)
        )
        spec_body = subst_bound(spec_scheme.body, skolems)
    else:
        spec_body = spec_scheme
    actual_inst = instantiate(actual_scheme, level=1 << 30)
    try:
        unify(actual_inst, spec_body)
        return True
    except ElabError:
        return False


def _schemes_equal(actual: Type, spec: Type) -> bool:
    """Exact scheme equality (used for datatype constructor specs)."""
    a_poly = isinstance(actual, PolyType)
    s_poly = isinstance(spec, PolyType)
    if a_poly != s_poly:
        return False
    if a_poly:
        if actual.arity != spec.arity:
            return False
        skolems = tuple(
            ConType(AbstractTycon(_skolem_stamp(), f"?c{i}", 0))
            for i in range(actual.arity))
        return equal_types(subst_bound(actual.body, skolems),
                           subst_bound(spec.body, skolems))
    return equal_types(actual, spec)
