"""The initial basis: primitives plus an SML-language prelude.

Like SML/NJ, most of the pervasive environment is written in the source
language and *bootstrapped through the compiler itself* -- every session
begins by parsing and elaborating :data:`PRELUDE`, and the first run of
any code evaluates it.  The result is a :class:`Basis` pairing a static
environment with the matching dynamic environment; compilation units are
compiled and executed relative to it.  Compiling needs only the static
half, so a build that does not link never loads the evaluator.

The basis plays the role of the paper's "pervasive" unit: its stamps are
owned by the pseudo-pid ``BASIS_PID`` so that dehydration can stub
references to pervasive objects.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.elab.topdec import elaborate_decs
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.semant import prim
from repro.semant.env import Env, stamp_index

if TYPE_CHECKING:  # the dynamic semantics load on the first run
    from repro.dynamic.values import DynEnv

#: The reserved pid (hex digest string) of the pervasive basis.
BASIS_PID = "0" * 32

PRELUDE = r"""
(* ---- control and combinators -------------------------------------- *)
fun not b = if b then false else true
fun (f o g) x = f (g x)
fun a before b = a

(* ---- options -------------------------------------------------------- *)
fun getOpt (opt, d) = case opt of SOME x => x | NONE => d
fun isSome opt = case opt of SOME _ => true | NONE => false
fun valOf opt = case opt of SOME x => x | NONE => raise Option

(* ---- lists ----------------------------------------------------------- *)
fun rev l =
  let fun go (nil, acc) = acc
        | go (h :: t, acc) = go (t, h :: acc)
  in go (l, nil) end

fun map f =
  let fun go nil = nil
        | go (h :: t) = f h :: go t
  in go end

fun app f =
  let fun go nil = ()
        | go (h :: t) = (f h; go t)
  in go end

fun foldl f b l =
  let fun go (nil, acc) = acc
        | go (h :: t, acc) = go (t, f (h, acc))
  in go (l, b) end

fun foldr f b l = foldl f b (rev l)

fun length l = foldl (fn (_, n) => n + 1) 0 l

fun hd l = case l of nil => raise Empty | h :: _ => h
fun tl l = case l of nil => raise Empty | _ :: t => t
fun null l = case l of nil => true | _ => false

fun l @ r = case l of nil => r | h :: t => h :: (t @ r)

structure List = struct
  exception Empty
  val map = map
  val app = app
  val foldl = foldl
  val foldr = foldr
  val rev = rev
  val length = length
  val hd = hd
  val tl = tl
  val null = null
  fun filter pred l =
    foldr (fn (x, acc) => if pred x then x :: acc else acc) nil l
  fun partition pred l =
    foldr (fn (x, (yes, no)) =>
             if pred x then (x :: yes, no) else (yes, x :: no))
          (nil, nil) l
  fun exists pred l =
    case l of nil => false | h :: t => pred h orelse exists pred t
  fun all pred l =
    case l of nil => true | h :: t => pred h andalso all pred t
  fun find pred l =
    case l of
      nil => NONE
    | h :: t => if pred h then SOME h else find pred t
  fun nth (l, n) =
    if n < 0 then raise Subscript
    else case l of
           nil => raise Subscript
         | h :: t => if n = 0 then h else nth (t, n - 1)
  fun take (l, n) =
    if n < 0 then raise Subscript
    else if n = 0 then nil
    else case l of nil => raise Subscript | h :: t => h :: take (t, n - 1)
  fun drop (l, n) =
    if n < 0 then raise Subscript
    else if n = 0 then l
    else case l of nil => raise Subscript | _ :: t => drop (t, n - 1)
  fun concat ls = foldr (fn (l, acc) => l @ acc) nil ls
  fun tabulate (n, f) =
    let fun go i = if i >= n then nil else f i :: go (i + 1)
    in if n < 0 then raise Size else go 0 end
  fun zip (l1, l2) =
    case (l1, l2) of
      (a :: t1, b :: t2) => (a, b) :: zip (t1, t2)
    | _ => nil
  fun last l =
    case l of nil => raise Empty | x :: nil => x | _ :: t => last t
  fun mapPartial f l =
    foldr (fn (x, acc) => case f x of SOME y => y :: acc | NONE => acc)
          nil l
end

structure Option = struct
  exception Option
  val getOpt = getOpt
  val isSome = isSome
  val valOf = valOf
  fun map f opt = case opt of SOME x => SOME (f x) | NONE => NONE
  fun mapPartial f opt = case opt of SOME x => f x | NONE => NONE
  fun filter pred x = if pred x then SOME x else NONE
  fun join opt = case opt of SOME inner => inner | NONE => NONE
  fun app f opt = case opt of SOME x => (f x; ()) | NONE => ()
end

structure Bool = struct
  val not = not
  fun toString b = if b then "true" else "false"
end

(* ---- integers beyond the primitives --------------------------------- *)
fun min (a, b) = if a < b then a else b : int
fun max (a, b) = if a > b then a else b : int

(* ---- characters ------------------------------------------------------ *)
structure Char = struct
  val ord = ord
  val chr = chr
  fun isDigit c = ord c >= 48 andalso ord c <= 57
  fun isUpper c = ord c >= 65 andalso ord c <= 90
  fun isLower c = ord c >= 97 andalso ord c <= 122
  fun isAlpha c = isUpper c orelse isLower c
  fun isAlphaNum c = isAlpha c orelse isDigit c
  fun isSpace c = ord c = 32 orelse (ord c >= 9 andalso ord c <= 13)
  fun toUpper c = if isLower c then chr (ord c - 32) else c
  fun toLower c = if isUpper c then chr (ord c + 32) else c
  fun contains s c = List.exists (fn x => x = c) (explode s)
  (* Re-export the primitive comparisons last: binding them earlier
     would shadow the *integer* operators the functions above use. *)
  val op< = Char.<
  val op<= = Char.<=
  val compare = Char.compare
end

(* ---- strings --------------------------------------------------------- *)
structure String = struct
  val size = size
  val substring = substring
  val concat = concat
  val implode = implode
  val explode = explode
  val str = str
  fun concatWith sep l =
    case l of
      nil => ""
    | x :: nil => x
    | h :: t => h ^ sep ^ concatWith sep t
  fun map f s = implode (List.map f (explode s))
  fun translate f s = concat (List.map f (explode s))
  fun isPrefix p s =
    size p <= size s andalso substring (s, 0, size p) = p
  fun isSuffix p s =
    size p <= size s andalso substring (s, size s - size p, size p) = p
  fun fields pred s =
    let fun go (nil, cur, acc) = rev (implode (rev cur) :: acc)
          | go (c :: cs, cur, acc) =
              if pred c then go (cs, nil, implode (rev cur) :: acc)
              else go (cs, c :: cur, acc)
    in go (explode s, nil, nil) end
  fun tokens pred s =
    List.filter (fn t => size t > 0) (fields pred s)
  (* Primitive re-exports last (see Char above for why). *)
  val op< = String.<
  val op<= = String.<=
  val op> = String.>
  val op>= = String.>=
  val compare = String.compare
  val sub = String.sub
end

(* ---- pairs of lists --------------------------------------------------- *)
structure ListPair = struct
  fun zip (l1, l2) = List.zip (l1, l2)
  fun unzip l =
    foldr (fn ((a, b), (xs, ys)) => (a :: xs, b :: ys)) (nil, nil) l
  fun map f pair = List.map f (zip pair)
  fun app f pair = List.app f (zip pair)
  fun all pred pair = List.all pred (zip pair)
  fun exists pred pair = List.exists pred (zip pair)
  fun foldl f b pair =
    List.foldl (fn ((x, y), acc) => f (x, y, acc)) b (zip pair)
end
"""

# The List structure redeclares exception Empty; keep the pervasive one
# referenced so handlers over `Empty` at top level still match the one
# raised by hd/tl (they use the pervasive Empty from the primitive env).


class Basis:
    """The pervasive environment pair.

    Attributes:
        static_env: layered static environment (primitives + prelude).
        dyn_env: the matching dynamic environment, built on first read
            (compiling never reads it).
        owned_stamp_ids: stamps owned by the basis pseudo-unit.
        stamp_idx: stamp id -> semantic object, for rehydration.
    """

    def __init__(self, static_env: Env, owned_stamp_ids: set[int],
                 prelude: list[ast.Dec], print_sink=None):
        self.static_env = static_env
        self.owned_stamp_ids = owned_stamp_ids
        self.stamp_idx = stamp_index(static_env)
        #: The elaborated prelude and the primitives' print sink, which
        #: the first read of :attr:`dyn_env` evaluates.
        self._prelude = prelude
        self._print_sink = print_sink
        self._dyn_env: DynEnv | None = None
        self._dyn_lock = threading.Lock()

    @property
    def dyn_env(self) -> DynEnv:
        """The primitive dynamic environment with the prelude evaluated
        into a child frame.  Built once, by the first reader (under a
        lock, so two threads get the same one): every read returns that
        environment."""
        if self._dyn_env is None:
            with self._dyn_lock:
                if self._dyn_env is None:
                    from repro.dynamic.builtins import primitive_dynenv
                    from repro.dynamic.evaluate import eval_decs

                    env = primitive_dynenv(self._print_sink).child()
                    eval_decs(self._prelude, env)
                    self._dyn_env = env
        return self._dyn_env

    def child_envs(self) -> tuple[Env, DynEnv]:
        """Fresh frames layered on the basis, for a client session."""
        return self.static_env.child(), self.dyn_env.child()


_CACHED: Basis | None = None


def make_basis(print_sink=None, fresh: bool = False) -> Basis:
    """Build (or return the cached) initial basis.

    The basis is deterministic and shared across the process by default;
    ``fresh=True`` forces a rebuild (used by tests that replace the print
    sink).  Only the static half is built here: the prelude is parsed and
    elaborated now and evaluated when :attr:`Basis.dyn_env` is first
    read.
    """
    global _CACHED
    if _CACHED is not None and not fresh and print_sink is None:
        return _CACHED

    static_env = prim.primitive_static_env()
    decs = parse_program(PRELUDE)
    prelude_static, elaborator = elaborate_decs(decs, static_env)

    full_static = prelude_static.atop(static_env)
    owned = set(elaborator.new_stamps)
    owned.update(
        tycon.stamp.id
        for tycon in (prim.BOOL, prim.LIST, prim.OPTION, prim.ORDER)
    )
    owned.update(
        struct.stamp.id for struct in prim.primitive_structures().values()
    )
    basis = Basis(full_static, owned, decs, print_sink)
    if print_sink is None and not fresh:
        _CACHED = basis
    return basis
