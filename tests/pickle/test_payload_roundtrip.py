"""A decoded payload is closed, and dehydrates back to its own bytes.

Decode every payload of a project in a new session, imports first.
Every environment frame a payload holds is parentless: a unit exports
frames built with no parent, so nothing it dehydrates reaches the
environment it was compiled in, and its stubs are the one pointer out.
Dehydrating each unit again with only its own stamps and the session's
extern registry gives the same bytes and the same export index:
encoder and decoder walk the graph in the same order.  Nothing else
checks the decoder against the encoder on real units.

Two projects: a generated layered one whose interfaces leak imported
types (so its payloads hold stubs), and a hand-written one covering the
module language -- functors closing over an import, top-level and
higher-order functor application, opaque and transparent ascription, a
datatype leaked through a signature, ``local``, nested structures and
exceptions.
"""

from repro.cm import CutoffBuilder, Project
from repro.pickle import Pickler
from repro.pickle.registry import CLASS_TO_TAG, STAMPED_CLASSES, TAG_TO_ENTRY
from repro.semant.env import Env
from repro.units import Session
from repro.units.pipeline import load_unit
from repro.workload import generate_workload, layered

MODULES = {
    "ord": """
signature ORD = sig type t val le : t * t -> bool end
signature SORTER = sig type t val sort : t list -> t list end
signature SHAPE = sig
  datatype shape = Circle of int | Square of int
  val area : shape -> int
end
structure Shape : SHAPE = struct
  datatype shape = Circle of int | Square of int
  fun area (Circle r) = 3 * r * r
    | area (Square s) = s * s
end
structure IntOrd = struct type t = int fun le (a, b) = a <= b end
""",
    "sorts": """
functor InsertionSort(P : ORD) : SORTER where type t = P.t = struct
  type t = P.t
  fun insert (x, nil) = [x]
    | insert (x, h :: rest) =
        if P.le (x, h) then x :: h :: rest else h :: insert (x, rest)
  fun sort l = foldl insert nil l
end
functor Areas(S : SORTER where type t = int) = struct
  val unit = Shape.Square 1
  fun sorted (shapes : Shape.shape list) = S.sort (map Shape.area shapes)
end
functor Tester(functor Mk(P : ORD) : SORTER where type t = P.t) = struct
  structure S = Mk(IntOrd)
  fun sortInts (l : int list) = S.sort l
end
""",
    "counters": """
signature COUNTER = sig
  type counter
  val zero : counter
  val tick : counter -> counter
  val read : counter -> int
end
structure Opaque :> COUNTER = struct
  type counter = int
  val zero = 0
  fun tick c = c + 1
  fun read c = c
end
structure Transparent : COUNTER = struct
  datatype counter = C of int
  val zero = C 0
  fun tick (C n) = C (n + 1)
  fun read (C n) = n
end
structure Outer = struct
  exception Empty
  exception Bad of Shape.shape
  local
    datatype hidden = H of int
    fun unH (H n) = n
  in
    fun safeHead nil = raise Empty
      | safeHead (x :: _) = unH (H x)
  end
  structure Inner = struct
    structure Deep = struct datatype t = Leaf | Node of t * t end
    fun size Deep.Leaf = 0
      | size (Deep.Node (l, r)) = 1 + size l + size r
  end
end
""",
    "app": """
structure IntSort = InsertionSort(IntOrd)
structure T = Tester(InsertionSort)
structure A = Areas(IntSort)
structure Main = struct
  val shapes = [Shape.Circle 1, Shape.Square 2]
  val sorted = A.sorted shapes
  val ints = T.sortInts [3, 1, 2]
  val count = Opaque.read (Opaque.tick Opaque.zero)
  val kept = Transparent.tick Transparent.zero
  val depth = Outer.Inner.size
    (Outer.Inner.Deep.Node (Outer.Inner.Deep.Leaf, Outer.Inner.Deep.Leaf))
  val head = Outer.safeHead [7] handle Outer.Empty => 0
end
""",
}


def held_frames(root, owned: frozenset[int]) -> list[Env]:
    """Every environment frame reachable from a decoded payload without
    entering an object another unit owns (what its stubs named)."""
    frames: list[Env] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
            continue
        tag = CLASS_TO_TAG.get(type(obj))
        if tag is None:
            continue  # a scalar, a stamp or a primitive tycon
        if isinstance(obj, STAMPED_CLASSES) and obj.stamp.id not in owned:
            continue
        if isinstance(obj, Env):
            frames.append(obj)
        stack.extend(getattr(obj, field) for field in TAG_TO_ENTRY[tag][1])
    return frames


def assert_payloads_are_closed(project: Project) -> dict[str, tuple]:
    """Check every payload of ``project``; returns, per unit, how many
    frames its payload holds and the units its stubs name."""
    builder = CutoffBuilder(project)
    builder.build()
    names = {unit.export_pid: name for name, unit in builder.units.items()}
    session = Session()
    live = {}
    out = {}
    for name in builder.last_graph.order:
        unit = builder.units[name]
        loaded = load_unit(name, unit.export_pid,
                           [live[dep] for dep, _pid in unit.imports],
                           unit.payload, session)
        live[name] = loaded
        root = (loaded.static_env, loaded.code)
        frames = held_frames(root, loaded.owned_stamp_ids)
        assert frames and all(f.parent is None for f in frames), name
        stubbed: set[str] = set()

        def extern(stamp_id, stubbed=stubbed):
            pid, index = session.extern(stamp_id)
            stubbed.add(names.get(pid, "basis"))
            return pid, index

        pickler = Pickler(local_stamp_ids=loaded.owned_stamp_ids,
                          extern=extern)
        assert pickler.run(root) == unit.payload, name
        assert pickler.export_index == loaded.export_index, name
        out[name] = (len(frames), stubbed)
    return out


def test_every_payload_dehydrates_back_to_its_bytes():
    w = generate_workload(layered([1, 6, 10, 6, 2], fan_in=3, seed=42),
                          helpers_per_unit=3, leak_types=True)
    assert len(assert_payloads_are_closed(w.project)) == 25


def test_module_language_payloads_are_closed():
    units = assert_payloads_are_closed(Project.from_sources(MODULES))
    assert sorted(units) == sorted(MODULES)
    # Each payload holds frames besides its export frame (structures,
    # signatures, functor closures), and the datatype ``ord`` leaks
    # reaches every dependent's payload as stubs.
    assert all(frames > 1 for frames, _stubbed in units.values())
    assert all("ord" in units[name][1]
               for name in ("sorts", "counters", "app"))
