"""Dehydration (pickling) and rehydration (unpickling) of semantic
object graphs.

Wire format: a tagged byte stream.  Every class instance is memoized
*shell-first* (the decoder allocates the object, registers it, then fills
fields), so cyclic graphs -- datatypes and their constructors -- roundtrip
exactly, and shared subgraphs are written once (back-references), keeping
bin files linear in the object graph.

Two pluggable boundaries implement the paper's dehydration:

- ``local_stamp_ids`` + ``extern``: a stamped object whose stamp the
  current unit does not own is written as ``STUB(pid, index)`` where
  ``extern(stamp_id)`` supplies the owning unit's pid and the object's
  export index within that unit's bin file.
- ``context_env_ids``: environment frames belonging to the compilation
  context (imports + basis layering) are written as a ``CONTEXT`` mark;
  the rehydrater splices the *current session's* context environment in
  their place.

Export indices: every locally-owned stamped object is assigned the next
index in encounter order.  The encoder and decoder perform the identical
traversal, so indices agree across sessions -- they are the "stamps" of
the paper's (pid, stamp) stubs.

Decoding is the larger cost (a link decodes every unit, a pool worker
every unit of a task's import closure that it does not hold), so
:meth:`Unpickler.run` is written for it: one recursive closure over
local state, so a value costs one Python call, a varint one more and a
byte none; a varint under 128 (nearly every length, index, class tag
and line number) is read without a loop; and each class tag's
``(class, fields, stamped)`` is one index into the registry's
``TAG_TO_ENTRY``.  Damage of any kind -- truncation, an unknown tag, a
varint wider than :data:`_MAX_VARINT_BITS`, a reference out of range --
raises :class:`UnpickleError` naming the byte offset.
"""

from __future__ import annotations

import struct

from repro.pickle.registry import (
    CLASS_TO_TAG,
    STAMPED_CLASSES,
    TAG_TO_ENTRY,
    prim_tycon_table,
)
from repro.semant.env import Env
from repro.semant.stamps import Stamp, StampGenerator, default_generator
from repro.semant.types import FlexRecord, TyVar, prune

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_REF = 6
_T_TUPLE = 7
_T_LIST = 8
_T_DICT = 9
_T_OBJ = 10
_T_STUB = 11
_T_CONTEXT = 12
_T_PRIM = 13
_T_STAMP = 14
_T_BYTES = 15
_T_STRREF = 16

#: A FLOAT's payload: eight bytes, a big-endian IEEE double.
_FLOAT = struct.Struct(">d")

#: Ceiling on a decoded varint's width.  Generous -- 64 Kibit covers any
#: value a real program pickles -- while keeping a corrupt stream of
#: continuation bytes from accumulating a multi-megabit bigint.
_MAX_VARINT_BITS = 1 << 16


# The decoder fills a shell's fields with plain ``setattr``.
assert all(cls.__setattr__ is object.__setattr__
           for cls, _, _ in TAG_TO_ENTRY)


def _must_memoize(obj) -> bool:
    """In the tree-mode (share=False) ablation, only the objects that can
    participate in reference *cycles* stay memoized -- datatypes (which
    point to constructors pointing back) and stamps.  Everything else is
    re-serialized on every encounter, exhibiting the blowup."""
    from repro.semant.types import DatatypeTycon

    return isinstance(obj, (Stamp, DatatypeTycon))


class PickleError(Exception):
    """Raised when an object graph cannot be dehydrated (unresolved type
    variable, unregistered class, dangling external reference)."""


class UnpickleError(Exception):
    """Raised when a bin file cannot be rehydrated (stale or missing
    context, corrupt stream)."""


class UnresolvedStubError(UnpickleError):
    """A stub names a ``(pid, index)`` the session does not hold.

    The stream itself decoded fine up to the stub, so for a payload that
    passed its digest check this means the unit was compiled against an
    interface that is no longer live (superseded, or not loaded in this
    session): a stale record, not damage."""

    def __init__(self, pid: str, message: str):
        super().__init__(message)
        self.pid = pid


def _write_varint(out: bytearray, value: int) -> None:
    assert value >= 0
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


class Pickler:
    """One dehydration run over a root object."""

    def __init__(
        self,
        local_stamp_ids: set[int] | frozenset[int] = frozenset(),
        extern=None,
        context_env_ids: set[int] | frozenset[int] = frozenset(),
        normalize_lines: bool = False,
        share: bool = True,
        raw_stamps: bool = False,
    ):
        """``share=False`` and ``raw_stamps=True`` are *ablations* used by
        the benchmarks to demonstrate why the paper's design needs DAG
        sharing (§4) and stamp alpha-conversion (§5) respectively:

        - ``share=False`` memoizes only stamped objects (the minimum to
          terminate on cyclic datatypes); everything else is written as a
          tree, exhibiting the exponential blowup the paper warns about.
        - ``raw_stamps=True`` writes each stamp's raw session-local id
          into the stream, so the bytes (and any hash of them) differ
          between sessions that elaborated the same source.  Streams
          written this way are for hashing experiments only, not for
          rehydration.
        """
        self.local_stamp_ids = local_stamp_ids
        self.extern = extern
        self.context_env_ids = context_env_ids
        self.normalize_lines = normalize_lines
        self.share = share
        self.raw_stamps = raw_stamps
        self._out = bytearray()
        self._memo: dict[int, int] = {}
        self._alive: list[object] = []  # keeps ids stable
        self._slots = 0  # decoder-aligned DEF counter
        self._strings: dict[str, int] = {}
        #: Locally-owned stamped objects in encounter order.
        self.export_index: list[object] = []
        #: Bytes produced by the last :meth:`run` (telemetry: the bin
        #: payload size this dehydration will cost on disk).
        self.bytes_out = 0

    def run(self, root) -> bytes:
        self._encode(root)
        self.bytes_out = len(self._out)
        return bytes(self._out)

    # -- encoding ---------------------------------------------------------

    def _encode(self, obj) -> None:
        out = self._out
        if obj is None:
            out.append(_T_NONE)
            return
        if obj is True:
            out.append(_T_TRUE)
            return
        if obj is False:
            out.append(_T_FALSE)
            return
        if type(obj) is int:
            out.append(_T_INT)
            _write_varint(out, _zigzag(obj))
            return
        if type(obj) is float:
            out.append(_T_FLOAT)
            out.extend(_FLOAT.pack(obj))
            return
        if type(obj) is str:
            idx = self._strings.get(obj)
            if idx is not None:
                out.append(_T_STRREF)
                _write_varint(out, idx)
                return
            self._strings[obj] = len(self._strings)
            data = obj.encode("utf-8")
            out.append(_T_STR)
            _write_varint(out, len(data))
            out.extend(data)
            return
        if type(obj) is bytes:
            out.append(_T_BYTES)
            _write_varint(out, len(obj))
            out.extend(obj)
            return
        if type(obj) is tuple:
            out.append(_T_TUPLE)
            _write_varint(out, len(obj))
            for item in obj:
                self._encode(item)
            return
        if type(obj) is list:
            out.append(_T_LIST)
            _write_varint(out, len(obj))
            for item in obj:
                self._encode(item)
            return
        if type(obj) is dict:
            out.append(_T_DICT)
            _write_varint(out, len(obj))
            try:
                items = sorted(obj.items())  # canonical key order
            except TypeError:
                items = list(obj.items())
            for key, value in items:
                self._encode(key)
                self._encode(value)
            return
        self._encode_object(obj)

    def _encode_object(self, obj) -> None:
        out = self._out
        if isinstance(obj, (TyVar, FlexRecord)):
            resolved = prune(obj)
            if resolved is obj:
                raise PickleError(
                    f"cannot dehydrate an unresolved type variable "
                    f"{obj!r}; the unit exports an incompletely inferred "
                    f"type")
            self._encode(resolved)
            return

        memo_idx = self._memo.get(id(obj))
        if memo_idx is not None:
            out.append(_T_REF)
            _write_varint(out, memo_idx)
            return

        cls = type(obj)
        if cls.__name__ == "PrimTycon":
            out.append(_T_PRIM)
            self._encode(obj.name)
            return

        if isinstance(obj, Stamp):
            # A stamp reached directly (e.g. a Sig's flex list).  Stamps
            # carry no payload: identity is the memo index, which doubles
            # as the paper's alpha-converted "provisional pid".  (The
            # raw_stamps ablation writes the session-local id instead,
            # deliberately breaking cross-session stability.)
            self._remember(obj)
            out.append(_T_STAMP)
            if self.raw_stamps:
                _write_varint(out, obj.id)
            return

        if isinstance(obj, STAMPED_CLASSES):
            if obj.stamp.id not in self.local_stamp_ids:
                self._encode_stub(obj)
                return
            self.export_index.append(obj)

        if isinstance(obj, Env) and id(obj) in self.context_env_ids:
            out.append(_T_CONTEXT)
            return

        tag = CLASS_TO_TAG.get(cls)
        if tag is None:
            raise PickleError(
                f"object of class {cls.__module__}.{cls.__name__} is not "
                f"registered for dehydration: {obj!r}")
        self._remember(obj)
        out.append(_T_OBJ)
        _write_varint(out, tag)
        for field in TAG_TO_ENTRY[tag][1]:
            value = getattr(obj, field)
            if field == "line" and self.normalize_lines:
                value = 0
            self._encode(value)

    def _encode_stub(self, obj) -> None:
        if self.extern is None:
            raise PickleError(
                f"external reference to {obj!r} but no extern registry "
                f"was provided")
        try:
            pid, index = self.extern(obj.stamp.id)
        except KeyError:
            raise PickleError(
                f"dangling external reference: {obj!r} (stamp "
                f"{obj.stamp.id}) is owned by no registered unit") from None
        self._remember(obj)
        self._out.append(_T_STUB)
        self._encode(pid)
        _write_varint(self._out, index)

    def _remember(self, obj) -> None:
        slot = self._slots
        self._slots += 1
        if self.share or _must_memoize(obj):
            self._memo[id(obj)] = slot
            self._alive.append(obj)


class Unpickler:
    """One rehydration run over a byte stream (see the module notes:
    :meth:`run` is the whole decoder)."""

    def __init__(
        self,
        data: bytes,
        resolve=None,
        context_env: Env | None = None,
        stamps: StampGenerator | None = None,
    ):
        self._data = data
        self._resolve = resolve
        self._context_env = context_env
        self._stamps = stamps or default_generator()
        self.export_index: list[object] = []
        #: Bytes consumed (telemetry: rehydration input size).
        self.bytes_in = len(data)

    def run(self):
        """Decode the stream.  Damage of any kind raises
        :class:`UnpickleError` naming the byte offset it was met at: a
        caller treats that as a cache miss, anything else as a bug."""
        data = self._data
        end = len(data)
        resolve = self._resolve
        context_env = self._context_env
        fresh = self._stamps.fresh
        exports = self.export_index
        memo: list[object] = []
        strings: list[str] = []
        entries = TAG_TO_ENTRY
        prims = prim_tycon_table()
        pos = 0

        def fail(message: str):
            raise UnpickleError(f"{message} (at byte {pos} of {end})")

        def uvarint() -> int:
            """The unsigned varint at ``pos``; nearly every one (a
            length, an index, a class tag, a line number) is one byte."""
            nonlocal pos
            value = data[pos]
            pos += 1
            if value < 0x80:
                return value
            value &= 0x7F
            shift = 7
            while True:
                byte = data[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    return value
                shift += 7
                # SML ints are arbitrary precision, so varints have no
                # fixed width -- but a continuation run this long is
                # garbage, and without a cap the accumulating bigint
                # makes decoding a corrupt megabyte stream quadratic.
                if shift > _MAX_VARINT_BITS:
                    fail("varint too long; corrupt bin stream")

        def take(count: int) -> bytes:
            nonlocal pos
            if pos + count > end:
                fail("truncated bin stream")
            pos += count
            return data[pos - count:pos]

        def decode():
            nonlocal pos
            tag = data[pos]
            pos += 1
            if tag == _T_OBJ:
                index = uvarint()
                if index >= len(entries):
                    fail(f"unknown class tag {index}")
                cls, fields, stamped = entries[index]
                shell = cls.__new__(cls)
                memo.append(shell)
                if stamped:
                    exports.append(shell)
                    for field in fields:
                        value = decode()
                        if value is None and field == "stamp":
                            value = fresh()
                        setattr(shell, field, value)
                else:
                    for field in fields:
                        setattr(shell, field, decode())
                return shell
            if tag == _T_INT:
                value = uvarint()
                return -((value + 1) >> 1) if value & 1 else value >> 1
            if tag == _T_STRREF:
                index = uvarint()
                if index >= len(strings):
                    fail(f"string back-reference #{index} out of range")
                return strings[index]
            if tag == _T_TUPLE or tag == _T_LIST:
                count = uvarint()
                items = []
                for _ in range(count):
                    items.append(decode())
                return tuple(items) if tag == _T_TUPLE else items
            if tag == _T_PRIM:
                name = decode()
                if name not in prims:
                    fail(f"unknown primitive tycon {name}")
                return prims[name]
            if tag == _T_NONE:
                return None
            if tag == _T_STR:
                count = uvarint()
                text = take(count).decode("utf-8")
                strings.append(text)
                return text
            if tag == _T_DICT:
                count = uvarint()
                out = {}
                for _ in range(count):
                    key = decode()
                    out[key] = decode()
                return out
            if tag == _T_REF:
                index = uvarint()
                if index >= len(memo):
                    fail(f"back-reference #{index} out of range")
                return memo[index]
            if tag == _T_FALSE:
                return False
            if tag == _T_TRUE:
                return True
            if tag == _T_STAMP:
                stamp = fresh()
                memo.append(stamp)
                return stamp
            if tag == _T_STUB:
                slot = len(memo)
                memo.append(None)
                pid = decode()
                index = uvarint()
                if resolve is None:
                    fail(f"bin stream has external reference ({pid}, "
                         f"{index}) but no resolver was provided")
                try:
                    obj = resolve(pid, index)
                except KeyError:
                    raise UnresolvedStubError(
                        pid,
                        f"unresolved external reference: unit {pid} "
                        f"export #{index} is not in the context (at byte "
                        f"{pos} of {end})") from None
                memo[slot] = obj
                return obj
            if tag == _T_CONTEXT:
                if context_env is None:
                    fail("bin stream references its compilation context "
                         "but none was provided")
                return context_env
            if tag == _T_FLOAT:
                return _FLOAT.unpack(take(8))[0]
            if tag == _T_BYTES:
                count = uvarint()
                return take(count)
            fail(f"unknown tag {tag}")

        try:
            value = decode()
        except UnpickleError:
            raise
        except IndexError as err:
            if pos >= end:
                # Reading past the end is the only way to index out of
                # the stream: every other index is range-checked.
                raise UnpickleError(
                    f"truncated bin stream (at byte {pos} of {end})"
                ) from err
            raise UnpickleError(
                f"corrupt bin stream (IndexError: {err}) "
                f"at byte {pos} of {end}") from err
        except (KeyError, TypeError, ValueError, struct.error,
                OverflowError, MemoryError, RecursionError) as err:
            raise UnpickleError(
                f"corrupt bin stream ({type(err).__name__}: {err}) "
                f"at byte {pos} of {end}") from err
        finally:
            # ``decode`` reaches itself through its closure cell: unbind
            # it, so reference counting frees the decoder's state
            # instead of leaving it to the cyclic collector.
            decode = None
        if pos != end:
            raise UnpickleError(
                f"trailing bytes in bin stream ({end - pos})")
        return value


def dehydrate(
    root,
    local_stamp_ids=frozenset(),
    extern=None,
    context_env_ids=frozenset(),
    normalize_lines: bool = False,
) -> tuple[bytes, list[object]]:
    """Dehydrate ``root``; returns (bytes, export index)."""
    pickler = Pickler(local_stamp_ids, extern, context_env_ids,
                      normalize_lines)
    data = pickler.run(root)
    return data, pickler.export_index


def rehydrate(
    data: bytes,
    resolve=None,
    context_env: Env | None = None,
    stamps: StampGenerator | None = None,
) -> tuple[object, list[object]]:
    """Rehydrate a byte stream; returns (root, export index)."""
    unpickler = Unpickler(data, resolve, context_env, stamps)
    root = unpickler.run()
    return root, unpickler.export_index


def context_chain_ids(env: Env | None) -> frozenset[int]:
    """The ids of every frame in an environment chain -- used to mark the
    compilation context as a dehydration boundary."""
    ids = set()
    while env is not None:
        ids.add(id(env))
        env = env.parent
    return frozenset(ids)
