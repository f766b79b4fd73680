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

#: Ceiling on a decoded varint's width.  Generous -- 64 Kibit covers any
#: value a real program pickles -- while keeping a corrupt stream of
#: continuation bytes from accumulating a multi-megabit bigint.
_MAX_VARINT_BITS = 1 << 16


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


def _unzigzag(value: int) -> int:
    return -( (value + 1) >> 1) if value & 1 else value >> 1


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
            out.extend(struct.pack(">d", obj))
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

        prim_table = prim_tycon_table()
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
        _, fields = TAG_TO_ENTRY[tag]
        for field in fields:
            value = getattr(obj, field)
            if field == "line" and self.normalize_lines:
                value = 0
            self._encode(value)
        _ = prim_table  # built lazily once; kept for clarity

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
    """One rehydration run over a byte stream."""

    def __init__(
        self,
        data: bytes,
        resolve=None,
        context_env: Env | None = None,
        stamps: StampGenerator | None = None,
    ):
        self._data = data
        self._pos = 0
        self._resolve = resolve
        self._context_env = context_env
        self._stamps = stamps or default_generator()
        self._memo: list[object] = []
        self._strings: list[str] = []
        self.export_index: list[object] = []
        #: Bytes consumed (telemetry: rehydration input size).
        self.bytes_in = len(data)

    def run(self):
        try:
            value = self._decode()
        except UnpickleError:
            raise
        except (IndexError, KeyError, TypeError, ValueError, struct.error,
                OverflowError, MemoryError, RecursionError) as err:
            # A corrupt stream must surface as UnpickleError, never as a
            # raw decoding exception: callers treat UnpickleError as a
            # cache miss, anything else as a bug.
            raise UnpickleError(
                f"corrupt bin stream ({type(err).__name__}: {err}) "
                f"at byte {self._pos} of {len(self._data)}") from err
        if self._pos != len(self._data):
            raise UnpickleError(
                f"trailing bytes in bin stream ({len(self._data) - self._pos})")
        return value

    # -- decoding ---------------------------------------------------------

    def _fail(self, message: str):
        raise UnpickleError(
            f"{message} (at byte {self._pos} of {len(self._data)})")

    def _read_byte(self) -> int:
        if self._pos >= len(self._data):
            self._fail("truncated bin stream")
        byte = self._data[self._pos]
        self._pos += 1
        return byte

    def _read_varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self._read_byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            # SML ints are arbitrary precision, so varints have no fixed
            # width -- but a continuation run this long is garbage, and
            # without a cap the accumulating bigint makes decoding a
            # corrupt megabyte stream quadratic.
            if shift > _MAX_VARINT_BITS:
                self._fail("varint too long; corrupt bin stream")

    def _read_bytes(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            self._fail("truncated bin stream")
        data = self._data[self._pos:self._pos + count]
        self._pos += count
        return data

    def _decode(self):
        tag = self._read_byte()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return _unzigzag(self._read_varint())
        if tag == _T_FLOAT:
            return struct.unpack(">d", self._read_bytes(8))[0]
        if tag == _T_STR:
            text = self._read_bytes(self._read_varint()).decode("utf-8")
            self._strings.append(text)
            return text
        if tag == _T_STRREF:
            index = self._read_varint()
            if index >= len(self._strings):
                self._fail(f"string back-reference #{index} out of range")
            return self._strings[index]
        if tag == _T_BYTES:
            return self._read_bytes(self._read_varint())
        if tag == _T_REF:
            index = self._read_varint()
            if index >= len(self._memo):
                self._fail(f"back-reference #{index} out of range")
            return self._memo[index]
        if tag == _T_TUPLE:
            return tuple(
                self._decode() for _ in range(self._read_varint()))
        if tag == _T_LIST:
            return [self._decode() for _ in range(self._read_varint())]
        if tag == _T_DICT:
            count = self._read_varint()
            out = {}
            for _ in range(count):
                key = self._decode()
                out[key] = self._decode()
            return out
        if tag == _T_PRIM:
            name = self._decode()
            table = prim_tycon_table()
            if name not in table:
                self._fail(f"unknown primitive tycon {name}")
            return table[name]
        if tag == _T_STAMP:
            stamp = self._stamps.fresh()
            self._memo.append(stamp)
            return stamp
        if tag == _T_STUB:
            return self._decode_stub()
        if tag == _T_CONTEXT:
            if self._context_env is None:
                self._fail(
                    "bin stream references its compilation context but "
                    "none was provided")
            return self._context_env
        if tag == _T_OBJ:
            return self._decode_object()
        self._fail(f"unknown tag {tag}")

    def _decode_stub(self):
        memo_slot = len(self._memo)
        self._memo.append(None)
        pid = self._decode()
        index = self._read_varint()
        if self._resolve is None:
            self._fail(
                f"bin stream has external reference ({pid}, {index}) but "
                f"no resolver was provided")
        try:
            obj = self._resolve(pid, index)
        except KeyError:
            raise UnresolvedStubError(
                pid,
                f"unresolved external reference: unit {pid} export "
                f"#{index} is not in the context") from None
        self._memo[memo_slot] = obj
        return obj

    def _decode_object(self):
        class_tag = self._read_varint()
        entry = TAG_TO_ENTRY.get(class_tag)
        if entry is None:
            self._fail(f"unknown class tag {class_tag}")
        cls, fields = entry
        shell = cls.__new__(cls)
        self._memo.append(shell)
        if isinstance(shell, STAMPED_CLASSES):
            self.export_index.append(shell)
        for field in fields:
            value = self._decode()
            if field == "stamp" and value is None and isinstance(
                    shell, STAMPED_CLASSES):
                value = self._stamps.fresh()
            object.__setattr__(shell, field, value)
        return shell


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
