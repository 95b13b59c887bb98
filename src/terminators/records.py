"""How record dataclasses map to JSON and back.

A record is written as an object of its fields in declaration order, each
under its name or the key its ``field(metadata={"key": ...})`` gives. A
SourceRef becomes its citation string (``name:start-end``), an enum its
value, and a tuple or list a list; fields declared ``compare=False`` are
not part of a record's identity and are left out. Reading decodes each
value through its field's type: a missing key takes the field's default and
an unknown key is ignored, so records written before a field was added or
dropped still load.

record_text writes the text json_text(to_json(record)) gives straight from
the fields. Only the document keeps a hand-written codec, because its layout
is not its fields and reading it back checks its fingerprint.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import types
import typing
from functools import cache
from json.encoder import encode_basestring
from operator import attrgetter

from .backends import _value_json
from .documents import SourceRef
from .terms import SchemaError, canonical_source_string, parse_source_string

_PLAIN = frozenset({str, int, float, bool, type(None)})


@cache
def _fields(cls) -> tuple[tuple[str, str, object, bool], ...]:
    """(name, JSON key, resolved type, required) for each field a record
    holds."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", f.name), hints[f.name],
         f.default is dataclasses.MISSING
         and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if f.compare
    )


def to_json(value):
    """The JSON form of a record, or of a value a record field holds."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, SourceRef):
        return canonical_source_string(value)
    if isinstance(value, enum.Enum):
        return value.value
    # Most items and field values are plain: test them here, not in a call.
    if isinstance(value, (tuple, list)):
        return [item if type(item) in _PLAIN else to_json(item) for item in value]
    return {
        key: item if type(item := getattr(value, name)) in _PLAIN else to_json(item)
        for name, key, _, _ in _fields(type(value))
    }


def record_text(record, newline: str = "\n") -> str:
    """json_text(to_json(record)), each line after the first starting with
    newline (a newline and the indent the record's text is nested at)."""
    return _writer(type(record))(record, newline)


def _generic(value, newline: str) -> str:
    return _value_json(value if type(value) in _PLAIN else to_json(value), newline)


@cache
def _writer(cls):
    """record_text for records of cls, each field written by its type."""
    fields = _fields(cls)
    heads = [encode_basestring(key) + ": " for _, key, _, _ in fields]
    encoders = [_encoder(tp) for _, _, tp, _ in fields]
    # A tuple at any field count; zip stops before the trailing class.
    values = attrgetter(*(name for name, *_ in fields), "__class__")

    def write(record, newline):
        inner = newline + "  "
        items = [head + (encode_basestring(value) if type(value) is str
                         else encode(value, inner))
                 for head, encode, value in zip(heads, encoders, values(record))]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    return write


def _encoder(tp):
    """A field's writer by its type tp; other types and values: _generic."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        encode = _encoder(args[args[0] is type(None)])
        return lambda value, newline: "null" if value is None else encode(value, newline)
    if origin is tuple and args[1:] == (...,):
        item_encode = _encoder(args[0])

        def encode(value, newline):
            inner = newline + "  "
            return "[" + inner + ("," + inner).join([
                encode_basestring(item) if type(item) is str else item_encode(item, inner)
                for item in value]) + newline + "]" if value else "[]"
        tp = tuple
    elif tp is SourceRef:
        encode = lambda ref, _: encode_basestring(canonical_source_string(ref))
    elif isinstance(tp, type) and issubclass(tp, enum.Enum) and all(
            type(member.value) is str for member in tp):
        texts = {member: encode_basestring(member.value) for member in tp}
        encode = lambda member, _: texts[member]
    elif dataclasses.is_dataclass(tp):
        encode = _writer(tp)
    else:
        return _generic
    return lambda value, newline: (
        encode(value, newline) if type(value) is tp else _generic(value, newline))


def fingerprint(record) -> str:
    """12 hex characters of SHA-256 over the record's sorted-key JSON."""
    payload = json.dumps(to_json(record), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def from_json(cls, data):
    """Rebuild a record of dataclass cls from its JSON form. Raises
    ValueError when data is not an object, lacks a key that has no default,
    or holds a value its field's type does not admit."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__}: expected an object, got {type(data).__name__}"
        )
    values = {}
    for name, key, tp, required in _fields(cls):
        if key in data:
            try:
                values[name] = _decode(tp, data[key])
            except ValueError as exc:
                raise ValueError(f"{cls.__name__}.{key}: {exc}") from None
        elif required:
            raise ValueError(f"{cls.__name__}: missing key {key!r}")
    return cls(**values)


def _decode(tp, value):
    if tp in (str, int, bool):
        if type(value) is not tp:
            raise ValueError(f"expected {tp.__name__}, got {value!r}")
        return value
    if tp is float:
        if type(value) not in (int, float):
            raise ValueError(f"expected a number, got {value!r}")
        # JSON has no NaN or infinity, though json.loads reads them.
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return value
    if tp is SourceRef:
        if type(value) is not str:
            raise ValueError(f"expected a citation string, got {value!r}")
        try:
            return parse_source_string(value)
        except SchemaError as exc:
            raise ValueError(str(exc)) from None
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = (a for a in typing.get_args(tp) if a is not type(None))
        return _decode(inner, value)
    if origin is tuple:
        if type(value) is not list:
            raise ValueError(f"expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v) for v in value)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(value)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value)
    raise TypeError(f"no JSON mapping for field type {tp!r}")
