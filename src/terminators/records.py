"""How record dataclasses map to JSON and back.

A record is written as an object of its fields in declaration order. A
SourceRef becomes its citation string (``name:start-end``), an enum its
value, and a tuple or list a list; fields declared ``compare=False`` are
not part of a record's identity and are left out. Reading decodes each
value through its field's type: a missing key takes the field's default and
an unknown key is ignored, so records written before a field was added or
dropped still load.

Term, plan and document records keep hand-written codecs, because their
layout is not their fields.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import types
import typing
from functools import cache

from .documents import SourceRef
from .terms import SchemaError, canonical_source_string, parse_source_string

_PLAIN = frozenset({str, int, float, bool, type(None)})


@cache
def _fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, resolved type, required) for each field a record holds."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name],
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
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    # Most field values are plain: test them here rather than in a call.
    return {
        name: item if type(item := getattr(value, name)) in _PLAIN else to_json(item)
        for name, _, _ in _fields(type(value))
    }


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
    for name, tp, required in _fields(cls):
        if name in data:
            try:
                values[name] = _decode(tp, data[name])
            except ValueError as exc:
                raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
        elif required:
            raise ValueError(f"{cls.__name__}: missing key {name!r}")
    return cls(**values)


def _decode(tp, value):
    if tp in (str, int, bool):
        if type(value) is not tp:
            raise ValueError(f"expected {tp.__name__}, got {value!r}")
        return value
    if tp is float:
        if type(value) not in (int, float):
            raise ValueError(f"expected a number, got {value!r}")
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
