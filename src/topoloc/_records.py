"""JSON records: one key-and-type rule for every dataclass stored as JSON.

A record's fields are the keys of a JSON object, in declaration order.
:func:`read_record` rejects unknown keys, allows a key to be missing only
when its field has a default, and casts each value by its annotation:
``float`` takes a finite number, ``int`` an integral one, ``bool`` only
``true``/``false`` and ``str`` a string; ``X | None``, nested records and
tuples compose from those.  Each class's casts are resolved once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import sys
import types
import typing

from .errors import ConfigError

__all__ = ["Record", "read_record", "record_dict"]


class _Invalid(Exception):
    """A value that breaks the rule, and the path to it from the record's root."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path = ""

    def at(self, segment: str) -> "_Invalid":
        self.path = segment + ("" if self.path[:1] in ("", "[") else ".") + self.path
        return self


def _fail(expected: str, value) -> typing.NoReturn:
    raise _Invalid(f"expected {expected}, got {reprlib.repr(value)}")


def _float(v) -> float:
    if type(v) is float and math.isfinite(v):
        return v
    if type(v) is int and abs(v) <= sys.float_info.max:
        return float(v)
    _fail("a finite number", v)


def _int(v) -> int:
    if type(v) is int:
        return v
    if type(v) is float and v.is_integer():
        return int(v)
    _fail("an integer", v)


def _exact(kind: type, expected: str):
    def cast(v):
        if type(v) is not kind:
            _fail(expected, v)
        return v

    return cast


_SCALARS = {
    float: _float,
    int: _int,
    bool: _exact(bool, "true or false"),
    str: _exact(str, "a string"),
}


def _items(v, reads, n: int | None) -> tuple:
    if type(v) is not list or (n is not None and len(v) != n):
        _fail("an array" if n is None else f"an array of {n}", v)
    out = []
    try:
        for read, x in zip(reads * len(v) if n is None else reads, v):
            out.append(read(x))
    except _Invalid as exc:
        raise exc.at(f"[{len(out)}]") from None
    return tuple(out)


def _codec(hint):
    """``(read, write)`` for one annotation.

    ``read`` casts a JSON value or raises :class:`_Invalid`; ``write`` makes
    a field value JSON-ready, and is ``None`` where the value already is.
    """
    if hint in _SCALARS:
        return _SCALARS[hint], None
    if dataclasses.is_dataclass(hint):
        return functools.partial(_build, hint), record_dict
    args = typing.get_args(hint)
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    if union and len(args) == 2 and type(None) in args:
        read, write = _codec(next(a for a in args if a is not type(None)))
        return (
            lambda v: None if v is None else read(v),
            write and (lambda v: None if v is None else write(v)),
        )
    if typing.get_origin(hint) is tuple:
        codecs = [_codec(a) for a in args if a is not Ellipsis]
        n = None if args[-1] is Ellipsis else len(args)
        reads = [read for read, _ in codecs]
        return (
            lambda v: _items(v, reads, n),
            lambda v: [
                x if w is None else w(x)
                for x, (_, w) in zip(v, codecs * len(v) if n is None else codecs)
            ],
        )
    raise TypeError(f"no JSON rule for annotation {hint!r}")


@functools.cache
def _plan(cls):
    """Per-field ``(name, read, write)``, the field names, and the required ones."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    plan = tuple((f.name, *_codec(hints[f.name])) for f in fields)
    required = {
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    return plan, {f.name for f in fields}, required


def _build(cls, data):
    plan, names, required = _plan(cls)
    if type(data) is not dict:
        _fail("a JSON object", data)
    if data.keys() != names:
        if data.keys() - names:
            raise _Invalid(f"unknown keys {sorted(data.keys() - names)}")
        if required - data.keys():
            raise _Invalid(f"missing keys {sorted(required - data.keys())}")
    kwargs = {}
    for name, read, _ in plan:
        if name in data:
            try:
                kwargs[name] = read(data[name])
            except _Invalid as exc:
                raise exc.at(name) from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


def read_record(cls, data, error: type[ValueError], where: str = ""):
    """Build record ``cls`` from a parsed JSON value.

    Any breach of the rule, or a ``ValueError`` from the record's own
    validation, raises ``error`` naming ``where`` and the path to the field.
    """
    try:
        return _build(cls, data)
    except _Invalid as exc:
        raise error(": ".join(filter(None, (where, exc.path, str(exc))))) from None


def record_dict(record) -> dict:
    """A record's fields in declaration order, nested records and tuples as JSON."""
    return {
        name: getattr(record, name) if write is None else write(getattr(record, name))
        for name, _, write in _plan(type(record))[0]
    }


class Record:
    """Base of the config and scenario dataclasses: their JSON round trip."""

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, data, where: str = ""):
        """Read a config or scenario document; a bad field raises ``ConfigError``."""
        return read_record(cls, data, ConfigError, where)
