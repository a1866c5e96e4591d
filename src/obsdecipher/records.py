"""The one JSON text rule, and the wire rule of every persisted record.

Every JSON text goes through :func:`dumps` or :func:`parse`: keys sorted,
no ``NaN`` or infinity, and UTF-8 unescaped but in the model and graph
fingerprints and the graph file's meta line, pinned in ASCII escapes.

A record, a frozen dataclass or a NamedTuple, is a JSON object with one key
per field, named as the field. Each field type has one JSON form, and a
value of another JSON type is refused, never coerced: ``str``, ``int`` and
``bool`` take a string, an integer and a boolean (``"7"`` and ``true`` are
no integer); ``float`` any number but a boolean; ``X | None`` null or an
``X``; ``tuple[X, ...]`` a list of ``X``; ``tuple[X, Y]`` a list of an ``X``
and a ``Y``; a string ``Enum`` its value; a record an object; ``dict`` any
object, as it is.

``Annotated[T, "key"]`` stores a field under another key,
``Annotated[T, Absent(v)]`` reads its missing key as ``v`` and
``Annotated[T, OMIT_EMPTY]`` leaves it out while empty. Another missing key
reads as the field's default, or as None or ``()`` for an optional or tuple
field; else it is an error. Unknown keys are ignored, so files carrying the
keys of older versions load. Keys no field holds (a kind tag, a
``schema_version``, a derived total) are the ``head`` a writer passes to
:func:`encode`. A decode error is a ``MalformedInputError`` naming the place
the caller gives (file and line), the field and the fault.
"""

from __future__ import annotations

import inspect
import json
import types
from enum import Enum
from functools import cache
from typing import Annotated, NamedTuple, Union, get_args, get_origin, get_type_hints

from .errors import MalformedInputError


class Absent(NamedTuple):
    """Marks a field whose missing key reads as ``value``."""

    value: object


OMIT_EMPTY = object()  # marks a field left out of the object while empty
_REQUIRED = inspect.Parameter.empty


class _Wrong(Exception):
    """``(problem, keys)``: a value that does not fit its field, and the keys
    that lead to it, innermost first, gathered as the error propagates."""


def _fail(problem: str):
    raise _Wrong(problem, [])


def _exactly(kind: type, name: str):
    return lambda v: v if type(v) is kind else _fail(f"is {type(v).__name__}, not {name}")


def _float(v):
    try:
        f = float(v) if type(v) in (int, float) else _fail(f"is {type(v).__name__}, not float")
        return f if f - f == 0 else _fail("is beyond the range of a float")  # inf - inf is NaN
    except OverflowError:
        _fail("is an integer beyond the range of a float")


_SCALARS = {
    str: _exactly(str, "str"),
    int: _exactly(int, "int"),
    bool: _exactly(bool, "bool"),
    dict: _exactly(dict, "an object"),
    float: _float,
}


def _not_a_list(value, length: int | None):
    """Refuse ``value``: no list, or not of ``length`` items where that is set."""
    if type(value) is list:
        _fail(f"has {len(value)} items, not {length}")
    _fail(f"is {type(value).__name__}, not a list")


def _optional(tp):
    """``X`` where ``tp`` is ``X | None``, else None."""
    if get_origin(tp) in (Union, types.UnionType):
        return next(a for a in get_args(tp) if a is not type(None))
    return None


def _codec(tp) -> tuple:
    """``(read, write)`` for the type ``tp``: ``read`` makes a ``tp`` of a JSON
    value or raises ``_Wrong``; ``write`` makes the JSON value of a ``tp``,
    and is None where that is the value itself."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _SCALARS:
        return _SCALARS[tp], None
    if _optional(tp):
        read, write = _codec(_optional(tp))
        return (lambda v: None if v is None else read(v)), (
            write and (lambda v: None if v is None else write(v)))
    if origin is tuple and args[-1] is Ellipsis:
        read, write = _codec(args[0])
        return (lambda v: tuple(map(read, v)) if type(v) is list else _not_a_list(v, None)), (
            (lambda v: [write(x) for x in v]) if write else list)
    if origin is tuple:  # a pair
        (r0, r1), writes = zip(*map(_codec, args))
        return (lambda v: (r0(v[0]), r1(v[1])) if type(v) is list and len(v) == 2
                else _not_a_list(v, 2)), (
            (lambda v: [x if w is None else w(x) for w, x in zip(writes, v)]) if any(writes)
            else list)
    if issubclass(tp, Enum):
        members = {m.value: m for m in tp}
        return (lambda v: members[v] if type(v) is str and v in members else _fail(
            f"is {v!r}, not one of {list(members)}")), (lambda v: v.value)
    return (lambda v: _decode(tp, v)), (lambda v: encode(v, {}))


@cache
def _plan(cls) -> tuple[list, list]:
    """The fields of the record class ``cls``, resolved once per class: to
    decode, ``(name, key, exact type, read, default)``, the exact type being
    one a value of needs no ``read``; to encode, ``(name, key, write,
    omit_empty)``."""
    hints = get_type_hints(cls, include_extras=True)
    reads, writes = [], []
    for name, param in inspect.signature(cls).parameters.items():
        tp, marks = hints[name], ()
        if get_origin(tp) is Annotated:
            tp, *marks = get_args(tp)
        default = next((m.value for m in marks if isinstance(m, Absent)), param.default)
        if default is _REQUIRED and (_optional(tp) or get_origin(tp) is tuple):
            default = None if _optional(tp) else ()
        key = next((m for m in marks if isinstance(m, str)), name)
        read, write = _codec(tp)
        exact = _optional(tp) or tp
        reads.append((name, key, exact if exact in (str, int, bool) else None, read, default))
        writes.append((name, key, write, OMIT_EMPTY in marks))
    return reads, writes


def _decode(cls, doc):
    if type(doc) is not dict:
        _fail(f"is {type(doc).__name__}, not an object")
    values = {}
    try:
        for name, key, exact, read, default in _plan(cls)[0]:
            value = doc.get(key, default)
            # a missing key reads as the default, which needs no check
            if type(value) is not exact and value is not default:
                value = read(value)
            elif value is _REQUIRED:
                _fail("is missing")
            values[name] = value
    except _Wrong as exc:
        exc.args[1].append(key)
        raise
    return cls(**values)


def _error(exc: _Wrong, where: str) -> MalformedInputError:
    problem, keys = exc.args
    field = repr(".".join(reversed(keys))) if keys else "the record"
    return MalformedInputError(f"{where}: {field} {problem}")


def _no_constant(token: str):
    raise ValueError(f"{token} is no JSON number")


_DECODER = json.JSONDecoder(parse_constant=_no_constant)  # json.loads would build one per call


def parse(raw: bytes, where: str) -> dict:
    """UTF-8 JSON bytes whose root is an object, read at ``where``."""
    try:
        doc = _DECODER.decode(raw.decode("utf-8"))
    except ValueError as exc:  # a decode error, a syntax error or a constant
        raise MalformedInputError(f"{where} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{where} root must be a JSON object")
    return doc


def read_lines(lines: list[bytes], path: object, tag: str, classes: dict) -> dict:
    """The records on the ``lines`` of the LDJSON file ``path``, listed by
    the value of their ``tag`` key, which names each one's class in
    ``classes``; blank lines are skipped."""
    found = {name: [] for name in classes}
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            doc = parse(line, f"{path}:{lineno}")
            name = doc.get(tag)
            if not (isinstance(name, str) and name in classes):
                raise MalformedInputError(f"{path}:{lineno}: unknown record {tag} {name!r}")
            try:
                found[name].append(_decode(classes[name], doc))
            except _Wrong as exc:
                raise _error(exc, f"{path}:{lineno}: malformed {name} record") from None
    return found


def decode(cls, doc: object, where: str):
    """The JSON value ``doc``, read at ``where``, as a ``cls`` record."""
    try:
        return _decode(cls, doc)
    except _Wrong as exc:
        raise _error(exc, where) from None


def encode(record, head: dict) -> dict:
    """``record`` as a JSON object: the keys of ``head``, then its fields."""
    doc = dict(head)
    for name, key, write, omit_empty in _plan(type(record))[1]:
        value = getattr(record, name)
        if not omit_empty or value:
            doc[key] = value if write is None else write(value)
    return doc


def dumps(doc, *, ascii: bool, indent: int | None) -> str:
    """``doc`` as JSON text, escaped to ASCII if ``ascii``; NaN or ±inf raises."""
    try:
        return json.dumps(doc, ensure_ascii=ascii, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MalformedInputError(f"cannot write JSON: {exc}") from None


def line(record, head: dict) -> str:
    """``record`` as one line of an LDJSON file."""
    return dumps(encode(record, head), ascii=False, indent=None)
