"""The one codec between run-artifact dataclasses and JSON-ready dicts.

Rules follow the field types, never the caller: fields in declaration order,
enums as their ``.value``, sets sorted; nested dataclasses and ``list`` /
``dict`` / ``X | None`` of them recurse; ``int`` fields decode with ``int()``;
a missing key takes the field's default. A field typed
``Annotated[X, Text(render, parse)]`` is written as the string ``render``
returns and read back by ``parse``, once the value is checked to be a ``str``.
Bad input raises ``ValidationError`` and ``__post_init__`` checks still run.
Per-field converters are cached per class.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from typing import Any, Callable, Optional, TypeVar

from .errors import ValidationError

T = TypeVar("T")
Encoder = Optional[Callable[[Any], Any]]  # None writes the value as it is


@dataclasses.dataclass(frozen=True)
class Text:
    """``Annotated`` marker of a field stored as text: ``render`` writes it, ``parse`` reads it back."""

    render: Callable[[Any], str]
    parse: Callable[[str], Any]


def encode(obj: Any) -> dict[str, Any]:
    """JSON-ready dict of a dataclass instance, fields in declaration order."""
    out = {}
    for name, enc, _, _ in _plan(type(obj)):
        value = getattr(obj, name)
        out[name] = value if enc is None else enc(value)
    return out


def decode(cls: type[T], d: Any) -> T:
    """Instance of dataclass ``cls`` from a dict shaped like ``encode``'s output."""
    if not isinstance(d, dict):
        raise ValidationError(f"{cls.__name__}: expected an object, got {d!r}")
    kwargs = {}
    for name, _, dec, required in _plan(cls):
        if name in d:
            try:
                kwargs[name] = dec(d[name])
            except (TypeError, ValueError, OverflowError, ValidationError) as exc:
                raise ValidationError(f"{cls.__name__}.{name}: {exc}") from None
        elif required:
            raise ValidationError(f"{cls.__name__}: missing required key {name!r}")
    return cls(**kwargs)


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Encoder, Callable[[Any], Any], bool], ...]:
    """Per field: name, encoder, decoder and whether the key is required."""
    hints = typing.get_type_hints(cls, include_extras=True)
    plan = []
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        plan.append((f.name, *_converters(hints[f.name]), required))
    return tuple(plan)


def _converters(tp: Any) -> tuple[Encoder, Callable[[Any], Any]]:
    """(encoder, decoder) for a field type; a decoder raises TypeError or ValueError on bad input."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:  # Annotated[X, Text(render, parse)]
        return args[1].render, _of(str, args[1].parse)
    if origin in (types.UnionType, typing.Union):
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _converters(inner)
        enc_or_none = None if enc is None else lambda v: None if v is None else enc(v)
        return enc_or_none, lambda v: None if v is None else dec(v)
    if origin in (list, set):
        enc, dec = _converters(args[0])
        out = list if origin is list else sorted
        return (out if enc is None else lambda v: out(map(enc, v))), _of(list, lambda v: origin(map(dec, v)))
    if origin is dict:  # JSON object keys are strings already
        enc, dec = _converters(args[1])
        return (
            dict if enc is None else lambda v: {k: enc(x) for k, x in v.items()},
            _of(dict, lambda v: {k: dec(x) for k, x in v.items()}),
        )
    if dataclasses.is_dataclass(tp):
        return encode, functools.partial(decode, tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda v: v.value), tp
    if tp is int:
        return None, int
    if tp is str:
        return None, _of(str, None)
    raise TypeError(f"codec has no rule for field type {tp!r}")


def _of(kind: type, build: Callable[[Any], Any] | None) -> Callable[[Any], Any]:
    """Decoder that accepts only ``kind``, then applies ``build`` (None keeps the value)."""

    def dec(value: Any) -> Any:
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value if build is None else build(value)

    return dec
