"""What a config field or a JSON value may hold: its annotation says.

Config dataclasses call `check_fields` first in `__post_init__`; readers test
JSON values with `fits`. `int` is an int, not a bool; `float` also takes an
int no larger than a float can hold, kept as given, and a numpy float.
`tuple[X, Y]` and `tuple[X, ...]` take a list or tuple of items that fit and
give a tuple, a dataclass may be a list of its fields, and `Optional` and
`Union` take the first member that fits.

A `Literal` of strings takes an exact `str` that is one of its values, so the
annotation owns a field's fixed set of choices.

`check_fields` also owns the rule that a config float is finite: a NaN or an
infinity in a float field, tuple members included, raises a ConfigError that
names the field, unless the field is declared with `metadata=MAY_BE_INFINITE`
(the open upper bound of `MetricConfig.length_buckets`). It owns the range of
a config number too: a field declared with `metadata=at_least(low)`,
`above(low)` or `within(low, high)` must hold a number in that range, or a
tuple of such numbers, or None where the annotation allows it. Ranges are
checked after every field has passed the type and finiteness checks, in
declaration order; a rule that relates two values stays in `__post_init__`.
A message echoes the offending value's repr, cut to a fixed length.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from functools import lru_cache
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError

__all__ = ["conform", "fits", "check_fields", "MAY_BE_INFINITE", "at_least", "above", "within"]

MAY_BE_INFINITE = {"may_be_infinite": True}


def _shown(value) -> str:
    """`repr(value)`, cut to 60 characters and "..." when longer."""
    text = repr(value)
    return text[:60] + "..." if len(text) > 60 else text


def at_least(low) -> dict:
    """Field metadata: the number, or each number of the tuple, is >= `low`."""
    return {"range": (lambda v: v >= low, f">= {low}")}


def above(low) -> dict:
    """Field metadata: the number, or each number of the tuple, is > `low`."""
    return {"range": (lambda v: v > low, f"> {low}")}


def within(low, high, open_low=False) -> dict:
    """Field metadata: the number, or each number of the tuple, is in [low, high] ((low, high] if `open_low`)."""
    if open_low:
        return {"range": (lambda v: low < v <= high, f"in ({low}, {high}]")}
    return {"range": (lambda v: low <= v <= high, f"in [{low}, {high}]")}


def conform(value, hint):
    """`value` in the form `hint` describes; raises TypeError when it does not fit."""
    origin = get_origin(hint)  # first: before 3.11, isinstance(tuple[int], type) holds
    if origin is Union:
        for member in get_args(hint):
            try:
                return conform(value, member)
            except TypeError:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            args = get_args(hint)
            if len(args) == 2 and args[1] is ...:
                return tuple(conform(v, args[0]) for v in value)
            if len(value) == len(args):
                return tuple(map(conform, value, args))
    elif origin is Literal:
        if type(value) is str and value in get_args(hint):
            return value
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if isinstance(value, (list, tuple)):
            return hint(*value)  # a wrong arity raises TypeError
    elif isinstance(value, bool) == (hint is bool) and isinstance(value, (int, float) if hint is float else hint):
        if hint is not float or isinstance(value, float) or abs(value) <= sys.float_info.max:
            return value
    raise TypeError(f"expected {_name(hint)}, got {_shown(value)}")


def fits(value, hint) -> bool:
    """Whether `value` fits `hint` (see `conform`)."""
    try:
        conform(value, hint)
    except TypeError:
        return False
    return True


def _name(hint) -> str:
    """`hint` as written in source, e.g. `tuple[StageSpec, ...]`."""
    return hint.__name__ if get_origin(hint) is None and isinstance(hint, type) else re.sub(r"\w+\.", "", str(hint))


@lru_cache(maxsize=None)
def _field_rules(cls) -> tuple:
    """((name, hint, may_be_infinite) per field, (name, test, text) per field with a range)."""
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return (
        tuple((f.name, hints[f.name], f.metadata.get("may_be_infinite", False)) for f in fields),
        tuple((f.name, *f.metadata["range"]) for f in fields if "range" in f.metadata),
    )


def _non_finite(value):
    """The first float in a conformed `value` that is NaN or infinite, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else value
    if isinstance(value, tuple):
        return next((bad for bad in map(_non_finite, value) if bad is not None), None)
    return None


def check_fields(obj) -> None:
    """Conform each field of the dataclass `obj` in place, then check ranges; ConfigError names a misfit."""
    hints, ranges = _field_rules(type(obj))
    for name, hint, may_be_infinite in hints:
        value = getattr(obj, name)
        try:
            fitted = conform(value, hint)
        except TypeError:
            raise ConfigError(f"{name}: expected {_name(hint)}, got {_shown(value)}") from None
        except ConfigError as exc:  # from a nested dataclass, such as a StageSpec
            raise ConfigError(f"{name}: {exc}") from None
        bad = None if may_be_infinite else _non_finite(fitted)
        if bad is not None:
            raise ConfigError(f"{name}: must be finite, got {_shown(bad)}")
        if fitted is not value:
            object.__setattr__(obj, name, fitted)
    for name, test, text in ranges:
        value = getattr(obj, name)
        if value is not None and not all(map(test, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name}: must be {text}, got {_shown(value)}")
