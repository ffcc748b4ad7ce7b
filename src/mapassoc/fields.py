"""What a config field or a JSON value may hold: its annotation says.

Config dataclasses call `check_fields` first in `__post_init__`; readers test
JSON values with `fits`. `int` is an int, not a bool; `float` also takes an
int, kept as given, and a numpy float. `tuple[X, Y]` and `tuple[X, ...]` take
a list or tuple of items that fit and give a tuple, a dataclass may be a list
of its fields, and `Optional` and `Union` take the first member that fits.
"""

from __future__ import annotations

import dataclasses
import re
from functools import lru_cache
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ConfigError

__all__ = ["conform", "fits", "check_fields"]


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
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if isinstance(value, (list, tuple)):
            return hint(*value)  # a wrong arity raises TypeError
    elif isinstance(value, bool) == (hint is bool) and isinstance(value, (int, float) if hint is float else hint):
        return value
    raise TypeError(f"expected {_name(hint)}, got {value!r}")


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
def _field_hints(cls) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def check_fields(obj) -> None:
    """Conform each field of the dataclass `obj` in place; ConfigError names a misfit."""
    for name, hint in _field_hints(type(obj)):
        value = getattr(obj, name)
        try:
            fitted = conform(value, hint)
        except TypeError:
            raise ConfigError(f"{name}: expected {_name(hint)}, got {value!r}") from None
        except ConfigError as exc:  # from a nested dataclass, such as a StageSpec
            raise ConfigError(f"{name}: {exc}") from None
        if fitted is not value:
            object.__setattr__(obj, name, fitted)
