"""Exception taxonomy shared by the whole package.

Every error raised on purpose derives from :class:`MapAssocError` so callers
(and the CLI exit-code mapping) can tell deliberate failures from bugs.
`located` owns where a fault is: it prefixes a fault from its block with the
place it names (a container line, an element, a config section, a flag).
"""

from __future__ import annotations

import contextlib

__all__ = [
    "MapAssocError",
    "InvalidGeometryError",
    "TopologyError",
    "GenerationError",
    "ConfigError",
    "RangeError",
    "NoFeasiblePathError",
    "CoverageError",
    "LabelError",
    "ValidationError",
    "IntegrityError",
    "located",
]


class MapAssocError(Exception):
    """Base class for all deliberate failures in this package."""


class InvalidGeometryError(MapAssocError):
    """Degenerate or malformed geometry (zero-length polyline, p1 == p2)."""


class TopologyError(MapAssocError):
    """Graph structure violation: cycles, dangling edge endpoints, uncovered tokens."""


class GenerationError(MapAssocError):
    """Scene generation cannot satisfy the requested layout."""


class ConfigError(MapAssocError):
    """Inconsistent configuration or weight shapes."""


class RangeError(MapAssocError):
    """Value outside the encodable range (curve coordinates, bucket edges)."""


class NoFeasiblePathError(MapAssocError):
    """Every decoding path has probability zero."""


class CoverageError(MapAssocError):
    """An association does not cover the elements it is evaluated on."""


class LabelError(MapAssocError):
    """A label references an element outside the candidate set."""


class ValidationError(MapAssocError):
    """Serialized input violates the schema or a structural invariant."""


class IntegrityError(ValidationError):
    """Binary payload does not match its manifest (truncation, bad magic)."""


@contextlib.contextmanager
def located(where: str):
    """Re-raise a MapAssocError from the block as the same type, prefixed with `where`."""
    try:
        yield
    except MapAssocError as exc:
        raise type(exc)(f"{where}: {exc}") from None
