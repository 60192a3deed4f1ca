"""Exception types shared across the package, and the checks of input records.

Every record that takes numbers from a config or scene file validates its
own fields with ``number``; the dict readers only check keys with
``check_keys`` before constructing the record.
"""

import numbers
import sys


class HandDepthError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(HandDepthError):
    """A raw disparity or metric depth lies outside the calibrated range."""


class FormatError(HandDepthError):
    """Malformed or truncated image payload.

    ``offset`` is the byte position at which decoding failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(HandDepthError):
    """Invalid pipeline configuration or scene description."""


class NotFoundError(HandDepthError):
    """No blob or seed satisfies the query."""


class EmptyResultError(HandDepthError):
    """A morphological operation removed the entire mask."""


class DegenerateHandError(HandDepthError):
    """Hand mask is nowhere thicker than one pixel; no palm to center on."""


class GeometryError(HandDepthError):
    """Synthetic scene geometry leaves the frame or overlaps itself."""


def number(value, name: str, error: type[Exception], integer: bool = False,
           low: float | None = None, high: float | None = None):
    """Return ``value`` if it is a finite real (an integer when ``integer``) in [low, high].

    Otherwise raise ``error`` with ``name`` in the message.  A bool is
    refused although it is an int, and so is an int past the largest
    float; numpy scalars pass.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be a finite {'integer' if integer else 'number'}, not {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, not {value!r}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, not {value!r}")
    return value


def check_keys(data, known, what: str) -> dict:
    """Return ``data`` if it is a dict with no key outside ``known``; else ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be an object, not {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return data
