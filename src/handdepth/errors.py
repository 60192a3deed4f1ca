"""Exception types shared across the package."""


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
