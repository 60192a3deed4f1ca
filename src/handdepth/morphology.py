"""Binary morphology with closed-disk structuring elements.

Erosion and dilation are computed by thresholding the exact squared
distance transform: a pixel survives erosion by a radius-r disk iff its
squared distance to background exceeds r*r, and dilation is the dual
threshold on the distance to foreground.  This is exact for closed
disks (offsets dx^2 + dy^2 <= r^2).  Dilation only needs distances up
to r*r, so its transform stops after r row offsets and costs
O(pixels * r); erosion's transform runs to the mask's inradius.
Out-of-frame pixels count as background.

One distance map per hand gives the palm inradius, the erosion (its
threshold at r*r in extract_palm) and the palm-center argmax.
extract_palm dilates only the eroded core's bbox grown by r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import distance_transform, sq_edt
from .errors import EmptyResultError
from .segmentation import Blob, connected_components


@dataclass(frozen=True)
class DiskElement:
    """Closed rasterized disk: all integer offsets with dx^2 + dy^2 <= radius^2."""

    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("disk radius must be >= 0")


def erode(mask: np.ndarray, elem: DiskElement) -> np.ndarray:
    """Minkowski erosion: keep pixels whose whole disk neighborhood is foreground."""
    return distance_transform(mask) > elem.radius * elem.radius


def dilate(mask: np.ndarray, elem: DiskElement) -> np.ndarray:
    """Minkowski dilation: mark pixels within the disk of any foreground pixel."""
    rr = elem.radius * elem.radius
    return sq_edt(mask, limit=rr) <= rr


def opening(mask: np.ndarray, elem: DiskElement) -> np.ndarray:
    """Erosion followed by dilation; removes protrusions thinner than the disk."""
    return dilate(erode(mask, elem), elem)


def extract_palm(hand_dist: np.ndarray, radius: int) -> np.ndarray:
    """Strip everything thinner than the disk (the fingers), keeping the palm body.

    Takes the hand's distance_transform and returns the hand's opening by
    the disk.  Raises EmptyResultError when the radius exceeds the palm
    inradius and the opening annihilates the hand entirely.
    """
    if radius < 1:
        raise ValueError("palm extraction radius must be >= 1")
    core = hand_dist > radius * radius
    rows, cols = np.flatnonzero(core.any(axis=1)), np.flatnonzero(core.any(axis=0))
    if rows.size == 0:
        raise EmptyResultError(f"opening by radius {radius} left no palm")
    # A pixel more than r outside the core's bbox is more than r from the
    # core, so the dilation runs on that bbox grown by r (clipped).
    window = (slice(max(rows[0] - radius, 0), rows[-1] + radius + 1),
              slice(max(cols[0] - radius, 0), cols[-1] + radius + 1))
    opened = np.zeros_like(core)
    opened[window] = dilate(core[window], DiskElement(radius))
    return opened


def auto_radius(palm_inradius: float, factor: float = 0.7) -> int:
    """Structuring-element radius scaled from the measured palm inradius.

    A fixed radius would break as the hand moves nearer or farther; a
    fraction of the inradius tracks the hand's apparent size.
    """
    if palm_inradius < 1:
        raise ValueError("palm inradius must be >= 1")
    if not 0 < factor < 1:
        raise ValueError("radius factor must lie in (0, 1)")
    return max(1, round(factor * palm_inradius))


def default_min_finger_area(hand_area: int) -> int:
    """Area floor that drops palm-rim subtraction slivers but keeps real fingers."""
    return max(4, round(0.05 * hand_area / 5))


def finger_masks(
    hand_mask: np.ndarray,
    palm_mask: np.ndarray,
    min_finger_area: int,
    palm_center: tuple[float, float],
) -> list[Blob]:
    """Connected remnants of hand minus palm as Blobs, filtered and ordered.

    Components smaller than ``min_finger_area`` are discarded (they are
    usually 1-2 px slivers where the opening undercut the palm rim); at
    most the five largest survive, ordered by the angle of their centroid
    around the palm center.  Each finger is its bbox and bbox-local mask
    within the hand's array.  An empty list is a valid outcome (a fist).
    """
    if (palm_mask & ~hand_mask).any():
        raise ValueError("palm mask must be a subset of the hand mask")
    blobs = [b for b in connected_components(hand_mask & ~palm_mask) if b.area >= min_finger_area]
    largest = sorted(blobs, key=lambda b: (-b.area, b.label))[:5]
    px, py = palm_center
    largest.sort(key=lambda b: (math.atan2(b.centroid[1] - py, b.centroid[0] - px), b.label))
    return largest
