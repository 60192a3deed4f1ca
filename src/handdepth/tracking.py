"""Frame-to-frame hand identity and the two-hand color convention.

A lone hand is reported as Single and drawn white.  With two hands the
one further right (larger palm x) becomes Right/white and the other
Left/pink at track birth; afterwards identities follow palm-center
continuity so that crossing hands keep their colors.

The tracker holds one track per named hand, Right and Left.  A lone
hand moves the nearer of them and starts none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .distance import PalmCenter
from .fingertips import Fingertip
from .segmentation import Blob


class HandId(Enum):
    SINGLE = "Single"
    RIGHT = "Right"
    LEFT = "Left"


WHITE = (255, 255, 255)
PINK = (255, 105, 180)

OVERLAY_COLORS = {HandId.SINGLE: WHITE, HandId.RIGHT: WHITE, HandId.LEFT: PINK}


@dataclass
class HandReport:
    """Labeled per-hand detection for one frame."""

    hand_id: HandId
    overlay_color: tuple[int, int, int]
    palm: PalmCenter
    fingertips: list[Fingertip]


@dataclass
class _Track:
    x: float
    y: float
    misses: int = 0


@dataclass
class TrackState:
    """Mutable tracker memory; feed frames strictly in order.

    ``tracks`` holds at most a Right and a Left track, oldest first.
    """

    max_misses: int = 5
    tracks: dict[HandId, _Track] = field(default_factory=dict)


HandObservation = tuple[PalmCenter, list[Fingertip], Blob]


def _sqdist(palm: PalmCenter, track: _Track) -> float:
    return (palm.x - track.x) ** 2 + (palm.y - track.y) ** 2


def label_hands(hands: list[HandObservation], state: TrackState) -> list[HandReport]:
    """Assign Single/Right/Left identities and overlay colors.

    Two hands with tracked predecessors take whichever Right/Left
    assignment minimizes total palm displacement; without history the
    hand with the larger palm x becomes Right (non-mirrored image).
    """
    if len(hands) > 2:
        raise ValueError("at most two hands per frame")
    if not hands:
        return []
    if len(hands) == 1:
        palm, tips, _ = hands[0]
        return [HandReport(HandId.SINGLE, WHITE, palm, tips)]

    palm_a, palm_b = hands[0][0], hands[1][0]
    tracks = state.tracks
    straight = swapped = 0.0  # both stay 0 without prior tracks: x-order decides
    if HandId.RIGHT in tracks:
        straight += _sqdist(palm_a, tracks[HandId.RIGHT])
        swapped += _sqdist(palm_b, tracks[HandId.RIGHT])
    if HandId.LEFT in tracks:
        straight += _sqdist(palm_b, tracks[HandId.LEFT])
        swapped += _sqdist(palm_a, tracks[HandId.LEFT])
    if straight < swapped:
        right_idx, left_idx = 0, 1
    elif swapped < straight:
        right_idx, left_idx = 1, 0
    elif (palm_a.x, -palm_a.y) > (palm_b.x, -palm_b.y):  # by image x, then smaller y
        right_idx, left_idx = 0, 1
    else:
        right_idx, left_idx = 1, 0

    ordered = []
    for idx, ident in ((right_idx, HandId.RIGHT), (left_idx, HandId.LEFT)):
        palm, tips, _ = hands[idx]
        ordered.append(HandReport(ident, OVERLAY_COLORS[ident], palm, tips))
    return ordered


def update(state: TrackState, reports: list[HandReport]) -> None:
    """Refresh ``state``'s tracks in place from label_hands' reports for this frame.

    A Right or Left report sets its own track, starting it if need be.
    A Single report sets the nearer track (the older on a tie) and
    starts none.  Unmatched tracks gain a miss and drop after
    max_misses consecutive frames without a sighting.
    """
    seen = set()
    for report in reports:
        hand_id = report.hand_id
        if hand_id is HandId.SINGLE:
            if not state.tracks:
                continue
            hand_id = min(state.tracks, key=lambda k: _sqdist(report.palm, state.tracks[k]))
        state.tracks[hand_id] = _Track(report.palm.x, report.palm.y)
        seen.add(hand_id)

    for hand_id, t in state.tracks.items():
        if hand_id not in seen:
            t.misses += 1
    state.tracks = {k: t for k, t in state.tracks.items() if t.misses < state.max_misses}
