"""Frame-to-frame hand identity and the two-hand color convention.

A lone hand is reported as Single and drawn white.  With two hands the
one further right (larger palm x) becomes Right/white and the other
Left/pink at track birth; afterwards identities follow palm-center
continuity so that crossing hands keep their colors.

label_hands emits at most one report per identity and a Single report
starts a track only when there is none, so the tracker never holds two
tracks of one identity, and an unnamed track only as its sole track.
So update needs one rule: each report takes the nearest free track it
may claim.
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
    identity: HandId | None  # RIGHT/LEFT once assigned in a two-hand frame
    x: float
    y: float
    misses: int = 0


@dataclass
class TrackState:
    """Mutable tracker memory; feed frames strictly in order."""

    max_misses: int = 5
    tracks: list[_Track] = field(default_factory=list)


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
    prior = {t.identity: t for t in state.tracks if t.identity in (HandId.RIGHT, HandId.LEFT)}
    straight = swapped = 0.0  # both stay 0 without prior tracks: x-order decides
    if HandId.RIGHT in prior:
        straight += _sqdist(palm_a, prior[HandId.RIGHT])
        swapped += _sqdist(palm_b, prior[HandId.RIGHT])
    if HandId.LEFT in prior:
        straight += _sqdist(palm_b, prior[HandId.LEFT])
        swapped += _sqdist(palm_a, prior[HandId.LEFT])
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


def update(state: TrackState, reports: list[HandReport]) -> TrackState:
    """Refresh tracks from label_hands' reports for this frame.

    Each report takes the nearest free track it may claim, ties to the
    lower index: Right and Left claim their own identity or an unnamed
    track (by the module invariant never both kinds at once), Single any
    track.  A claimed unnamed track takes the report's identity; with no
    claim the report starts a track.  Unmatched tracks gain a miss and
    drop after max_misses consecutive frames without a sighting.
    """
    matched: set[int] = set()
    for report in reports:
        identity = None if report.hand_id is HandId.SINGLE else report.hand_id
        candidates = [
            (_sqdist(report.palm, t), i)
            for i, t in enumerate(state.tracks)
            if i not in matched and (identity is None or t.identity in (identity, None))
        ]
        if candidates:
            index = min(candidates)[1]
            t = state.tracks[index]
            if t.identity is None:
                t.identity = identity
            t.x, t.y, t.misses = report.palm.x, report.palm.y, 0
        else:
            index = len(state.tracks)
            state.tracks.append(_Track(identity, report.palm.x, report.palm.y))
        matched.add(index)

    survivors = []
    for i, t in enumerate(state.tracks):
        if i not in matched:
            t.misses += 1
        if t.misses < state.max_misses:
            survivors.append(t)
    state.tracks = survivors
    return state
