import numpy as np
import pytest
from hypothesis import given, strategies as st

from handdepth.distance import PalmCenter
from handdepth.segmentation import Blob
from handdepth.tracking import (
    HandId,
    PINK,
    TrackState,
    WHITE,
    _Track,
    label_hands,
    update,
)

from reference import ListTrackState, deterministic, update_three_rules


def obs(x, y, area=500):
    blob = Blob(area=area, bbox=(0, 0, 0, 0), runs=np.array([[0], [0], [1]]))
    return PalmCenter(x=x, y=y, inradius_px=10.0), [], blob


def test_no_hands():
    assert label_hands([], TrackState()) == []


def test_single_hand_is_white_single():
    (report,) = label_hands([obs(40, 60)], TrackState())
    assert report.hand_id is HandId.SINGLE
    assert report.overlay_color == WHITE


def test_two_hands_no_prior_by_x_order():
    reports = label_hands([obs(50, 10), obs(200, 10)], TrackState())
    assert [r.hand_id for r in reports] == [HandId.RIGHT, HandId.LEFT]
    assert (reports[0].palm.x, reports[1].palm.x) == (200, 50)
    assert reports[0].overlay_color == WHITE
    assert reports[1].overlay_color == PINK


def test_exactly_one_right_and_one_left():
    state = TrackState()
    for frame in range(10):
        hands = [obs(50 + frame, 10), obs(200 - frame, 12)]
        reports = label_hands(hands, state)
        assert sorted(r.hand_id.value for r in reports) == ["Left", "Right"]
        update(state, reports)


def test_three_hands_rejected():
    with pytest.raises(ValueError):
        label_hands([obs(1, 1), obs(2, 2), obs(3, 3)], TrackState())


def test_continuity_overrides_x_order():
    state = TrackState()
    # Right is born at (104, 160), Left at (96, 80); they pass in x
    first = label_hands([obs(96, 80), obs(104, 160)], state)
    update(state, first)
    second = label_hands([obs(98, 160), obs(106, 80)], state)
    by_id = {r.hand_id: (r.palm.x, r.palm.y) for r in second}
    assert by_id[HandId.RIGHT] == (98, 160)  # x-order alone would flip these
    assert by_id[HandId.LEFT] == (106, 80)


def test_crossing_sequence_no_swaps():
    state = TrackState()
    right_xs = []
    for frame in range(40):
        a = obs(60 + 5 * frame, 80)    # moves right
        b = obs(260 - 5 * frame, 160)  # moves left; starts as Right
        reports = label_hands([a, b], state)
        update(state, reports)
        by_id = {r.hand_id: r.palm for r in reports}
        right_xs.append(by_id[HandId.RIGHT].y)
    assert set(right_xs) == {160}  # Right stays the y=160 hand throughout


def two_hand_birth(state, right=(10, 10), left=(-30, 10)):
    """Start a Right and a Left track at the given palms."""
    update(state, label_hands([obs(*left), obs(*right)], state))
    assert [(k, t.x, t.y) for k, t in state.tracks.items()] == [
        (HandId.RIGHT, *right), (HandId.LEFT, *left)]


def test_update_drops_after_max_misses():
    state = TrackState(max_misses=5)
    two_hand_birth(state)
    update(state, label_hands([obs(10, 10)], state))  # the Right hand alone
    assert [t.misses for t in state.tracks.values()] == [0, 1]
    for _ in range(4):
        update(state, [])
    assert list(state.tracks) == [HandId.RIGHT]  # Left reached five misses
    update(state, [])
    assert state.tracks == {}


def test_update_survives_brief_dropout():
    state = TrackState(max_misses=5)
    two_hand_birth(state)
    for _ in range(4):
        update(state, [])
    assert [t.misses for t in state.tracks.values()] == [4, 4]  # four misses: still alive


def test_stationary_hand_keeps_position():
    state = TrackState()
    two_hand_birth(state, right=(33, 44))
    for _ in range(6):
        update(state, label_hands([obs(33, 44)], state))
    track = state.tracks[HandId.RIGHT]
    assert (track.x, track.y) == (33, 44)
    assert track.misses == 0


def test_moving_hand_follows():
    state = TrackState()
    two_hand_birth(state, right=(10, 20), left=(-40, 20))
    for frame in range(10):
        update(state, label_hands([obs(10 + 3 * frame, 20)], state))
        track = state.tracks[HandId.RIGHT]
        assert (track.x, track.y) == (10 + 3 * frame, 20)


def test_a_lone_hand_starts_no_track():
    state = TrackState()
    for frame in range(7):
        update(state, label_hands([obs(10 + frame, 20)], state))
        assert state.tracks == {}
    hands = [obs(60, 50), obs(220, 50)]
    fresh = TrackState()
    assert label_hands(hands, state) == label_hands(hands, fresh)
    update(state, label_hands(hands, state))
    update(fresh, label_hands(hands, fresh))
    assert state == fresh


def test_a_lone_hand_midway_moves_the_older_track():
    state = TrackState()
    two_hand_birth(state)  # Right at x=10 first, then Left at x=-30
    update(state, label_hands([obs(-10, 10)], state))
    assert [(k, t.x, t.misses) for k, t in state.tracks.items()] == [
        (HandId.RIGHT, -10, 0), (HandId.LEFT, -30, 1)]


def test_single_then_two_hands_keeps_identity():
    state = TrackState()
    # a two-hand phase assigns identities
    update(state, label_hands([obs(60, 50), obs(220, 50)], state))
    # one hand leaves; the remaining one reports Single but keeps its track
    (single,) = label_hands([obs(222, 52)], state)
    assert single.hand_id is HandId.SINGLE
    update(state, [single])
    # the other hand returns on the far side: continuity keeps Right on the right track
    reports = label_hands([obs(58, 50), obs(224, 54)], state)
    by_id = {r.hand_id: r.palm.x for r in reports}
    assert by_id[HandId.RIGHT] == 224
    assert by_id[HandId.LEFT] == 58


def test_label_hands_deterministic():
    def run():
        state = TrackState()
        out = []
        for frame in range(8):
            reports = label_hands([obs(50 + frame, 10), obs(120 - frame, 30)], state)
            update(state, reports)
            out.append([(r.hand_id.value, r.palm.x, r.palm.y) for r in reports])
        return out

    assert run() == run()


palm_sequences = st.lists(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=2), max_size=25
)


@deterministic
@given(palm_sequences, st.integers(1, 6))
def test_one_matching_rule_equals_the_three_rule_update(frames, max_misses):
    new, old = TrackState(max_misses=max_misses), ListTrackState(max_misses=max_misses)
    for palms in frames:
        hands = [obs(x, y) for x, y in palms]
        reports = label_hands(hands, new)
        # the old label_hands read only the named tracks, by identity
        named = {t.identity: _Track(t.x, t.y, t.misses) for t in old.tracks if t.identity}
        assert reports == label_hands(hands, TrackState(max_misses, named))
        update(new, reports)
        update_three_rules(old, reports)
        tracks = [(k, t.x, t.y, t.misses) for k, t in new.tracks.items()]
        assert tracks == [(t.identity, t.x, t.y, t.misses) for t in old.tracks if t.identity]
