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
    label_hands,
    update,
)

from reference import deterministic, update_three_rules


def obs(x, y, area=500):
    blob = Blob(label=1, area=area, bbox=(0, 0, 0, 0), centroid=(0.0, 0.0),
                mask=np.ones((1, 1), dtype=bool))
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


def test_update_drops_after_max_misses():
    state = TrackState(max_misses=5)
    update(state, label_hands([obs(10, 10)], state))
    assert len(state.tracks) == 1
    for _ in range(5):
        update(state, [])
    assert state.tracks == []


def test_update_survives_brief_dropout():
    state = TrackState(max_misses=5)
    update(state, label_hands([obs(10, 10)], state))
    for _ in range(4):
        update(state, [])
    assert len(state.tracks) == 1  # four misses: still alive


def test_stationary_hand_keeps_position():
    state = TrackState()
    for _ in range(6):
        update(state, label_hands([obs(33, 44)], state))
    (track,) = state.tracks
    assert (track.x, track.y) == (33, 44)
    assert track.misses == 0


def test_moving_hand_follows():
    state = TrackState()
    for frame in range(10):
        update(state, label_hands([obs(10 + 3 * frame, 20)], state))
        (track,) = state.tracks
        assert (track.x, track.y) == (10 + 3 * frame, 20)


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
    new, old = TrackState(max_misses=max_misses), TrackState(max_misses=max_misses)
    for palms in frames:
        hands = [obs(x, y) for x, y in palms]
        reports = label_hands(hands, new)
        assert reports == label_hands(hands, old)
        update(new, reports)
        update_three_rules(old, reports)
        tracks = [(t.identity, t.x, t.y, t.misses) for t in new.tracks]
        assert tracks == [(t.identity, t.x, t.y, t.misses) for t in old.tracks]
        identities = [t.identity for t in new.tracks]
        assert len(set(identities)) == len(identities)  # at most one track per identity
        assert None not in identities or len(identities) == 1  # unnamed only when alone
