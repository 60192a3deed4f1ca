import numpy as np
import pytest
from hypothesis import given, strategies as st

from handdepth.distance import distance_transform, find_palm_center, sq_edt
from handdepth.errors import DegenerateHandError

from reference import (
    deterministic,
    edge_masks,
    edt_bruteforce,
    masks,
    palm_center_masked,
    random_mask,
    sq_edt_bruteforce,
    sq_edt_envelope,
    sq_edt_two_updates,
)

def assert_matches_oracles(mask):
    got, want = sq_edt(mask), sq_edt_bruteforce(mask)
    assert got.dtype == np.int64
    assert (got == want).all()
    assert (got == sq_edt_envelope(mask)).all()
    dist = distance_transform(mask)
    assert (dist == edt_bruteforce(mask)).all()
    assert (dist == sq_edt_envelope(~np.pad(mask, 1))[1:-1, 1:-1]).all()


def assert_limit_contract(target, limit):
    exact = sq_edt_bruteforce(target)
    got = sq_edt(target, limit=limit)
    near = exact <= limit
    assert (got[near] == exact[near]).all()
    assert (got[~near] > limit).all()


def all_masks_3x3():
    for bits in range(512):
        yield np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)


def test_all_background_is_zero():
    mask = np.zeros((5, 7), dtype=bool)
    assert (distance_transform(mask) == 0).all()


def test_single_pixel():
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 3] = True
    dist = distance_transform(mask)
    assert dist[2, 3] == 1
    assert dist.sum() == 1


def test_matches_bruteforce_exhaustive_3x3():
    for mask in all_masks_3x3():
        assert (distance_transform(mask) == edt_bruteforce(mask)).all()


def test_matches_bruteforce_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        mask = random_mask(rng, (16, 16))
        assert (distance_transform(mask) == edt_bruteforce(mask)).all()


def test_values_zero_on_background_positive_on_foreground():
    rng = np.random.default_rng(5)
    mask = random_mask(rng, (20, 20))
    dist = distance_transform(mask)
    assert (dist[~mask] == 0).all()
    assert (dist[mask] >= 1).all()


def test_one_lipschitz_in_plain_metric():
    rng = np.random.default_rng(9)
    mask = random_mask(rng, (24, 24))
    d = np.sqrt(distance_transform(mask).astype(float))
    assert (np.abs(np.diff(d, axis=0)) <= 1 + 1e-9).all()
    assert (np.abs(np.diff(d, axis=1)) <= 1 + 1e-9).all()


def non_square_masks():
    """Random masks far longer along one axis than the other, at mixed densities."""
    rng = np.random.default_rng(41)
    for shape in ((3, 40), (40, 3), (1, 60), (60, 1)):
        for density in (0.02, 0.1, 0.5, 0.9):
            yield rng.random(shape) < density
        yield np.zeros(shape, dtype=bool)
        single = np.zeros(shape, dtype=bool)
        single[-1, -1] = True
        yield single


def test_edge_masks_match_envelope_and_bruteforce():
    for mask in [*edge_masks(), *non_square_masks()]:
        assert_matches_oracles(mask)


@deterministic
@given(masks)
def test_random_masks_match_envelope_and_bruteforce(mask):
    assert_matches_oracles(mask)


def test_limit_contract_on_edge_masks():
    for mask in [*edge_masks(), *non_square_masks()]:  # the all-False ones are empty targets
        for limit in (0, 1, 2, 5, 50):
            assert_limit_contract(mask, limit)


@deterministic
@given(masks, st.integers(0, 80))
def test_limit_contract_on_random_masks(mask, limit):
    assert_limit_contract(mask, limit)
    assert_limit_contract(mask, 0)
    assert_limit_contract(mask, 1)


def test_distances_past_int32_range():
    target = np.zeros((50_000, 2), dtype=bool)
    target[0, 0] = True
    ys, xs = np.mgrid[0:50_000, 0:2]
    got = sq_edt(target)
    assert got.dtype == np.int64
    assert (got == ys.astype(np.int64) ** 2 + xs**2).all()


def test_distances_past_int32_range_transposed():
    target = np.zeros((2, 50_000), dtype=bool)
    target[0, 0] = True
    ys, xs = np.mgrid[0:2, 0:50_000]
    got = sq_edt(target)
    assert got.dtype == np.int64
    assert (got == ys**2 + xs.astype(np.int64) ** 2).all()


def test_distances_at_the_int32_edge():
    # 2 * far**2 still fits int32 here, and pad + k*k is reached at k = h - 1
    target = np.zeros((32_000, 2), dtype=bool)
    target[0, 0] = True
    ys, xs = np.mgrid[0:32_000, 0:2]
    got = sq_edt(target)
    assert got.dtype == np.int64
    assert (got == ys.astype(np.int64) ** 2 + xs**2).all()


@deterministic
@given(masks, st.sampled_from([None, 0, 1, 4, 9, 50]))
def test_sq_edt_equals_the_two_update_pass_everywhere(mask, limit):
    # the whole array, not only the entries at or below limit
    assert (sq_edt(mask, limit=limit) == sq_edt_two_updates(mask, limit=limit)).all()


def test_limit_past_every_distance_is_no_limit():
    rng = np.random.default_rng(23)
    randoms = [random_mask(rng, shape) for shape in ((1, 30), (30, 1), (17, 23), (40, 40))]
    for mask in [*edge_masks(), *non_square_masks(), *randoms]:
        assert (sq_edt(mask, limit=10**12) == sq_edt(mask)).all()


@deterministic
@given(masks, st.integers(0, 80))
def test_sq_edt_commutes_with_transpose(mask, limit):
    assert (sq_edt(mask.T) == sq_edt(mask).T).all()
    assert_limit_contract(mask, limit)
    assert_limit_contract(mask.T, limit)


def test_sq_edt_empty_target_saturates():
    out = sq_edt(np.zeros((4, 6), dtype=bool))
    assert (out > (4 - 1) ** 2 + (6 - 1) ** 2).all()


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    blob = random_mask(rng, (8, 8))
    a = np.zeros((30, 30), dtype=bool)
    b = np.zeros((30, 30), dtype=bool)
    a[4:12, 5:13] = blob
    b[9:17, 11:19] = blob
    da, db = distance_transform(a), distance_transform(b)
    assert (da[4:12, 5:13] == db[9:17, 11:19]).all()
    pa = find_palm_center(da)
    pb = find_palm_center(db)
    assert (pb.x - pa.x, pb.y - pa.y) == (6, 5)
    assert pa.inradius_px == pb.inradius_px


def test_rotation_equivariance_of_transform():
    rng = np.random.default_rng(17)
    mask = random_mask(rng, (18, 25))
    rotated = np.rot90(mask).copy()
    assert (distance_transform(rotated) == np.rot90(distance_transform(mask))).all()


def test_palm_center_of_centered_disk():
    ys, xs = np.ogrid[:32, :32]
    disk = (xs - 16) ** 2 + (ys - 16) ** 2 <= 100
    center = find_palm_center(distance_transform(disk))
    assert (center.x, center.y) == (16, 16)
    assert center.inradius_px == pytest.approx(10.0, abs=0.8)


def test_palm_center_of_bar_tie_breaks_leftmost():
    bar = np.zeros((9, 50), dtype=bool)
    bar[3:6, 5:45] = True
    center = find_palm_center(distance_transform(bar))
    assert (center.x, center.y) == (6, 4)
    assert center.inradius_px == 2.0


def test_degenerate_hand_rejected():
    line = np.zeros((9, 20), dtype=bool)
    line[4, 2:18] = True
    with pytest.raises(DegenerateHandError):
        find_palm_center(distance_transform(line))


def test_far_background_does_not_move_center():
    frame = np.zeros((40, 40), dtype=bool)
    ys, xs = np.ogrid[:40, :40]
    disk = (xs - 12) ** 2 + (ys - 12) ** 2 <= 64
    frame |= disk
    base = find_palm_center(distance_transform(frame))
    toggled = frame.copy()
    toggled[35:38, 35:38] = True  # unrelated distant blob
    moved = find_palm_center(distance_transform(toggled))
    assert (moved.x, moved.y, moved.inradius_px) == (base.x, base.y, base.inradius_px)


def palm_center_matches_masked_argmax(mask) -> bool:
    """Asserts find_palm_center on the mask's distance map equals the masked argmax.

    Returns whether the mask is degenerate (both raise DegenerateHandError).
    """
    dist = distance_transform(mask)
    try:
        want = palm_center_masked(dist, mask)
    except DegenerateHandError:
        with pytest.raises(DegenerateHandError):
            find_palm_center(dist)
        return True
    assert find_palm_center(dist) == want
    return False


def test_palm_center_matches_masked_argmax_on_edge_masks():
    degenerate = [palm_center_matches_masked_argmax(mask) for mask in edge_masks()]
    assert any(degenerate) and not all(degenerate)


@deterministic
@given(masks)
def test_palm_center_matches_masked_argmax_on_random_masks(mask):
    palm_center_matches_masked_argmax(mask)
