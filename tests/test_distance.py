import numpy as np
import pytest
from hypothesis import given

from handdepth.distance import _offset_pass, distance_transform, find_palm_center
from handdepth.errors import DegenerateHandError

from reference import (
    deterministic,
    edge_masks,
    edt_bruteforce,
    masks,
    offset_pass_every_k,
    palm_center_masked,
    random_mask,
    row_distances,
    sq_edt_bruteforce,
    sq_edt_envelope,
    sq_edt_two_updates,
)
from via_runs import distance_of, mask_runs, target_edt

def assert_matches_oracles(mask):
    got, want = target_edt(mask), sq_edt_bruteforce(mask)
    assert got.dtype == np.int64
    assert (got == want).all()
    assert (got == sq_edt_envelope(mask)).all()
    dist = distance_of(mask)
    assert dist.dtype == np.int64 and dist.shape == mask.shape
    assert (dist == edt_bruteforce(mask)).all()
    assert (dist == sq_edt_bruteforce(~np.pad(mask, 1))[1:-1, 1:-1]).all()
    assert (dist == sq_edt_envelope(~np.pad(mask, 1))[1:-1, 1:-1]).all()


def all_masks_3x3():
    for bits in range(512):
        yield np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)


def test_all_background_is_zero():
    mask = np.zeros((5, 7), dtype=bool)
    assert (distance_of(mask) == 0).all()


def test_single_pixel():
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 3] = True
    dist = distance_of(mask)
    assert dist[2, 3] == 1
    assert dist.sum() == 1


def test_matches_bruteforce_exhaustive_3x3():
    for mask in all_masks_3x3():
        assert (distance_of(mask) == edt_bruteforce(mask)).all()


def test_matches_bruteforce_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        mask = random_mask(rng, (16, 16))
        assert (distance_of(mask) == edt_bruteforce(mask)).all()


def test_values_zero_on_background_positive_on_foreground():
    rng = np.random.default_rng(5)
    mask = random_mask(rng, (20, 20))
    dist = distance_of(mask)
    assert (dist[~mask] == 0).all()
    assert (dist[mask] >= 1).all()


def test_one_lipschitz_in_plain_metric():
    rng = np.random.default_rng(9)
    mask = random_mask(rng, (24, 24))
    d = np.sqrt(distance_of(mask).astype(float))
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


def test_distances_past_int32_range():
    target = np.zeros((50_000, 2), dtype=bool)
    target[0, 0] = True
    ys, xs = np.mgrid[0:50_000, 0:2]
    got = target_edt(target)
    assert got.dtype == np.int64
    assert (got == ys.astype(np.int64) ** 2 + xs**2).all()


def test_distances_past_int32_range_transposed():
    target = np.zeros((2, 50_000), dtype=bool)
    target[0, 0] = True
    ys, xs = np.mgrid[0:2, 0:50_000]
    got = target_edt(target)
    assert got.dtype == np.int64
    assert (got == ys**2 + xs.astype(np.int64) ** 2).all()


def test_distances_at_the_int32_edge():
    # 2 * far**2 still fits int32 here, and pad + k*k is reached at k = h - 1
    target = np.zeros((32_000, 2), dtype=bool)
    target[0, 0] = True
    ys, xs = np.mgrid[0:32_000, 0:2]
    got = target_edt(target)
    assert got.dtype == np.int64
    assert (got == ys.astype(np.int64) ** 2 + xs**2).all()


def dtype_edge_targets():
    """Targets whose largest row distance squared, top, sits at uint16's max // 2 = 32767."""
    # Column 0 only: top = far_col**2, uint16 at 181 and int32 at 182.  With
    # h - 1 >= far_col the loop runs k = 1 .. far_col - 1 and stops at
    # k = isqrt(top) = far_col.
    for far_col in (181, 182):
        target = np.zeros((far_col + 1, far_col + 1), dtype=bool)
        target[:, 0] = True
        yield target
    # Rows 0 and 2 all target, row 1 only at column 0: top = (width - 1)**2.
    for width in (182, 183):
        target = np.ones((3, width), dtype=bool)
        target[1, 1:] = False
        yield target
    # One pixel: rows without a target hold far**2 = 181**2, so uint16, and
    # the loop runs to k = h - 1 = 177, where pad + k*k = 32767 + 31329.
    target = np.zeros((178, 2), dtype=bool)
    target[0, 0] = True
    yield target


@pytest.mark.parametrize("target", dtype_edge_targets())
def test_offset_pass_dtype_edges_match_bruteforce(target):
    assert (target_edt(target) == sq_edt_bruteforce(target)).all()


def odd_stop_cases():
    """Row distances of padded hands, as distance_transform has them, and of unpadded targets."""
    rng = np.random.default_rng(71)
    for _ in range(300):
        mask = random_mask(rng, (int(rng.integers(1, 40)), int(rng.integers(1, 40))))
        yield row_distances(~np.pad(mask, 1))
        yield row_distances(mask)  # rows without a target hold h + w + 1
    for target in dtype_edge_targets():
        yield row_distances(target)


def test_odd_offset_stop_matches_the_every_offset_loop():
    for row in odd_stop_cases():
        got = _offset_pass(row)
        assert got.dtype == np.int64 and np.array_equal(got, offset_pass_every_k(row))


def test_distance_transform_from_runs_matches_bruteforce_and_leaves_them_alone():
    # the runs of a hand's Blob, a slice of the labelling's shared run array
    rng = np.random.default_rng(72)
    for _ in range(40):
        mask = random_mask(rng, (int(rng.integers(1, 30)), int(rng.integers(1, 30))))
        runs = mask_runs(mask)
        before = runs.copy()
        assert (distance_transform(runs, mask.shape) == edt_bruteforce(mask)).all()
        assert np.array_equal(runs, before)
    assert (distance_transform(np.zeros((3, 0), dtype=np.int64), (4, 5)) == 0).all()


@deterministic
@given(masks)
def test_sq_edt_equals_the_two_update_pass_everywhere(mask):
    assert (target_edt(mask) == sq_edt_two_updates(mask)).all()


@deterministic
@given(masks)
def test_sq_edt_commutes_with_transpose(mask):
    assert (target_edt(mask.T) == target_edt(mask).T).all()


def test_sq_edt_empty_target_saturates():
    out = target_edt(np.zeros((4, 6), dtype=bool))
    assert (out > (4 - 1) ** 2 + (6 - 1) ** 2).all()


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    blob = random_mask(rng, (8, 8))
    a = np.zeros((30, 30), dtype=bool)
    b = np.zeros((30, 30), dtype=bool)
    a[4:12, 5:13] = blob
    b[9:17, 11:19] = blob
    da, db = distance_of(a), distance_of(b)
    assert (da[4:12, 5:13] == db[9:17, 11:19]).all()
    pa = find_palm_center(da)
    pb = find_palm_center(db)
    assert (pb.x - pa.x, pb.y - pa.y) == (6, 5)
    assert pa.inradius_px == pb.inradius_px


def test_rotation_equivariance_of_transform():
    rng = np.random.default_rng(17)
    mask = random_mask(rng, (18, 25))
    rotated = np.rot90(mask).copy()
    assert (distance_of(rotated) == np.rot90(distance_of(mask))).all()


def test_palm_center_of_centered_disk():
    ys, xs = np.ogrid[:32, :32]
    disk = (xs - 16) ** 2 + (ys - 16) ** 2 <= 100
    center = find_palm_center(distance_of(disk))
    assert (center.x, center.y) == (16, 16)
    assert center.inradius_px == pytest.approx(10.0, abs=0.8)


def test_palm_center_of_bar_tie_breaks_leftmost():
    bar = np.zeros((9, 50), dtype=bool)
    bar[3:6, 5:45] = True
    center = find_palm_center(distance_of(bar))
    assert (center.x, center.y) == (6, 4)
    assert center.inradius_px == 2.0


def test_degenerate_hand_rejected():
    line = np.zeros((9, 20), dtype=bool)
    line[4, 2:18] = True
    with pytest.raises(DegenerateHandError):
        find_palm_center(distance_of(line))


def test_far_background_does_not_move_center():
    frame = np.zeros((40, 40), dtype=bool)
    ys, xs = np.ogrid[:40, :40]
    disk = (xs - 12) ** 2 + (ys - 12) ** 2 <= 64
    frame |= disk
    base = find_palm_center(distance_of(frame))
    toggled = frame.copy()
    toggled[35:38, 35:38] = True  # unrelated distant blob
    moved = find_palm_center(distance_of(toggled))
    assert (moved.x, moved.y, moved.inradius_px) == (base.x, base.y, base.inradius_px)


def palm_center_matches_masked_argmax(mask) -> bool:
    """Asserts find_palm_center on the mask's distance map equals the masked argmax.

    Returns whether the mask is degenerate (both raise DegenerateHandError).
    """
    dist = distance_of(mask)
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
