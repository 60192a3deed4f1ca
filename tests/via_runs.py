"""Mask-level entry points to the run-based kernels, for the tests.

The library's hole fill, distance transform and labelling take runs, as
a hand's Blob carries them.  These helpers find a mask's runs with
segmentation._runs and hand them on, so a test can state a kernel's
contract on a mask and compare it with the mask-level oracles in
reference.py.
"""

from __future__ import annotations

import numpy as np

from handdepth.distance import _offset_pass, distance_transform
from handdepth.segmentation import _link, _runs, fill_holes

from reference import row_distances


def mask_runs(mask: np.ndarray) -> np.ndarray:
    """A mask's runs as the (3, n) row, start and end array Blob.runs holds."""
    return np.array(_runs(mask))


def paint(runs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The boolean mask of ``shape`` whose runs are ``runs``."""
    out = np.zeros(shape, dtype=bool)
    for y, start, end in np.asarray(runs).T.tolist():
        out[y, start:end] = True
    return out


def label_runs(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``(roots, flat, (row, start, end, component))`` of a mask, from _runs and _link.

    ``flat`` is the mask's flat foreground indices, as label_runs_unionfind
    returns them.
    """
    run_y, start, end = _runs(mask)
    roots, component = _link(run_y, start, end, np.shape(mask)[0], connectivity)
    return roots, np.flatnonzero(mask), (run_y, start, end, component)


def filled_mask(mask: np.ndarray) -> np.ndarray:
    """fill_holes of a mask, painted back into a mask."""
    return paint(fill_holes(mask_runs(mask), mask.shape), mask.shape)


def distance_of(mask: np.ndarray) -> np.ndarray:
    """distance_transform of a mask, from its runs."""
    return distance_transform(mask_runs(mask), mask.shape)


def target_edt(target: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest True pixel, unpadded.

    The library's offset pass over the oracle row pass.
    """
    return _offset_pass(row_distances(target))
