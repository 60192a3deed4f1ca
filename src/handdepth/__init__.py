"""Hand analysis on 11-bit raw depth frames.

Segments hands by depth band, isolates the palm with an inradius-scaled
morphological opening, finds fingertips as per-finger depth minima, and
centers the palm on the distance-transform maximum.

The top level holds the detector's entry points: ``read_pgm`` decodes a
frame, ``run_pipeline`` turns frames into reports under a
``PipelineConfig``, and ``write_report`` serializes one report.  Everything
else is imported from its submodule: the stages from ``segmentation``,
``distance``, ``morphology``, ``fingertips`` and ``tracking``; the
synthetic renderer with exact ground truth from ``synthetic``; the accuracy
scorer from ``benchmark``; and the command line from ``cli``.  Importing
the package loads neither the renderer, the scorer nor the command line.
"""

from .frame_io import read_pgm, write_report
from .pipeline import PipelineConfig, run_pipeline
