"""Cold-start probe: a fresh interpreter imports handdepth, builds the
default config and reports the first frame; the caller times the whole
process.  Prints the frame's report line so the caller can check it.

Usage: python cold_start.py FRAME.pgm
"""

import sys
from pathlib import Path

import handdepth


def main(path: str) -> int:
    config = handdepth.PipelineConfig()
    frame, _clamped = handdepth.read_pgm(Path(path).read_bytes())
    report = next(handdepth.run_pipeline([frame], config))
    sys.stdout.buffer.write(handdepth.write_report(report) + b"\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
