"""Pairwise sequence alignment algorithms.

All aligners share the affine-gap Gotoh dynamic-programming engine in
:mod:`repro.genomics.align.gotoh` and return an
:class:`~repro.genomics.align.result.AlignmentResult`.

- :func:`needleman_wunsch` — global alignment (the NW benchmark, and
  GASAL2 ``GG``).
- :func:`smith_waterman` — local alignment (the SW benchmark, GASAL2
  ``GL``).
- :func:`semi_global` — query fully aligned, free target end-gaps
  (GASAL2 ``GSG``).
- :func:`banded_global` — KSW-style banded alignment (GASAL2 ``GKSW``).
"""

from repro.genomics.align.result import AlignmentResult
from repro.genomics.align.gotoh import (
    AlignmentMode,
    align,
    needleman_wunsch,
    smith_waterman,
    semi_global,
)
from repro.genomics.align.banded import banded_global

__all__ = [
    "AlignmentMode",
    "AlignmentResult",
    "align",
    "needleman_wunsch",
    "smith_waterman",
    "semi_global",
    "banded_global",
]
