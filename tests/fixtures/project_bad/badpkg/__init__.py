"""Deliberately fork-unsafe, unseeded, taxonomy-breaking mini-project.

Every module here exists to make one whole-program rule (RL001's seed
provenance, RP202-RP204) fire; the mirror package under ``project_good``
does the same work correctly.
"""

from .rng import make_rng  # noqa: F401  (re-export exercised by loader tests)
