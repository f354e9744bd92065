"""repro.gill — online redundancy filtering in the ingest hot path.

The paper's thesis made live: overshoot on vantage points, then discard
the redundant fraction of the stream *before* it reaches the archive,
keeping anchor VPs so the dropped data stays reconstitutable (§3-§4).
:class:`GillStage` runs between the pipeline's watermark-ordered writer
heap and the rolling archive; :mod:`repro.gill.incremental` holds the
streaming twins of the batch §4.2 machinery (correlation groups, event
detection, VP scoring) with differential parity tests;
:mod:`repro.gill.journal` persists per-segment drop accounting that
survives crash/resume byte-identically.

See docs/GILL.md for the design and tuning guide.
"""

from .incremental import (
    IncrementalCorrelationGroups,
    IncrementalVPScorer,
)
from .journal import GillJournal, gill_journal_path_for
from .stage import GillConfig, GillStage

__all__ = [
    "GillConfig",
    "GillStage",
    "GillJournal",
    "gill_journal_path_for",
    "IncrementalCorrelationGroups",
    "IncrementalVPScorer",
]
