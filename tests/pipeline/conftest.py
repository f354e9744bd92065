"""Shared helpers of the pipeline tests."""


def assert_accounted(result, prior=()):
    """Every received update is counted exactly once::

        received == archived + ingest_dropped + flagged + discarded
                    + gill_dropped + archive_lost

    ``archived`` is the sum of ``segment.count`` over the run's
    segments, less those in ``prior`` (what the archive held before the
    run: an earlier epoch, or the durable prefix a resume starts from).
    A run without an archive seals nothing; its retained updates went
    to the mirror alone and stand in for ``archived``.  The runtime's
    own drain check, ``result.accounted``, must hold too.
    """
    m = result.metrics
    sup = m.supervision
    if result.segments:
        archived = sum(s.count for s in result.segments) \
            - sum(s.count for s in prior)
    else:
        archived = m.retained
    counted = (archived + m.ingest_dropped + m.flagged + m.discarded
               + m.gill_dropped + sup.archive_lost)
    assert m.received == counted, (
        f"lost updates: received={m.received} archived={archived} "
        f"dropped={m.ingest_dropped} flagged={m.flagged} "
        f"discarded={m.discarded} gill_dropped={m.gill_dropped} "
        f"archive_lost={sup.archive_lost}"
    )
    assert result.accounted
