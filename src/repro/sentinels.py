"""Markers below both the engine and the pipeline: :data:`TRUNCATED` is
a pipeline value (re-exported by ``repro.core.rules``) that the engine's
table store must also hold."""


class _TruncatedType:
    """Singleton marker type behind :data:`TRUNCATED`."""

    __slots__ = ()

    def __repr__(self):
        return "TRUNCATED"

    def __reduce__(self):
        return (_get_truncated, ())


def _get_truncated():
    return TRUNCATED


#: Sentinel value for "payload too short to extract this signal": the
#: skip-mode interpretation marks truncated rows with it (so they can
#: be counted) before dropping them from ``K_s``. Picklable as the one
#: singleton, so identity checks survive worker-process round trips.
TRUNCATED = _TruncatedType()
