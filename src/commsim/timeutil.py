"""UTC time bucketing helpers.

All timestamps in this package are integer seconds since the Unix epoch,
interpreted in UTC. Weekday 0 is Monday; the epoch (1970-01-01) was a
Thursday, hence the +3 shift below.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7

_EPOCH_WEEKDAY_SHIFT = 3  # 1970-01-01 was a Thursday


def day_index(ts):
    """UTC day bucket (days since epoch). Works on scalars and arrays."""
    return ts // SECONDS_PER_DAY


def hour_index(ts):
    """UTC hour bucket (hours since epoch)."""
    return ts // SECONDS_PER_HOUR


def weekday(ts):
    """UTC weekday, 0=Monday .. 6=Sunday."""
    return (day_index(ts) + _EPOCH_WEEKDAY_SHIFT) % DAYS_PER_WEEK


def hour_of_day(ts):
    """UTC hour of day, 0..23."""
    return (ts % SECONDS_PER_DAY) // SECONDS_PER_HOUR


def is_weekend(ts):
    return weekday(ts) >= 5


def week_index(ts):
    """Monday-started UTC week bucket."""
    return (day_index(ts) + _EPOCH_WEEKDAY_SHIFT) // DAYS_PER_WEEK


def flat_bin_of_hour(hour):
    """Flattened weekly bin index in 0..167 (weekday * 24 + hour of day) of
    an hour bucket (hours since epoch). Works on scalars and arrays."""
    return (((hour // HOURS_PER_DAY + _EPOCH_WEEKDAY_SHIFT) % DAYS_PER_WEEK) * HOURS_PER_DAY
            + hour % HOURS_PER_DAY)


def flat_bin_of(ts):
    """Flattened weekly bin index in 0..167 (weekday * 24 + hour)."""
    return flat_bin_of_hour(hour_index(ts))


def weekly_bin_hours(t0: int, t1: int) -> np.ndarray:
    """Exact duration, in hours, that each of the 168 weekly (weekday, hour)
    bins overlaps the interval [t0, t1).

    The per-bin totals sum to (t1 - t0) / 3600.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    out = np.zeros(DAYS_PER_WEEK * HOURS_PER_DAY)
    if t1 == t0:
        return out
    h0 = t0 // SECONDS_PER_HOUR
    h1 = (t1 - 1) // SECONDS_PER_HOUR
    n_hours = h1 - h0 + 1
    hours = np.arange(h0, h1 + 1)
    bins = flat_bin_of_hour(hours)
    overlap = np.full(n_hours, float(SECONDS_PER_HOUR))
    overlap[0] -= t0 - h0 * SECONDS_PER_HOUR
    overlap[-1] -= (h1 + 1) * SECONDS_PER_HOUR - t1
    if n_hours == 1:
        overlap[0] = t1 - t0
    np.add.at(out, bins, overlap / SECONDS_PER_HOUR)
    return out


def parse_utc(text: str) -> int:
    """Parse 'YYYY-MM-DD' or 'YYYY-MM-DD HH:MM:SS' (UTC) or integer epoch
    seconds into epoch seconds."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(dt.timestamp())
        except ValueError:
            continue
    raise ValueError(f"unrecognized timestamp: {text!r}")


def format_utc(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
