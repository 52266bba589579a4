"""Unit constants shared by the reliability and performance models."""

HOURS_PER_YEAR = 24 * 365
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_YEAR = HOURS_PER_YEAR * SECONDS_PER_HOUR

#: 1 FIT = one failure per billion device-hours.
FIT_HOURS = 1e9

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: DRAM refresh period assumed throughout the paper (Section II-B).
REFRESH_PERIOD_MS = 64.0
REFRESH_PERIOD_S = REFRESH_PERIOD_MS / 1e3

