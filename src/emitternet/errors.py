"""Exception hierarchy shared across the toolkit."""
from __future__ import annotations


class EmitterNetError(Exception):
    """Base class for all toolkit errors."""


class DomainError(EmitterNetError, ValueError):
    """A parameter or precondition violates an operation's domain."""


class LineListError(EmitterNetError):
    """Malformed or invalid line-list data.

    ``row`` is the 1-based file row (header row is 1), ``column`` the
    offending column name when known.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class PeakDetectionError(EmitterNetError):
    """Fewer candidate peaks were found than requested."""

    def __init__(self, requested: int, found: int):
        super().__init__(
            f"requested {requested} peak(s) but only found {found} "
            f"local maxima above the background estimate"
        )
        self.requested = requested
        self.found = found


class ClassificationError(EmitterNetError):
    """Three-peak spectrum is inconsistent with the splitting prior."""

    def __init__(self, zfs1_ghz: float, zfs2_ghz: float, message: str):
        super().__init__(message)
        self.zfs1_ghz = zfs1_ghz
        self.zfs2_ghz = zfs2_ghz


class ProtocolError(EmitterNetError):
    """A heralding step has zero probability; the protocol cannot proceed."""


class ConfigError(EmitterNetError):
    """Run configuration violates the published schema."""


class SummaryError(EmitterNetError):
    """A ``*_summary.json`` file is not valid JSON or not a command summary,
    or a second summary of the same command."""


class UsageError(EmitterNetError):
    """Command line arguments are malformed."""
