"""Exception types shared across the package."""


class CrlError(Exception):
    """Base class for errors raised by this package."""


class DataError(CrlError):
    """Malformed, inconsistent, or misaligned input data."""


class SearchError(CrlError):
    """Training or tuning cannot proceed (bad pool, impossible constraints)."""
