"""Exact-arithmetic checks for rigidity of Airy local systems."""

__version__ = "0.1.0"


class VerificationError(AssertionError):
    """A computed identity that the construction guarantees does not hold.

    Raised explicitly rather than through ``assert``, so the check still runs
    under ``python -O``.  It subclasses AssertionError so that callers which
    report failed assertions as check failures catch it too.
    """
