"""Exact-arithmetic checks for rigidity of Airy local systems."""

__version__ = "0.1.0"


class VerificationError(AssertionError):
    """A computed identity that the construction guarantees does not hold.

    Raised explicitly rather than through ``assert``, so the check still runs
    under ``python -O``.  It subclasses AssertionError so that callers which
    report failed assertions as check failures catch it too.
    """


class Record:
    """A plain value class: what `dataclasses` would generate, without its
    import cost.

    A subclass names its fields, in order, in `_fields` and sets them in
    `__init__`.  Instances of one class with equal fields are equal, and they
    print as ``Name(field=value, ...)``; other attributes take no part in
    either.  A Record is unhashable.  It has no `__slots__`, so
    `copy.deepcopy` and `pickle` restore its attributes without calling
    `__setattr__`.
    """

    _fields = ()
    __hash__ = None

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({body})"


class Frozen(Record):
    """A Record that hashes like the tuple of its fields and refuses
    assignment.  `__init__` sets each attribute once with
    `object.__setattr__`, not through `self.__dict__`: CPython builds that
    dict on first use, and attribute loads on the instance are slower
    after."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
