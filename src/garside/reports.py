"""Structured results for the verification-style operations, and the
plain record bases that the package's result classes share."""

__all__ = ["VerificationReport", "GridError"]


class Record:
    """A plain record: field-wise ``==`` and a ``repr`` naming each
    field, both over the attribute names in ``_fields``.  Like a mutable
    dataclass, a record is unhashable."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record that hashes by its field values and rejects assignment
    with ``AttributeError``; ``__init__`` sets the fields with
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# raised by ``normal``, defined here so that the command line can map it
# to an exit code without loading that layer
class GridError(Exception):
    """The requested derivation does not exist or could not be closed."""


class VerificationReport(Record):
    """Outcome of a bounded check.

    ``status`` is ``"pass"`` or ``"fail"``.  ``complete`` is False when a
    search bound was exhausted, so a ``pass`` is only conclusive up to
    the stated bound.  ``details`` carries check-specific extras.
    """

    _fields = ("check", "status", "bound", "witness", "complete", "details")

    def __init__(self, check, status, bound=None, witness=None,
                 complete=True, details=None):
        self.check = check
        self.status = status
        self.bound = bound
        self.witness = witness
        self.complete = complete
        self.details = {} if details is None else details

    @property
    def passed(self):
        return self.status == "pass"

    def summary(self):
        parts = [f"{self.check}: {self.status}"]
        if self.bound is not None:
            parts.append(f"(bound {self.bound})")
        if not self.complete:
            parts.append("[search bound reached; possibly incomplete]")
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        return " ".join(parts)
