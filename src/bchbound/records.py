"""Frozen value records as plain classes, with no generated code.

A record class names its fields once, as the parameters of an explicit
__init__, which runs the record's checks and stores the fields in the
instance's __dict__.  Record reads the field list off that signature into
__match_args__ and gives the rest: assigning or deleting an attribute
raises AttributeError, records of one class are equal when their fields
are, the hash is that of the field values, and the repr is
Name(field=value, ...).  Derived values (functools.cached_property, and
the key below) are stored in __dict__ on first read and take no part in
equality, hashing or the repr.
"""

from functools import cached_property


class Record:
    """Base of the package's frozen value records."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def _key(self) -> tuple:
        """The field values, read once: a record never changes them."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A copy of record with some fields changed, made through __init__, so
    its checks run again; TypeError for a name that is not a field."""
    fields = {name: getattr(record, name) for name in record.__match_args__}
    return type(record)(**{**fields, **changes})
