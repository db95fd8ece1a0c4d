"""Plain value records: what the package's records share.

A Record compares and hashes by the attributes its _fields names, in
that order, and shows them in a dataclass-style repr.  It refuses
assignment once built: each subclass writes its own __init__, which
checks its arguments and sets its fields with object.__setattr__.  A
MutableRecord may be assigned to and, like a mutable dataclass, is not
hashable.  Nothing here generates or compiles code, so a record costs
its class statement at import and its own __init__ per instance.
"""

from operator import attrgetter

__all__ = ["Record", "MutableRecord"]


class Record:
    __slots__ = ()
    _fields = ()        # compared, hashed and shown, in this order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MutableRecord(Record):
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
