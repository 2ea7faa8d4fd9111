"""The one base class of the package's records.

A record is a plain slotted class: its `__slots__` name its fields in
order, and its own `__init__` stores them and runs the record's checks
as `if ...: raise`, so they also run under `python -O`.  This base gives
it equality and hashing by the tuple of its field values, as a dataclass
would, and the text `Name(field=value, ...)`; a record holding a list or
a dict sets `__hash__ = None`.  A dataclass compiles its generated
methods whenever its class is made, which a fresh process without
cached bytecode pays at import: about 0.4 ms a class with Python 3.11
on a 2-vCPU Xeon VM.

An `__init__` stores four or more fields one statement each: a tuple
assignment to more than three targets builds and unpacks a tuple, which
doubles the cost of a constructor.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"
