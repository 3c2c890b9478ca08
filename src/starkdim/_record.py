"""Immutable value records, the base of the package's result types.

A record class writes its own ``__init__``: the parameters name its fields,
in order, and the body checks them and stores each one in the instance
``__dict__``.  The base adds what ``@dataclass(frozen=True)`` would, without
importing ``dataclasses`` (and with it ``inspect``) or generating methods
through ``exec`` at import: field-wise ``==`` between instances of the same
class, a hash of the field values, the ``Name(field=value, ...)`` repr, and
assignment or deletion raising ``AttributeError``.  Values a method computes
once (``functools.cached_property``) live in the ``__dict__`` beside the
fields and take no part in ``==``, ``hash`` or ``repr``.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        # the field values, compared and hashed (a lone field's value bare);
        # an attrgetter is no descriptor, so it is called as _values(self)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
