"""Immutable value records.

The package's small value types (lattice elements, sieves, assignments,
table bundles) derive from `Record` instead of frozen dataclasses: the
``dataclasses`` module imports ``inspect``, ``ast`` and ``dis``, and its
decorator generates each class's methods with ``exec``, which together cost
every CLI process a noticeable share of its start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, hashing and a ``Name(field=value, ...)`` repr over the
    fields named in a subclass's ``__slots__``, in that order; assigning or
    deleting a field raises ``AttributeError``.

    A subclass writes its own ``__init__``, taking the fields in slot order
    and setting each with ``object.__setattr__``. Records of different
    classes never compare equal.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the field values as a tuple; attrgetter of one name returns the
        # value itself
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values
