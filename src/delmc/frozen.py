"""One frozen base for the package's immutable value classes.

The formula and term nodes and the records (carriers, relations, frames,
frame maps, models, updates and reports) are values: built once, never
assigned to, equal when their fields are.  Each subclasses ``Frozen``
under ``@dataclass(init=False, repr=False, eq=False)``.  The decorator
only records the fields, so ``dataclasses.fields``, ``replace`` and
``is_dataclass`` work on every value.  ``Frozen`` supplies from the field
list what ``@dataclass(frozen=True)`` would otherwise compile from source
text, for each class, at import:

- ``__init__`` takes the fields positionally or by keyword, fills plain
  defaults, then calls ``__post_init__``;
- ``__eq__`` needs the same class and equal field tuples;
- ``__hash__`` is the hash of the field tuple;
- ``__repr__`` reads ``Name(first=..., second=...)``;
- assignment and deletion raise ``FrozenInstanceError``.

The field list is read from the class's own annotations when the class is
made, so a field's default is a plain class attribute (no ``field()``), and
a class with its own docstring spares ``@dataclass`` from writing one out
of ``inspect.signature``.  A class may still define any of these methods
itself; ``__post_init__`` may set derived or coerced attributes with
``object.__setattr__``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Callable, Mapping, Tuple


def _getter(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """A function from an instance to the tuple of its values at names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda obj: (one(obj),)
    return lambda obj: ()


class Frozen:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()

    # set per class by __init_subclass__: every field's name, in order, the
    # defaults of the trailing fields that have one, and how many have none
    _fields: Tuple[str, ...] = ()
    _defaults: Tuple[Any, ...] = ()
    _required = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        given = tuple(n for n in own if n in cls.__dict__)
        if given != own[len(own) - len(given):] or (cls._defaults and given != own):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._fields = cls._fields + own
        cls._defaults = cls._defaults + tuple(cls.__dict__[n] for n in given)
        cls._required = len(cls._fields) - len(cls._defaults)
        get = _getter(cls._fields)
        cls._get = staticmethod(get)  # read by __eq__ with no property in between
        cls._values = property(get, doc="The field values, in field order.")

    @classmethod
    def _bind(cls, args: Tuple[Any, ...], kwargs: Mapping[str, Any]) -> Tuple[Any, ...]:
        """The field values from a call's arguments, with defaults filled in."""
        names, required = cls._fields, cls._required
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        values = dict(zip(names[required:], cls._defaults))
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in names[:len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing argument(s): {', '.join(missing)}")
        return tuple(values[n] for n in names)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            if kwargs or not self._required <= len(args) < len(names):
                args = self._bind(args, kwargs)
            else:  # positional, with trailing defaults to fill
                args += self._defaults[len(args) - self._required:]
        d = self.__dict__
        for name, value in zip(names, args):
            d[name] = value
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks and coercions run after the fields are set; none here."""

    def __eq__(self, other: object) -> bool:
        if self is other:  # what comparing the field tuples would find
            return True
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        get = cls._get
        return get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
