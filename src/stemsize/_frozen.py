"""`Frozen`: the base of the package's immutable value classes.

A subclass lists its fields in ``__slots__``, in constructor order.  From
that list the base derives the constructor, equality (only between instances
of the same class, field by field), a hash that agrees with it, the
``Name(field=value, ...)`` repr, pickling and copying by re-construction (so
validation runs again), assignment and deletion that raise ``AttributeError``,
and the JSON dict ``to_json_obj()``: the names in the class tuple ``_json``
(``__slots__`` unless a class sets it to reorder keys or add a property), in
that order, a value class as its own dict and a tuple as a list.  Only
`Constants`, whose keys are not its field names, writes its own.

The derived ``__init__`` is a function generated once per class, as
`collections.namedtuple` builds its ``__new__``: it takes the fields
positionally or by keyword under Python's own signature rules, and costs per
object what a hand-written one does.  A default goes on its ``__defaults__``
(``RatioProfile.__init__.__defaults__ = ((),)``).  A class that validates its
fields states the checks in a ``_check`` method, which the derived
``__init__`` calls once every field is set; a class without one pays nothing
for it.

It stands in for the standard library's frozen data classes: importing their
module and generating each class's methods cost every cold CLI call about
30 ms of thread time (2-vCPU VM, Python 3.11.7).
"""

from __future__ import annotations

__all__ = ["Frozen"]

# Sets a field in __init__, past the raising __setattr__; a module-level name
# is one lookup cheaper per field than spelling out object.__setattr__.
set_field = object.__setattr__


def _json_value(value):
    form = _JSON_FORMS.get(type(value))
    return value if form is None else form(value)


# The types not written as they are: tuple, and each Frozen class as defined.
_JSON_FORMS = {tuple: lambda items: [_json_value(v) for v in items]}


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__dict__.get("__slots__")
        if fields and "__init__" not in cls.__dict__:
            body = "".join(f"\n    set_field(self, {name!r}, {name})" for name in fields)
            if hasattr(cls, "_check"):
                body += "\n    self._check()"
            namespace = {"set_field": set_field, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._json = cls.__dict__.get("_json", cls.__slots__)
        _JSON_FORMS[cls] = cls.to_json_obj

    def to_json_obj(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in self._json}

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
