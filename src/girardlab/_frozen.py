"""The base of the package's immutable value classes.

A subclass sets its attributes in `__init__` through `object.__setattr__`
and names the fields its repr shows in `_repr_fields`; after that, any
assignment or deletion raises AttributeError.  Equality and hashing stay
with each subclass, over the fields it compares.

The package does not use `dataclasses`: that module and the `inspect`,
`ast` and `dis` it imports took longer to load than the rest of
`import girardlab.cli`, which every CLI invocation pays first.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()
    _repr_fields: tuple[str, ...]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        """Fill in a copied or unpickled instance, past the guard: `state`
        is the instance `__dict__`, or a (`__dict__` or None, slot values)
        pair."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)
