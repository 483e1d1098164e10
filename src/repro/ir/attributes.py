"""Attributes attach compile-time constant information to operations."""

from __future__ import annotations

from typing import Sequence, Tuple

from .types import Type


class Attribute:
    """Base class for all attributes.  Immutable, structurally compared."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return str(self)


class IntegerAttr(Attribute):
    def __init__(self, value: int):
        self.value = int(value)

    def _key(self) -> tuple:
        return (self.value,)

    def __str__(self) -> str:
        return str(self.value)


class FloatAttr(Attribute):
    def __init__(self, value: float):
        self.value = float(value)

    def _key(self) -> tuple:
        return (self.value,)

    def __str__(self) -> str:
        text = repr(self.value)
        return text if ("." in text or "e" in text) else text + ".0"


class BoolAttr(Attribute):
    def __init__(self, value: bool):
        self.value = bool(value)

    def _key(self) -> tuple:
        return (self.value,)

    def __str__(self) -> str:
        return "true" if self.value else "false"


class UnitAttr(Attribute):
    """A flag whose presence is the whole value; attribute dictionaries
    print and parse it as the bare key (``{no_vectorize}``)."""

    def __str__(self) -> str:
        return "unit"


class StringAttr(Attribute):
    def __init__(self, value: str):
        self.value = value

    def _key(self) -> tuple:
        return (self.value,)

    def __str__(self) -> str:
        return f'"{self.value}"'


class TypeAttr(Attribute):
    def __init__(self, value: Type):
        self.value = value

    def _key(self) -> tuple:
        return (self.value,)

    def __str__(self) -> str:
        return str(self.value)


class ArrayAttr(Attribute):
    def __init__(self, elements: Sequence[Attribute]):
        self.elements: Tuple[Attribute, ...] = tuple(elements)

    def _key(self) -> tuple:
        return (self.elements,)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> Attribute:
        return self.elements[i]

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.elements) + "]"


class SymbolRefAttr(Attribute):
    """Reference to a named symbol (e.g. a function)."""

    def __init__(self, name: str):
        self.name = name

    def _key(self) -> tuple:
        return (self.name,)

    def __str__(self) -> str:
        return f"@{self.name}"


class AffineMapAttr(Attribute):
    """Wraps an :class:`repro.ir.affine_map.AffineMap`."""

    def __init__(self, map_):
        self.map = map_

    def _key(self) -> tuple:
        return (self.map,)

    def __str__(self) -> str:
        return str(self.map)


def int_array_attr(values: Sequence[int]) -> ArrayAttr:
    return ArrayAttr([IntegerAttr(v) for v in values])


def attr_from_python(value) -> Attribute:
    """Wrap a plain Python value in the matching attribute class."""
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        return BoolAttr(value)
    if isinstance(value, int):
        return IntegerAttr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    if isinstance(value, str):
        return StringAttr(value)
    if isinstance(value, Type):
        return TypeAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr([attr_from_python(v) for v in value])
    raise TypeError(f"cannot convert {value!r} to an attribute")
