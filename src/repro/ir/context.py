"""Compilation context: dialect registry and shared state."""

from __future__ import annotations

from typing import Dict, List, Optional

from .core import OP_REGISTRY


class Dialect:
    """A namespace of operations, types and attributes."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description

    @property
    def operations(self) -> List[str]:
        prefix = self.name + "."
        return sorted(op for op in OP_REGISTRY if op.startswith(prefix))

    def __repr__(self) -> str:
        return f"<Dialect {self.name}>"


class Context:
    """Owns dialect registrations for one compilation.

    The op registry itself is process-global (op classes are Python
    classes); the context tracks which dialects a pipeline has loaded so
    verification can reject ops from unloaded dialects.
    """

    def __init__(self, load_all: bool = True):
        self._dialects: Dict[str, Dialect] = {}
        if load_all:
            self.load_all_available_dialects()

    def load_dialect(self, dialect: Dialect) -> Dialect:
        self._dialects[dialect.name] = dialect
        return dialect

    def load_all_available_dialects(self) -> None:
        from .. import dialects as dialect_package

        for dialect in dialect_package.all_dialects():
            self.load_dialect(dialect)
        self.load_dialect(Dialect("builtin", "built-in module/function ops"))
        self.load_dialect(Dialect("func", "function abstraction"))

    def get_dialect(self, name: str) -> Optional[Dialect]:
        return self._dialects.get(name)

    def is_loaded(self, dialect_name: str) -> bool:
        return dialect_name in self._dialects

    @property
    def loaded_dialects(self) -> List[str]:
        return sorted(self._dialects)
