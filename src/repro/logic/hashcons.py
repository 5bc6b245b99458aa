"""Hash-consed logic nodes: one object per structure within a check.

Every ConfRel and FOL(BV) node class derives from :class:`Node`.  Inside a
:func:`scope` — opened by each check, next to its counter ledger — building
a node that is structurally equal to one already built returns that same
object (hash-consing: Filliâtre & Conchon, "Type-Safe Modular Hash-Consing",
ML Workshop 2006).  Children are shared objects too, so the table lookup
hashes a tuple of cached child hashes and compares children by identity:
constant time per node, however deep the tree.

Identity is only the fast path.  ``==`` and ``hash()`` stay structural, so
nodes built outside a check, in a test or in another process compare equal
to their twins, and any dict keyed on nodes is a correct memo; inside a
check each lookup is an identity hit.  The table lives in a context
variable, so checks on different threads never share one, and it is dropped
with the check, so no node outlives the work that built it.  The scope also
holds per-node memos (:func:`memo`) for passes such as lowering and variable
canonicalization, which likewise die with the check.

Nodes are immutable and slotted.  They pickle through their constructor,
never with their cached hash: ``hash()`` of a string differs between
processes, so an unpickled node recomputes it (and joins the open table).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple


class _Scope:
    """The node table and per-node memos of one check."""

    __slots__ = ("nodes", "memos")

    def __init__(self) -> None:
        self.nodes: Dict[tuple, "Node"] = {}
        self.memos: Dict[str, dict] = {}


_SCOPE: ContextVar[Optional[_Scope]] = ContextVar("repro_hashcons", default=None)


@contextmanager
def scope() -> Iterator[None]:
    """Open a check's node table, or join the one already open."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set(_Scope())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def memo(name: str) -> dict:
    """The open check's memo called ``name`` (a throwaway dict outside one)."""
    current = _SCOPE.get()
    if current is None:
        return {}
    table = current.memos.get(name)
    if table is None:
        table = current.memos[name] = {}
    return table


class Node:
    """An immutable logic node, interned within the open :func:`scope`.

    A subclass's own ``__slots__`` are its constructor arguments, in order
    (``_fields``); derived slots such as ``width`` belong to a base class,
    and :meth:`_init` validates a new node and fills them.  Nullary
    subclasses are module constants (:func:`constant`).
    """

    __slots__ = ("_hash",)
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("__slots__", ())

    def __new__(cls, *args):
        key = (cls, *args)
        current = _SCOPE.get()
        if current is not None:
            node = current.nodes.get(key)
            if node is not None:
                return node
        if len(args) != len(cls._fields):
            raise TypeError(
                f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}"
            )
        node = object.__new__(cls)
        for name, value in zip(cls._fields, args):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_hash", hash(key))
        node._init()
        if current is not None:
            current.nodes[key] = node
        return node

    def _init(self) -> None:
        """Validate a newly built node and set its derived slots."""

    def _derive(self, name: str, value) -> None:
        object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self) or self._hash != other._hash:
            return False
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def constant(cls):
    """The one instance of a nullary node class, shared by every scope."""
    node = object.__new__(cls)
    object.__setattr__(node, "_hash", hash((cls,)))
    return node
