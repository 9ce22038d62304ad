"""Hashing of frozen tree nodes, and the boolean connectives ``Not``,
``And`` and ``Or``, shared by the formula and filter trees. A
connective's operands are filters in a filter and formulas in a
formula; each evaluator dispatches on the classes itself."""

from __future__ import annotations

from dataclasses import dataclass


def hashed_once(cls):
    """Class decorator for a frozen dataclass that is a node of a tree.
    Apply it above ``@dataclass(frozen=True)``: the hash the dataclass
    generated from the fields is computed on first use and kept on the
    node; its children keep theirs too, so a lookup costs O(1) however
    deep the node is. Equality stays structural. The kept hash is left
    out of the pickled state, because string hashes differ between
    processes. It is stored with ``object.__setattr__``, not by writing
    ``self.__dict__[...]`` directly, which made every later attribute
    read on the node about twice as slow."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = field_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@hashed_once
@dataclass(frozen=True)
class Not:
    operand: object


@hashed_once
@dataclass(frozen=True)
class And:
    left: object
    right: object


@hashed_once
@dataclass(frozen=True)
class Or:
    left: object
    right: object
