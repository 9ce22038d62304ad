"""Hashing of frozen tree nodes, shared by the formula and filter trees."""

from __future__ import annotations

from dataclasses import fields


def hashed_once(cls):
    """Class decorator for a frozen dataclass that is a node of a tree.
    The node's hash is computed from its fields on first use and kept on
    the node; its children keep theirs too, so a lookup costs O(1)
    however deep the node is. Equality stays structural. The kept hash
    is left out of the pickled state, because string hashes differ
    between processes. It is set as an attribute, not written into
    ``__dict__``, which would slow down every later attribute read on
    the node."""

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls
