"""Hashing of frozen tree nodes, shared by the formula and filter trees."""

from __future__ import annotations


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
