"""Rooted finite metric trees with tagged vertices.

Vertices carry opaque payloads (ball-model points, or plain labels) plus a
tuple of string tags; every non-root vertex stores its parent and the length
of the connecting edge, an element of Q union {inf}.  The structure is
immutable; the child lists are read off the parent pointers in one pass
when a tree is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError
from .gamma import Gamma

__all__ = ["MetricTree"]


@dataclass(frozen=True, slots=True)
class MetricTree:
    """A rooted tree with edge lengths in Q union {inf}.

    ``parent[i]`` is the parent index of vertex i (None exactly at the
    root) and ``lengths[i]`` is the length of the edge toward the parent
    (None exactly at the root).  ``tags[i]`` lists the divisor labels
    attached to vertex i, possibly empty.
    """

    points: tuple
    parent: tuple
    lengths: tuple
    tags: tuple
    root: int
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kids: dict = {}
        for j, p in enumerate(self.parent):
            if p is not None:
                kids.setdefault(p, []).append(j)
        object.__setattr__(self, "_children", {p: tuple(js) for p, js in kids.items()})

    @property
    def n(self) -> int:
        return len(self.points)

    def children(self, i: int) -> tuple[int, ...]:
        return self._children.get(i, ())

    def degree(self, i: int) -> int:
        return len(self.children(i)) + (0 if self.parent[i] is None else 1)

    def edges(self) -> list[tuple[int, int, Gamma]]:
        """Edges as (parent, child, length), ordered by child index."""
        return [
            (p, i, self.lengths[i])
            for i, p in enumerate(self.parent)
            if p is not None
        ]

    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.degree(i) == 1)

    def validate(self) -> None:
        n = self.n
        if not (len(self.parent) == len(self.lengths) == len(self.tags) == n):
            raise PreconditionError("tree arrays have mismatched lengths")
        if n == 0 or not (0 <= self.root < n):
            raise PreconditionError("tree root out of range")
        if self.parent[self.root] is not None or self.lengths[self.root] is not None:
            raise PreconditionError("root must have no parent edge")
        for i in range(n):
            if i == self.root:
                continue
            p = self.parent[i]
            if not isinstance(p, int) or not (0 <= p < n):
                raise PreconditionError(f"vertex {i} has no valid parent")
            length = self.lengths[i]
            if not isinstance(length, Gamma) or not length > 0:
                raise PreconditionError(f"edge into vertex {i} must have positive length")
        # every vertex must reach the root without cycles
        for i in range(n):
            seen = set()
            j = i
            while j != self.root:
                if j in seen:
                    raise PreconditionError("parent pointers form a cycle")
                seen.add(j)
                j = self.parent[j]
