"""Byte-accounted LRU chunk cache (paper §V-B).

Every rendering node has a system-memory limit; when a new chunk must be
loaded and the limit is reached, the least-recently-used cached chunks
are released.  The head node additionally keeps a *mirror* of each node's
cache (the ``Cache`` table) so it can predict hits at scheduling time —
that mirror is the same class.

The cache is keyed by :class:`repro.core.chunks.Chunk` objects (hashable,
frozen) and accounts capacity in bytes, since chunks are not necessarily
equal-sized.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps cluster<-core one-way)
    from repro.core.chunks import Chunk


class ChunkTooLargeError(ValueError):
    """A chunk exceeds the cache capacity outright."""


class LRUChunkCache:
    """An LRU cache of data chunks with a byte-capacity budget.

    ``touch``/``contains`` implement the lookup path; ``insert`` loads a
    chunk, evicting least-recently-used entries until it fits and
    returning the eviction list (the head node uses it to keep its mirror
    and the ``Cache`` table consistent).

    An optional ``observer`` callable — ``observer(kind, chunk)`` with
    ``kind`` in ``{"insert", "evict"}`` — fires on mutations, letting the
    observability layer emit cache instants without the cache knowing
    about tracers.  It is ``None`` by default (one identity check per
    mutation; the ``touch`` hot path is untouched).
    """

    __slots__ = ("capacity", "observer", "_entries", "_used")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(check_positive("capacity", capacity))
        self.observer = None
        self._entries: "OrderedDict[Chunk, int]" = OrderedDict()
        self._used = 0

    # -- inspection --------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Bytes currently free."""
        return self.capacity - self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, chunk: "Chunk") -> bool:
        return chunk in self._entries

    def __iter__(self) -> Iterator["Chunk"]:
        """Iterate chunks from least to most recently used."""
        return iter(self._entries)

    def chunks(self) -> List["Chunk"]:
        """Cached chunks, least recently used first."""
        return list(self._entries)

    def lru_chunk(self) -> Optional["Chunk"]:
        """The least-recently-used chunk, or None if empty."""
        return next(iter(self._entries), None)

    # -- mutation ----------------------------------------------------------

    def touch(self, chunk: "Chunk") -> bool:
        """Mark ``chunk`` most-recently-used.  Returns True on hit."""
        if chunk in self._entries:
            self._entries.move_to_end(chunk)
            return True
        return False

    def insert(self, chunk: "Chunk") -> List["Chunk"]:
        """Load ``chunk`` into the cache, evicting LRU entries as needed.

        If the chunk is already cached this is equivalent to
        :meth:`touch` and evicts nothing.

        Returns:
            The chunks evicted to make room (possibly empty).

        Raises:
            ChunkTooLargeError: If ``chunk.size`` exceeds the capacity —
                the configuration bug the paper guards against by bounding
                ``Chkmax`` by node memory.
        """
        if chunk.size > self.capacity:
            raise ChunkTooLargeError(
                f"chunk {chunk} of {chunk.size} bytes exceeds cache capacity "
                f"{self.capacity}"
            )
        entries = self._entries
        if chunk in entries:
            entries.move_to_end(chunk)
            return []
        evicted: List["Chunk"] = []
        while self._used + chunk.size > self.capacity:
            victim, size = entries.popitem(last=False)
            self._used -= size
            evicted.append(victim)
        entries[chunk] = chunk.size
        self._used += chunk.size
        if self.observer is not None:
            for victim in evicted:
                self.observer("evict", victim)
            self.observer("insert", chunk)
        return evicted

    def evict(self, chunk: "Chunk") -> bool:
        """Explicitly remove ``chunk``.  Returns True if it was present."""
        size = self._entries.pop(chunk, None)
        if size is None:
            return False
        self._used -= size
        if self.observer is not None:
            self.observer("evict", chunk)
        return True

    def clear(self) -> None:
        """Drop every cached chunk.

        The observer sees one evict per dropped chunk — a node crash or
        cache wipe ends every residency interval in the trace, exactly
        like ordinary LRU pressure would.
        """
        if self.observer is not None:
            for chunk in list(self._entries):
                self.observer("evict", chunk)
        self._entries.clear()
        self._used = 0

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property-based tests)."""
        total = sum(self._entries.values())
        if total != self._used:
            raise AssertionError(f"byte accounting drift: {total} != {self._used}")
        if self._used > self.capacity:
            raise AssertionError(f"over capacity: {self._used} > {self.capacity}")
        for chunk, size in self._entries.items():
            if chunk.size != size:
                raise AssertionError(f"stale size for {chunk}")


__all__ = ["LRUChunkCache", "ChunkTooLargeError"]
