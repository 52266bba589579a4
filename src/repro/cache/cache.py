"""Set-associative cache with LRU replacement and write-back policy."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Cache:
    """A write-back, write-allocate set-associative cache.

    Operates on line addresses (byte address // line size is done by the
    caller or via :meth:`line_of`). Each set is an ordered dict mapping
    tag -> dirty flag, with LRU order maintained by re-insertion.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64, name: str = ""):
        if size_bytes % (ways * line_bytes):
            raise ValueError("size must be a multiple of ways * line size")
        self.name = name or f"cache-{size_bytes // 1024}KB"
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (ways * line_bytes)
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def line_of(self, address: int) -> int:
        return address // self.line_bytes

    def _set_index(self, line: int) -> int:
        return line % self.n_sets

    # -- operations --------------------------------------------------------------
    #
    # These four methods are the simulator's innermost loop (millions of
    # calls per campaign cell); the set index is computed inline rather
    # than via _set_index to avoid a method call per probe.

    def lookup(self, line: int, is_write: bool = False) -> bool:
        """Probe for a line; updates LRU and dirty state on hit."""
        entry = self._sets[line % self.n_sets]
        if line in entry:
            entry.move_to_end(line)
            if is_write:
                entry[line] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line; returns the evicted ``(line, dirty)`` if any."""
        entry = self._sets[line % self.n_sets]
        if line in entry:
            if dirty and not entry[line]:
                entry[line] = True
            entry.move_to_end(line)
            return None
        victim = None
        if len(entry) >= self.ways:
            victim = entry.popitem(last=False)
            stats = self.stats
            stats.evictions += 1
            if victim[1]:
                stats.writebacks += 1
        entry[line] = dirty
        return victim

    def invalidate(self, line: int) -> Optional[bool]:
        """Drop a line (inclusion back-invalidate); returns its dirty flag."""
        return self._sets[line % self.n_sets].pop(line, None)

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.n_sets]
