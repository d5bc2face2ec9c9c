"""Disk managers: the physical layer beneath the buffer pool.

Two backends with the same interface:

* :class:`MemoryDisk` — pages live in a dict; "physical I/O" is counted but
  costs only a memcpy.  This is the default for tests and benchmarks — the
  paper's experiments measure *relative* I/O volume, which the counters
  capture exactly.
* :class:`FileDisk` — pages are appended to a real file (updates append a
  new version; :meth:`FileDisk.compact` rewrites).  Used by the persistence
  tests and available for workloads larger than memory.

Both count physical reads and writes in **page units**: a jumbo page of
``n`` x PAGE_SIZE bytes charges ``ceil(n)`` units, so oversized records pay
proportional I/O, as they would in a real system.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Tuple

from ...errors import StorageError
from .page import PAGE_SIZE

__all__ = ["IoCounters", "Disk", "MemoryDisk", "FileDisk"]


@dataclass
class IoCounters:
    """Physical I/O statistics, in PAGE_SIZE units."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


def _units(nbytes: int, page_size: int) -> int:
    return max(1, math.ceil(nbytes / page_size))


class Disk:
    """Interface of a page-addressed disk."""

    page_size: int
    counters: IoCounters

    def allocate(self) -> int:
        """Reserve a new page id (no I/O)."""
        raise NotImplementedError

    def read_page(self, page_id: int) -> bytearray:
        raise NotImplementedError

    def write_page(self, page_id: int, data: bytes) -> None:
        raise NotImplementedError

    def __contains__(self, page_id: int) -> bool:
        raise NotImplementedError


class MemoryDisk(Disk):
    """An in-memory page store with physical-I/O accounting."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.counters = IoCounters()
        self._pages: Dict[int, bytes] = {}
        self._next_id = 0

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def read_page(self, page_id: int) -> bytearray:
        data = self._pages.get(page_id)
        if data is None:
            raise StorageError(f"page {page_id} was never written")
        self.counters.reads += _units(len(data), self.page_size)
        return bytearray(data)

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id >= self._next_id:
            raise StorageError(f"page {page_id} was not allocated")
        self.counters.writes += _units(len(data), self.page_size)
        self._pages[page_id] = bytes(data)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def bytes_stored(self) -> int:
        return sum(len(p) for p in self._pages.values())


class FileDisk(Disk):
    """A file-backed page store (append-only with an in-memory page table).

    Every write appends the page image and updates the page table; the file
    grows until :meth:`compact` rewrites it with only the latest versions.
    """

    def __init__(self, path: str, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.counters = IoCounters()
        self._path = path
        self._file = open(path, "a+b")
        self._table: Dict[int, Tuple[int, int]] = {}  # page_id -> (offset, length)
        self._next_id = 0

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def read_page(self, page_id: int) -> bytearray:
        entry = self._table.get(page_id)
        if entry is None:
            raise StorageError(f"page {page_id} was never written")
        offset, length = entry
        self._file.seek(offset)
        data = self._file.read(length)
        if len(data) != length:
            raise StorageError(f"short read for page {page_id}")
        self.counters.reads += _units(length, self.page_size)
        return bytearray(data)

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id >= self._next_id:
            raise StorageError(f"page {page_id} was not allocated")
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        self._file.write(data)
        self._file.flush()
        self._table[page_id] = (offset, len(data))
        self.counters.writes += _units(len(data), self.page_size)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._table

    def compact(self) -> None:
        """Rewrite the file keeping only the latest page versions."""
        images = {pid: bytes(self.read_page(pid)) for pid in sorted(self._table)}
        self._file.close()
        self._file = open(self._path, "w+b")
        self._table.clear()
        for pid, data in images.items():
            offset = self._file.tell()
            self._file.write(data)
            self._table[pid] = (offset, len(data))
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
