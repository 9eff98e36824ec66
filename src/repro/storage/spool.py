"""Spool — temporary files for intermediate results.

The paper keeps *all* intermediate relations on disk ("all the input
relations and all the intermediate relations are always kept on disks",
Section 4), so every binary operator writes its sample inputs to temporary
files, sorts them, and merges sorted files. :class:`SpoolFile` models one
such temporary file; :class:`Spool` is the manager that creates them and
tracks peak temporary-space usage.

Charging discipline: writing a tuple into a spool file charges
``TEMP_WRITE``; the sort and merge phases are charged by the operators
themselves (they own the cost formulas of Section 4). Reading a spool file
during a merge is charged per tuple as ``MERGE_TUPLE`` by the merge code, so
:meth:`SpoolFile.rows` itself is uncharged.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Sequence

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.storage.block import Row
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind


class SpoolFile:
    """One temporary file of tuples, optionally sorted on a key.

    The file reaches its :class:`Spool` through a weak reference: the spool
    lists its files, so a strong back-reference would make every estimate's
    spool a reference cycle left for the cyclic garbage collector.
    """

    def __init__(self, spool: "Spool", file_id: int, schema: Schema) -> None:
        self._spool = weakref.ref(spool)
        self.file_id = file_id
        self.schema = schema
        self._rows: list[Row] = []
        self.sort_key: tuple[int, ...] | None = None

    def write(self, rows: Sequence[Row], charger: CostCharger) -> int:
        """Append ``rows``, charging one ``TEMP_WRITE`` per tuple."""
        if rows:
            charger.charge(CostKind.TEMP_WRITE, len(rows))
        self._rows.extend(rows)
        self.sort_key = None  # appending invalidates sortedness
        self._note_usage()
        return len(rows)

    def mark_sorted(self, key: tuple[int, ...]) -> None:
        """Record that the file is now sorted on attribute positions ``key``."""
        self.sort_key = key

    @property
    def rows(self) -> list[Row]:
        return self._rows

    def replace_rows(self, rows: list[Row]) -> None:
        """Replace contents in place (used by the external sort)."""
        self._rows = rows
        self._note_usage()

    def _note_usage(self) -> None:
        spool = self._spool()
        if spool is not None:
            spool._note_usage()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def page_count(self, block_size: int) -> int:
        """Pages occupied at ``block_size`` bytes (ceiling division)."""
        bf = self.schema.blocking_factor(block_size)
        return -(-len(self._rows) // bf)


class Spool:
    """Factory and accountant for :class:`SpoolFile` objects."""

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise StorageError(f"block size must be positive: {block_size}")
        self.block_size = block_size
        self._files: list[SpoolFile] = []
        self.peak_tuples = 0

    def create(self, schema: Schema) -> SpoolFile:
        """Open a fresh temporary file for ``schema`` tuples."""
        f = SpoolFile(self, len(self._files), schema)
        self._files.append(f)
        return f

    def release(self, spool_file: SpoolFile) -> None:
        """Drop a file's contents (space bookkeeping only; ids stay unique)."""
        spool_file.replace_rows([])

    @property
    def live_tuples(self) -> int:
        return sum(len(f) for f in self._files)

    # ------------------------------------------------------------------
    # Salvage support (fault injection)
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Opaque rollback token: the file count."""
        return len(self._files)

    def restore(self, token: int) -> None:
        """Drop every file created after a :meth:`snapshot` token.

        Pre-existing files are untouched (a faulted stage only ever
        *creates* files; it never mutates survivors). ``peak_tuples``
        keeps its high-water mark — the transient space was really used.
        """
        if not 0 <= token <= len(self._files):
            raise StorageError(
                f"cannot restore spool to {token} files "
                f"(has {len(self._files)})"
            )
        del self._files[token:]

    def _note_usage(self) -> None:
        self.peak_tuples = max(self.peak_tuples, self.live_tuples)

    def __len__(self) -> int:
        return len(self._files)
