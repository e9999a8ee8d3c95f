"""The sweep journal: one append-only resume record for any sweep.

A journal is a JSONL file.  Its first line is the header
``{"kind": "repro-sweep-journal", "version": 2}``; every later line
records one completed unit of work — a point of an in-process sweep,
or a chunk of a distributed one — as ``{"keys": [...], "stats":
[...]}``: the units' :func:`repro.core.sweep.point_key` identities and
their serialized ``RunStats``.  :meth:`SweepJournal.open` reads it
back as the ``{point_key: RunStats}`` mapping
:func:`~repro.core.sweep.resume_merge` consumes.  The key hashes every
result-defining field, so a journal resumes exactly the points it
shares with the grid at hand, whatever grid or chunking wrote it.

Appends are single ``write`` calls of whole lines, fsynced, so a crash
mid-append leaves at most one truncated tail line; that line, and any
other record that does not decode, is skipped and its points simply
run again.  A file whose first line is not a journal header is refused
rather than appended to.  Version-1 journals (``repro-dsweep-journal``,
one record per chunk) carry the same ``keys``/``stats`` fields and
load unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.sim.stats import RunStats, stats_from_dict

JOURNAL_KIND = "repro-sweep-journal"
JOURNAL_VERSION = 2
#: Header kinds that load: this format and the version-1 chunk journal.
_KINDS = (JOURNAL_KIND, "repro-dsweep-journal")


def _parse(line: str) -> dict:
    """One journal line as a dict; ``{}`` for anything else."""
    try:
        record = json.loads(line)
    except ValueError:
        return {}  # truncated tail line from an interrupt
    return record if isinstance(record, dict) else {}


class SweepJournal:
    """Append-only record of completed sweep points."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def open(self) -> dict[str, RunStats]:
        """Start or reopen the journal; returns ``{point_key: RunStats}``.

        A missing or empty file gets the header and resumes nothing.
        Raises ``ValueError`` naming the path when the file exists but
        does not start with a journal header.
        """
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            text = ""
        if not text:
            self._append({"kind": JOURNAL_KIND, "version": JOURNAL_VERSION})
            return {}
        lines = text.splitlines()
        if _parse(lines[0]).get("kind") not in _KINDS:
            raise ValueError(
                f"{self.path} is not a sweep journal "
                f"(no {JOURNAL_KIND!r} header line)"
            )
        if not text.endswith("\n"):
            # End a truncated tail line, so the next record starts a
            # line of its own instead of being lost inside it.
            self._write("\n")
        known: dict[str, RunStats] = {}
        for line in lines[1:]:
            record = _parse(line)
            keys, stats = record.get("keys"), record.get("stats")
            if (
                not isinstance(keys, list)
                or not isinstance(stats, list)
                or len(keys) != len(stats)
                or not all(isinstance(key, str) for key in keys)
            ):
                continue
            try:
                decoded = [stats_from_dict(entry) for entry in stats]
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # corrupt stats: those points run again
            known.update(zip(keys, decoded))
        return known

    def record(self, keys: list[str], stats: list[RunStats]) -> None:
        """Journal one completed unit: its point keys and their stats."""
        self._append({
            "keys": list(keys),
            "stats": [one.to_dict() for one in stats],
        })

    def _append(self, record: dict) -> None:
        self._write(json.dumps(record, sort_keys=True) + "\n")

    def _write(self, text: str) -> None:
        # O_APPEND + one write: concurrent/interrupted appends never
        # interleave inside a line, and a crash truncates at most the
        # tail line, which open() skips.
        with open(self.path, "a", encoding="utf-8") as fp:
            fp.write(text)
            fp.flush()
            os.fsync(fp.fileno())
