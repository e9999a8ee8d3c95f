"""Content-addressed result cache: repeat requests skip the workers.

Under serving traffic most requests repeat the same (application,
trace fingerprint, config) tuple, so finished results are worth far
more than recomputation.  A cache entry is addressed by
:func:`cache_key`::

    sha256( json({kind, identity, config-file text}) + source_fingerprint() )

- ``identity`` is the request's result-defining fields (benchmark,
  CDP, dataset size...) — scheduling knobs are excluded.
- The config contributes through its *full* serialized form
  (:func:`repro.sim.configfile.save_config`), which covers every knob
  including ``sample_fraction`` / ``sample_seed`` and
  ``telemetry_interval`` — two requests differing in any config field
  never share an entry.
- ``source_fingerprint()`` is :mod:`repro.sim.trace_store`'s hash of
  every trace-producing source tree, so editing a kernel silently
  retires every stale result (old entries are just never addressed
  again), exactly like the trace store.

Layout (in the style of :mod:`repro.sim.trace_store`): one
``<key>.json`` payload file per entry, published by atomic rename so
readers never see partial writes.  The directory is the cache's only
state: ``len()`` counts the payload files, and nothing else (a
``.tmp`` file mid-publish, any other file) is an entry.  A corrupt
payload is retired on read, not raised.

Eviction: optional ``max_entries`` / ``max_bytes`` budgets make each
``put`` evict the oldest payloads by ``st_mtime``, sized by
``st_size``, from one directory scan, so a long-running server's
cache directory stays bounded.  No shared file is rewritten, so
eviction takes no lock: two processes that evict at the same moment
may evict more than they need to, never less.  The entry being
published always survives its own put — a budget smaller than one
payload must not turn the cache into a thrash loop.  ``repro serve
--cache-max-bytes`` wires this up; evictions are counted in
``/metrics``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from pathlib import Path

from repro.sim.configfile import save_config
from repro.sim.trace_store import source_fingerprint

#: Version stamp inside every payload file.
CACHE_VERSION = 1

#: File name of a payload: the :func:`cache_key` plus ``.json``.
_PAYLOAD_NAME = re.compile(r"[0-9a-f]{64}\.json")


@functools.lru_cache(maxsize=256)
def _config_text(config) -> str:
    """``save_config(config)``, once per distinct config.

    ``GPUConfig`` is frozen and hashable.  Request configs resolve
    through ``apply_overrides``, which types every value as its field
    declares, so configs that compare equal serialize identically.
    """
    return save_config(config)


def cache_key(kind: str, identity: dict, config) -> str:
    """The content address of one request's result."""
    material = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": kind,
            "identity": identity,
            "config": _config_text(config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(
        (material + source_fingerprint()).encode()
    ).hexdigest()


class ResultCache:
    """On-disk result cache rooted at a directory."""

    def __init__(
        self,
        root: str | os.PathLike,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        self.root = Path(root).expanduser()
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._payloads())

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- payloads -----------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The cached result payload for ``key``; None on miss.

        Corrupt entries (truncated writes from killed processes,
        foreign files) are unlinked and reported as misses, so callers
        always fall back to computing and overwriting.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_bytes())
            if data.get("version") != CACHE_VERSION or "payload" not in data:
                raise ValueError("foreign result-cache entry")
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return data["payload"]

    def put(self, key: str, payload: dict) -> Path:
        """Publish ``payload`` under ``key`` (atomic, idempotent).

        Concurrent writers of the same key are harmless: the payload
        is content-addressed, so both renames publish identical bytes.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(
            {"version": CACHE_VERSION, "key": key, "payload": payload}
        ))
        os.replace(tmp, path)
        self._evict(keep=path.name)
        self.stores += 1
        return path

    # -- directory ----------------------------------------------------------
    def _payloads(self) -> list[tuple[float, str, int]]:
        """``(st_mtime, name, st_size)`` of every payload file."""
        found = []
        try:
            with os.scandir(self.root) as entries:
                for entry in entries:
                    if not _PAYLOAD_NAME.fullmatch(entry.name):
                        continue
                    try:
                        st = entry.stat()
                    except OSError:
                        continue  # evicted or retired meanwhile
                    found.append((st.st_mtime, entry.name, st.st_size))
        except OSError:
            pass
        return found

    def _evict(self, keep: str) -> None:
        """Drop the oldest payloads past the budgets.

        ``keep`` (the payload just published) is never evicted, so one
        oversized payload degrades to a single-entry cache rather than
        an unwritable one.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        payloads = sorted(self._payloads())
        count = len(payloads)
        total = sum(size for _, _, size in payloads)
        for _, name, size in payloads:
            over_count = (
                self.max_entries is not None and count > self.max_entries
            )
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not over_count and not over_bytes:
                break
            if name == keep:
                continue
            count -= 1
            total -= size
            try:
                (self.root / name).unlink()
            except OSError:
                continue  # another process evicted it first
            self.evictions += 1
