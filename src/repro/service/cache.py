"""The memoized answer cache in front of the service estimate path.

Served estimates are deterministic — bit-identical to an offline
``batch_estimate(seed=...)`` run — so a seeded server may memoize whole
result *rows* keyed by everything that determines them:
``(instance_cache_key, generator, query, answer, ε, δ, method,
max_samples, label, mode)`` — the instance key names the sampling law,
which alone picks the sample plane, and generators sharing a law still
label their rows apart.  A warm-pool recomputation is already cheap (one
hit-counting reduction); a cache hit makes the repeated-request hot
path — the common case for dashboard-style traffic — a dictionary
lookup that never touches the session lock or the executor.

**Integrity.**  Every entry stores its row as a canonical JSON string
plus a SHA-256 digest of that string, verified on every hit.  A
corrupted entry (bit rot, or the load-test harness's deliberate
cache-poisoning fault) is detected, counted (``poisoned``), dropped,
and recomputed — a poisoned cache can degrade the hit rate but can
never change a served answer.  That is the same "the cache is an
accelerator, never an authority" stance the on-disk
:class:`~repro.engine.store.CacheStore` takes.

Unseeded servers (``seed=None``) bypass the cache entirely: their
estimates are not reproducible, so memoizing them would *create* the
drift the service plane promises away.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any

__all__ = ["AnswerCache", "DEFAULT_ANSWER_CACHE_SIZE"]

#: Default LRU capacity (result rows, not instances — rows are tiny).
DEFAULT_ANSWER_CACHE_SIZE = 4096

#: Largest encoded instance document either end of the serve path
#: memoizes (about 700 facts); larger ones are parsed or encoded afresh
#: on every request, so a memo entry stays small whatever a body may be.
INSTANCE_MEMO_MAX_BYTES = 16 * 1024


def _digest(encoded: str) -> str:
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class AnswerCache:
    """A digest-verified LRU of served result rows."""

    def __init__(self, max_entries: int = DEFAULT_ANSWER_CACHE_SIZE):
        if max_entries < 1:
            raise ValueError("max_entries must be positive (0 disables the cache "
                             "at the server level, not here)")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # key -> (canonical row JSON, sha256 hex of that string)
        self._entries: OrderedDict[Any, tuple[str, str]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.poisoned = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key) -> dict | None:
        """The cached row for ``key`` (a fresh dict), or ``None``.

        Entries whose stored digest no longer matches their payload are
        treated as misses: counted in :attr:`poisoned`, evicted, and
        left for the caller to recompute.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            encoded, expected = entry
            if _digest(encoded) != expected:
                del self._entries[key]
                self.poisoned += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return json.loads(encoded)

    def put(self, key, row: dict) -> None:
        """Store ``row`` (JSON-native) under ``key``, evicting LRU-oldest."""
        encoded = json.dumps(row, sort_keys=True)
        stamped = (encoded, _digest(encoded))
        with self._lock:
            self._entries[key] = stamped
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def poison(self, count: int | None = None) -> int:
        """Corrupt up to ``count`` entries *without* updating digests.

        The load-test harness's cache-poisoning fault: flips each
        victim's payload so the next :meth:`get` must detect the
        mismatch.  Returns how many entries were corrupted.
        """
        corrupted = 0
        with self._lock:
            for key in list(self._entries):
                if count is not None and corrupted >= count:
                    break
                encoded, digest = self._entries[key]
                self._entries[key] = (encoded[:-1] + ("}" if not encoded.endswith("}") else " }"), digest)
                corrupted += 1
        return corrupted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction/poison counters, JSON-native."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "poisoned": self.poisoned,
            }


class Memo:
    """A thread-safe LRU map bounded by entry count.

    The serve path's LRUs: the instance memos at both ends (the server's
    maps an inline instance document's text to its parsed pair, the
    client's maps an instance pair to its encoded text), the registry's
    derived group keys, and the worker pool's recently routed groups.  A
    miss costs one lookup; the caller computes the value and decides
    whether to :meth:`put` it.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key) -> Any:
        """The value stored under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Store ``value`` under ``key``, evicting LRU-oldest entries."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def items(self) -> list[tuple[Any, Any]]:
        """A snapshot of the ``(key, value)`` pairs, LRU-oldest first."""
        with self._lock:
            return list(self._entries.items())
