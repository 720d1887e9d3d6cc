"""Batched estimation engine: sessions, shared sample pools, workload planning.

One :class:`EstimationSession` per ``(database, constraints, law)`` (the
generator's :func:`sampling_law`) amortizes block decompositions, witness
images and — via :class:`SamplePool` — the Monte-Carlo sampling pass
itself across many ``(query, answer)`` requests; :func:`batch_estimate` plans a mixed workload
over these sessions, optionally in adaptive early-stopping mode
(``mode="adaptive"``) and/or against a persistent cross-run
:class:`CacheStore` (``cache_dir=...``).  The store is crash-consistent
(fsynced commits, per-entry content digests) and auditable offline with
:func:`fsck_store` (``python -m repro fsck``); absorbed store failures are
accounted in a :class:`StoreErrorLog`.  See ``docs/ARCHITECTURE.md`` for
how this layer sits on top of the paper's samplers and bounds.
"""

from ..sampling.vectorized import DEFAULT_BATCH_SIZE
from .batch import MODES, BatchRequest, BatchResult, batch_estimate
from .session import LAWS, EstimationSession, Law, SamplePool, sampling_law
from .store import (
    STORE_VERSION,
    CacheEntry,
    CacheStore,
    FsckReport,
    StoreErrorLog,
    fsck_store,
    instance_cache_key,
)

__all__ = [
    "BatchRequest",
    "BatchResult",
    "CacheEntry",
    "CacheStore",
    "DEFAULT_BATCH_SIZE",
    "EstimationSession",
    "FsckReport",
    "LAWS",
    "Law",
    "MODES",
    "STORE_VERSION",
    "SamplePool",
    "StoreErrorLog",
    "batch_estimate",
    "fsck_store",
    "instance_cache_key",
    "sampling_law",
]
