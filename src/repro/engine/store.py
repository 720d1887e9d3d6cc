"""Persistent cross-run cache for estimation sessions.

Drawing operational repairs is what the paper's FPRASes pay for, so a
seeded pool's drawn prefix is the one piece of state worth keeping
between processes.  :class:`CacheStore` persists it on disk so a
repeated workload warm-starts without drawing anew.  Everything else is
recomputed from the instance: the block decomposition (Lemma 5.2, a
linear group-by-key), the positivity bounds (closed forms) and the
polynomial zero-test verdicts (a consistency check over the witnesses
hit counting enumerates anyway).

Layout: one JSON file per cache entry under the store directory, named by
the entry key — the SHA-256 content hash of the canonical serialization of
``(database, Σ, law, seed)``, ``law`` being the group's
:func:`~repro.engine.session.sampling_law`.  Anything that could change a
result changes the key, so a hit can never replay stale state.  (The seed is part
of the key because the sample stream depends on it.)  Each entry holds
exactly these fields:

* ``version`` — the store format version; a mismatch invalidates the entry;
* ``samples`` + ``batch`` — the materialized prefix of the shared
  :class:`~repro.engine.session.SamplePool`, as **the pool's own bytes**:
  ``samples`` is one base64 string of the pool's row-major
  little-endian ``uint64`` matrix, each row ``ceil(n_facts / 64)`` words
  wide, word ``w`` holding fact ids ``64w .. 64w + 63`` of the sample's
  id bitmask.  Every seeded pool's batch ``b`` is a pure function of
  ``(seed, b)``, so the prefix resumes by batch index with no RNG
  state; ``batch`` is the pool's batch size (512 on the vector plane,
  1 on the walk plane) — part of the stream's contract, so a prefix of
  another batch size is a foreign stream and is redrawn, never
  extended.  Replayed estimates are identical to cold-run estimates;
* ``words`` and ``digest`` — the durability envelope below.

In memory an entry is just that prefix — a read-only ``(S, words)``
``uint64`` matrix and its batch size; the base64 document exists only
while a save commits it.  An entry whose pool drew nothing past the
loaded prefix is clean, and its save writes nothing.

The durability envelope: ``digest`` is the SHA-256 hex
digest of the entry's canonical serialization (sorted keys, compact
separators, the ``digest`` field itself excluded) — covering the sample
blob, not just the key — and ``words`` records the packed row width so
:func:`fsck_store` can validate the blob without the database.
The digest is verified on every load, so a torn write, a truncation, or
a single flipped bit anywhere in the file is *detected* and the entry
degrades to recomputation instead of replaying damaged samples.  One
validator (:func:`_validate`) makes every database-free check, for the
load path and for :func:`fsck_store` alike, so the offline audit flags
exactly what a load would reject; a load adds only the checks that need
the instance's fact count (``words`` matches it, and no row sets a bit
beyond it).

Only ``version == 7`` is read.  An entry at any other version is a plain
miss (not damage): it is recomputed and the next save overwrites it at
the current version.

Failure policy: the cache is an accelerator, never an authority.  Any
read problem — missing file, truncated/corrupt JSON, digest mismatch,
version mismatch, a sample blob that disagrees with the live database —
silently degrades to recomputation (``tests/test_store.py`` exercises
each path), with the failure kind reported on
:attr:`CacheEntry.load_error` so callers can account it (the service
plane feeds these into ``repro_store_errors_total``).  Writes are
crash-consistent: the document is written to a temp file, fsynced,
renamed over the entry with ``os.replace``, and the directory is
fsynced — so after a crash at *any* point a reader sees exactly the old
entry or exactly the new one, never a mix (the crash-torture harness in
``tests/test_crash_torture.py`` SIGKILLs writers at every operation in
that sequence and asserts it).  All commit-path filesystem calls route
through :mod:`repro.engine.fsfault`, the injectable fault shim the
harness drives.  Failed writers may leave ``*.tmp`` files behind;
:class:`CacheStore` sweeps temp files older than a grace period when it
opens a directory.

Concurrent writers: two processes sharing a ``cache_dir`` for the same
key both load, draw, and save — a blind write would silently drop
whatever the other process appended in between (last writer wins).
:meth:`CacheEntry.save` therefore **reloads and merges** the on-disk
prefix before writing: of two sample prefixes with the same ``batch``
the one with *more rows* wins — both are prefixes of the same
deterministic stream, so the longer one extends the shorter.  On
platforms with ``fcntl`` the reload-merge-write runs under an advisory
``flock`` on the store directory, making it atomic against other
writers; elsewhere it degrades to best-effort (the merge still closes
almost all of the window).
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import errno
import hashlib
import json
import os
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

try:  # pragma: no cover - platform probe (Linux/macOS have it, Windows not)
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

import numpy as np

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from . import fsfault as _fsfault

# The packed-word geometry is owned by the vector plane: the format's
# core invariant is "the on-disk blob IS the pool's uint64 matrix", so
# the store reads the constants from the one place that defines them.
from ..sampling.vectorized import WORD_BITS as _WORD_BITS
from ..sampling.vectorized import words_for as _words_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports store)
    from .session import SamplePool

#: Bump when the on-disk schema changes; old entries are then recomputed.
#: v7: only the sample prefix — the pool's packed ``uint64`` matrix as
#: one base64 blob, plus its ``batch`` size — inside the durability
#: envelope: ``digest`` (SHA-256 over the canonical serialization,
#: verified on every load) and ``words`` (packed row width, for
#: database-free fsck).
STORE_VERSION = 7

#: The exact top-level keys of an entry document.
_FIELDS = frozenset({"version", "digest", "words", "batch", "samples"})

#: Orphaned ``*.tmp`` files older than this are swept when a
#: :class:`CacheStore` opens a directory (long enough that a live
#: writer's temp file — written, fsynced and renamed within one save —
#: is never collected out from under it).
TMP_SWEEP_GRACE_SECONDS = 300.0


def _encode_fact(fact: Fact) -> list:
    return [fact.relation, *fact.values]


def _word_rows(blob: bytes, words: int):
    """``blob`` as a read-only ``(S, words)`` little-endian ``uint64`` matrix.

    Zero-copy (``frombuffer`` over immutable bytes, hence read-only).
    A 0-fact instance has 0-word rows, which persist nothing.
    """
    if not words:
        return np.empty((0, 0), dtype="<u8")
    return np.frombuffer(blob, dtype="<u8").reshape(-1, words)


def classify_store_error(error: BaseException) -> str:
    """A bounded-cardinality kind label for one store failure.

    The label set (``enospc`` / ``readonly`` / ``eio`` / ``os`` /
    ``unknown``, plus the read-side ``corrupt``) is what the service
    exports as the ``kind`` label of ``repro_store_errors_total`` —
    coarse on purpose, so callers cannot mint metric series.
    """
    if isinstance(error, OSError):
        if error.errno == errno.ENOSPC:
            return "enospc"
        if error.errno in (errno.EROFS, errno.EACCES, errno.EPERM):
            return "readonly"
        if error.errno == errno.EIO:
            return "eio"
        return "os"
    return "unknown"


class StoreErrorLog:
    """Thread-safe ``(op, kind)`` store-failure counters + a degraded flag.

    The accounting spine of degraded mode: every absorbed store failure
    is recorded here instead of being silently squelched.  ``degraded``
    is level-triggered — set by :meth:`record`, cleared by
    :meth:`mark_ok` on the next successful store interaction — which is
    what the service's ``repro_degraded_mode`` gauge exports.  An
    optional ``listener`` callable ``(op, kind)`` fires outside the lock
    on every record (the server bridges it to a labeled counter).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self.last_error: str | None = None
        self.degraded = False
        self.listener: Callable[[str, str], None] | None = None

    def record(self, op: str, error: BaseException | str) -> str:
        """Count one failure of ``op`` and enter degraded mode.

        ``error`` is an exception (classified via
        :func:`classify_store_error`) or an already-classified kind
        string such as ``"corrupt"``.  Returns the kind.
        """
        kind = error if isinstance(error, str) else classify_store_error(error)
        with self._lock:
            self._counts[(op, kind)] = self._counts.get((op, kind), 0) + 1
            self.degraded = True
            self.last_error = f"{op}: {error}"
        listener = self.listener
        if listener is not None:
            listener(op, kind)
        return kind

    def mark_ok(self) -> None:
        """A store interaction succeeded: leave degraded mode."""
        with self._lock:
            self.degraded = False

    def total(self) -> int:
        """All failures recorded so far."""
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self) -> dict:
        """JSON-native view: counts keyed ``"op:kind"``, flag, last error."""
        with self._lock:
            return {
                "degraded": self.degraded,
                "total": sum(self._counts.values()),
                "errors": {
                    f"{op}:{kind}": count
                    for (op, kind), count in sorted(self._counts.items())
                },
                "last_error": self.last_error,
            }


#: The process-wide log offline paths (``batch_estimate``) record into;
#: the service plane uses one :class:`StoreErrorLog` per registry instead.
STORE_ERRORS = StoreErrorLog()


def _document_digest(document: dict[str, Any]) -> str:
    """SHA-256 hex digest of a document's canonical serialization.

    Canonical = sorted keys, compact separators, the ``digest`` field
    itself excluded.  Computed over the parsed values (not the file
    bytes), so the verification is byte-layout independent — and because
    entry files are *written* in this same compact form, every byte of the
    file is semantic: any single-bit flip either breaks the JSON parse
    or changes a value the digest covers.
    """
    body = {key: value for key, value in document.items() if key != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _validate(document: Any) -> tuple[str | None, bytes]:
    """The one validator: ``(damage detail or None, decoded sample blob)``.

    Makes every check that needs no database — version, the exact field
    set and each field's type, ``batch``, ``words``, a strict-base64
    ``samples`` blob of whole ``words``-wide rows, and the content digest
    — for the load path and :func:`fsck_store` alike.  Every 8 bytes are
    a valid ``uint64``, so the blob's words need no checks of their own.
    """
    if not isinstance(document, dict):
        return "not a JSON object", b""
    version = document.get("version")
    if version != STORE_VERSION:
        return f"unknown store version {version!r}", b""
    if document.keys() != _FIELDS:
        return f"fields {sorted(document)} are not {sorted(_FIELDS)}", b""
    batch, words = document["batch"], document["words"]
    if batch is not None and (type(batch) is not int or batch < 1):
        return f"malformed 'batch' field {batch!r}", b""
    if type(words) is not int or words < 0:
        return f"malformed 'words' field {words!r}", b""
    samples = document["samples"]
    if not isinstance(samples, str):
        return "malformed 'samples' field", b""
    try:
        blob = binascii.a2b_base64(samples, strict_mode=True)
    except ValueError:  # binascii.Error, or a non-ASCII string
        return "'samples' is not strict base64", b""
    if (len(blob) % (8 * words)) if words else blob:
        return f"{len(blob)}-byte sample blob is not whole {words}-word rows", b""
    digest = document["digest"]
    if not isinstance(digest, str):
        return "missing content digest", b""
    expected = _document_digest(document)
    if digest != expected:
        detail = f"stored {digest[:12]}…, computed {expected[:12]}…"
        return f"content digest mismatch ({detail})", b""
    return None, blob


@contextlib.contextmanager
def _directory_lock(directory: str):
    """Advisory exclusive lock on a store directory (no-op without fcntl).

    Locking the directory *fd* itself leaves no stray lock files in the
    store and survives the temp-file + ``os.replace`` dance (a lock on the
    entry file would be held on a dead inode after the first replace).
    Coarser than per-entry locking, but saves are rare and short.
    """
    if fcntl is None:
        yield
        return
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)  # closing releases the flock


def _fsync_directory(directory: str, ops: "_fsfault.FsOps") -> None:
    """Make a completed rename durable (best-effort where unsupported).

    A failure here never loses data that was not already at risk: the
    replace has landed, so the new entry is visible; the directory fsync
    only narrows the power-loss window.  Platforms/filesystems that
    cannot open or fsync directories degrade silently — the rename is
    still atomic.  (A :class:`~repro.engine.fsfault.CrashPoint` is a
    ``BaseException`` and sails through, like the real crash it models.)
    """
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        ops.fsync_dir(descriptor)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(descriptor)


def instance_cache_key(
    database: Database,
    constraints: FDSet,
    generator_name: str,
    seed: int | None,
) -> str:
    """SHA-256 content hash of ``(database, Σ, generator, seed)``.

    The serialization is canonical (sorted facts, sorted FD attribute
    lists, sorted JSON keys), so equal instances hash equally regardless
    of construction order.  Non-JSON-native constants serialize via
    ``repr`` — which carries the type (``Decimal('1')`` vs ``'1'``) — so
    type-distinct values that merely *stringify* equally cannot collide
    onto one key.
    """
    schema = constraints.schema
    payload = {
        "schema": {rel.name: list(rel.attributes) for rel in schema},
        "facts": [_encode_fact(f) for f in database.sorted_facts()],
        "fds": [
            [d.relation, sorted(map(str, d.lhs)), sorted(map(str, d.rhs))]
            for d in sorted(constraints, key=str)
        ],
        "generator": generator_name,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CacheEntry:
    """One persisted ``(database, Σ, law, seed)`` sample prefix.

    Obtained from :meth:`CacheStore.entry`, which sizes it by the
    instance's fact count ``facts`` (all the load checks need).  A
    damaged or unreadable file loads as an empty entry (see
    :attr:`load_error`); :meth:`save` writes atomically, and is a no-op
    when the attached pool drew nothing past the persisted prefix.
    """

    def __init__(self, path: str, facts: int):
        self.path = path
        self._facts = facts
        self._words = _words_for(facts)
        self._dirty = False
        #: Why the on-disk entry was unusable, when it was: ``"corrupt"``
        #: (damage the validator or the instance checks caught) or an
        #: OSError kind from :func:`classify_store_error`.  ``None`` for a
        #: clean load *and* for a plain miss — absence is not an error.
        self.load_error: str | None = None
        self._rows, self._batch = self._load()
        self._pool: "SamplePool | None" = None

    # -- load / save -----------------------------------------------------------------

    def _load(self) -> tuple[Any, int | None]:
        """The validated sample rows and their batch size (empty on any miss)."""
        empty = (_word_rows(b"", self._words), None)
        try:
            raw = _fsfault.active().read_bytes(self.path)
        except FileNotFoundError:
            return empty
        except OSError as error:
            self.load_error = classify_store_error(error)
            return empty
        try:
            document = json.loads(raw.decode("utf-8"))
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            self.load_error = "corrupt"
            return empty
        if isinstance(document, dict) and document.get("version") != STORE_VERSION:
            return empty  # a legitimately old/new format, not damage
        detail, blob = _validate(document)
        if detail is not None or document["words"] != self._words:
            self.load_error = "corrupt"
            return empty
        rows = _word_rows(blob, self._words)
        # Bits past the fact count are damage, not a bigger database.  (At
        # a multiple of 64 facts every bit of the last word is a fact.)
        tail = self._facts % _WORD_BITS
        if tail and (rows[:, -1] >> np.uint64(tail)).any():
            self.load_error = "corrupt"
            return empty
        return rows, document["batch"]

    def save(self) -> bool:
        """Crash-consistently persist the entry if anything changed.

        Returns ``True`` when a commit actually reached the filesystem,
        ``False`` for the clean no-op (nothing dirty) — callers that
        account store health (degraded mode) must not treat a no-op as
        evidence the disk works.

        Never a blind write: under an advisory lock on the store
        directory (where the platform has one) the on-disk prefix is
        reloaded and merged first, so a concurrent run that appended its
        own sample batches between our load and our save keeps them —
        see :meth:`_merge_from_disk`.

        The commit sequence is write → fsync(temp) → ``os.replace`` →
        fsync(directory): a crash before the replace leaves the old
        entry untouched, a crash after it leaves the new entry complete
        (the temp file's contents are durable *before* the rename makes
        them visible), and the directory fsync makes the rename itself
        durable.  The document — the rows' bytes base64'd, inside the
        envelope (``digest`` over the canonical serialization,
        ``words``) — is built here and nowhere else.  Raises ``OSError``
        on filesystem failure (every field is a string, an int or
        ``null``, so serialization cannot fail).
        """
        if self._pool is not None:
            self._sync_pool()
        if not self._dirty:
            return False
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        ops = _fsfault.active()
        with _directory_lock(directory):
            self._merge_from_disk()
            payload = {
                "version": STORE_VERSION,
                "words": self._words,
                "batch": self._batch,
                "samples": base64.b64encode(self._rows.tobytes()).decode("ascii"),
            }
            payload["digest"] = _document_digest(payload)
            # Written in the same canonical form the digest is computed
            # over: every byte of the file is semantic.
            encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
            descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                try:
                    ops.write(descriptor, encoded)
                    ops.fsync(descriptor)
                finally:
                    os.close(descriptor)
                ops.replace(temp_path, self.path)
            except Exception:
                # Clean the temp file up on failure before re-raising.
                # (CrashPoint is a BaseException and deliberately skips
                # this — a simulated crash must leave its wreckage.)
                try:
                    ops.unlink(temp_path)
                except OSError:
                    pass
                raise
            _fsync_directory(directory, ops)
        self._dirty = False
        return True

    def _merge_from_disk(self) -> None:
        """Fold a concurrent writer's on-disk prefix into this entry.

        Both writers hold the same ``(database, Σ, law, seed)`` key, so
        prefixes of the same seeded stream extend each other: theirs is
        adopted (with its ``batch``) when we hold none, or when it has
        our batch size and more rows.  A prefix of another batch size is
        a different stream — ours wins outright.

        A missing, corrupt, or stale-version file contributes nothing
        (the load path already validates and degrades to empty).
        """
        disk = CacheEntry(self.path, self._facts)
        if len(disk._rows) and (
            not len(self._rows)
            or (disk._batch == self._batch and len(disk._rows) > len(self._rows))
        ):
            self._rows, self._batch = disk._rows, disk._batch

    # -- sample prefix ----------------------------------------------------------------

    def sample_batch(self) -> int | None:
        """The batch size the persisted prefix was drawn with, if any."""
        return self._batch

    def sample_word_rows(self):
        """The persisted sample prefix: a read-only ``(S, words)`` matrix.

        The pool's own representation, decoded from the blob once at
        load time (strict base64, then ``frombuffer`` — no per-word
        conversion): :meth:`~repro.engine.session.EstimationSession.cached_pool`
        preloads it as is.  Damaged blobs never get this far — the load
        path discards the whole entry, so the next :meth:`save` rewrites
        a clean one instead of preserving the damage.
        """
        return self._rows

    def discard_samples(self) -> None:
        """Drop the persisted sample prefix (and its batch size).

        Leaves the entry clean: discarding draws nothing, so a pool that
        draws nothing after it commits nothing, and the first draw marks
        the entry dirty (:meth:`_sync_pool`).
        """
        self._rows, self._batch = _word_rows(b"", self._words), None

    def attach_pool(self, pool: "SamplePool") -> None:
        """Track a live pool so :meth:`save` persists newly drawn samples."""
        self._pool = pool

    def _sync_pool(self) -> None:
        drawn = len(self._pool)
        # 0-word rows (a 0-fact instance) carry nothing to persist.
        if drawn <= len(self._rows) or not self._pool.words:
            return
        # The rows ARE the pool's packed uint64 matrix: a read-only view
        # of its first ``drawn`` rows (later draws only append past them).
        # The prefix resumes by batch index, so the batch size (part of
        # the stream's contract) is all it needs besides.
        self._rows = self._pool.packed_prefix(drawn)
        self._batch = self._pool.batch_size
        self._dirty = True


class CacheStore:
    """A directory of :class:`CacheEntry` files, one per instance key.

    Opening a store sweeps orphaned ``*.tmp`` files — the wreckage of
    crashed or failed writers — that are older than
    ``tmp_grace_seconds`` (default :data:`TMP_SWEEP_GRACE_SECONDS`),
    under the same advisory directory lock saves take, so a live
    writer's in-flight temp file is never collected.
    """

    def __init__(
        self,
        directory: str,
        *,
        tmp_grace_seconds: float = TMP_SWEEP_GRACE_SECONDS,
    ):
        self.directory = str(directory)
        self.tmp_grace_seconds = tmp_grace_seconds
        self.swept_temps = self.sweep_temps()

    def sweep_temps(self) -> int:
        """Unlink stale orphaned temp files; returns how many went.

        Best-effort on every path: a missing directory, an unlistable
        directory, or a temp file that vanishes mid-sweep (a concurrent
        sweeper, or the writer completing) is simply skipped.
        """
        try:
            names = [n for n in os.listdir(self.directory) if n.endswith(".tmp")]
        except OSError:
            return 0
        if not names:
            return 0
        removed = 0
        # The grace cutoff compares against on-disk mtimes, which are
        # wall-clock by nature; monotonic time has no relation to them.
        cutoff = time.time() - self.tmp_grace_seconds  # repro-lint: disable=RL002
        with _directory_lock(self.directory):
            for name in names:
                path = os.path.join(self.directory, name)
                try:
                    if os.stat(path).st_mtime <= cutoff:
                        _fsfault.active().unlink(path)
                        removed += 1
                except OSError:
                    continue
        return removed

    def entry(
        self,
        database: Database,
        constraints: FDSet,
        generator_name: str,
        seed: int | None,
    ) -> CacheEntry:
        """Load (or initialize empty) the entry for this instance key."""
        key = instance_cache_key(database, constraints, generator_name, seed)
        path = os.path.join(self.directory, f"{key}.json")
        return CacheEntry(path, len(database))


# -- fsck ------------------------------------------------------------------------------


class FsckReport:
    """What :func:`fsck_store` found in one cache directory.

    ``entries`` rows are ``{"file", "status", "detail"}`` with status
    ``"ok"`` / ``"damaged"`` / ``"quarantined"`` (damaged + repaired) /
    ``"orphan-tmp"`` / ``"removed-tmp"``.  ``ok`` is ``False`` exactly
    when damage was found — repaired or not — so a CI leg can assert
    "fsck fails, repair, fsck passes".  Orphan temp files are reported
    but are *not* damage (every crashed writer leaves one).
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.entries: list[dict] = []
        self.scanned = 0
        self.damaged = 0
        self.quarantined = 0
        self.orphan_temps = 0

    @property
    def ok(self) -> bool:
        return self.damaged == 0

    def to_dict(self) -> dict:
        """The report as one JSON-native document."""
        return {
            "directory": self.directory,
            "ok": self.ok,
            "scanned": self.scanned,
            "damaged": self.damaged,
            "quarantined": self.quarantined,
            "orphan_temps": self.orphan_temps,
            "entries": list(self.entries),
        }

    def render(self) -> str:
        """The human-readable summary the ``fsck`` CLI prints."""
        lines = [
            f"fsck {self.directory}: {self.scanned} entries scanned, "
            f"{self.damaged} damaged"
            + (f" ({self.quarantined} quarantined)" if self.quarantined else "")
            + (
                f", {self.orphan_temps} orphan temp files"
                if self.orphan_temps
                else ""
            )
        ]
        for row in self.entries:
            if row["status"] != "ok":
                lines.append(f"  {row['file']}: {row['status']} — {row['detail']}")
        lines.append("fsck " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def fsck_store(directory: str, *, repair: bool = False) -> FsckReport:
    """Scan a cache directory; verify every entry's digest and structure.

    Checks each ``*.json`` entry for valid JSON and runs the load path's
    own validator (:func:`_validate`): the current store version, the
    exact field set and types, a blob of whole ``words``-wide rows, and
    the SHA-256 content digest (which catches any torn write, truncation
    or bit flip).  So fsck flags exactly what a load would reject as
    ``"corrupt"``, except the two checks that need the database (a
    ``words`` that disagrees with the instance, bits beyond its fact
    count) — and an unknown version, which a load treats as a plain
    miss but an offline auditor cannot vouch for.  Orphaned ``*.tmp``
    files are reported informationally.
    With ``repair=True``, damaged entries are **quarantined** (renamed
    to ``<name>.quarantined``, preserving the bytes for forensics) so
    the next warm run recomputes cleanly, and orphan temp files are
    removed regardless of age.  The scan needs no database: entries
    carry their row width in ``words``.
    """
    report = FsckReport(str(directory))
    try:
        names = sorted(os.listdir(directory))
    except OSError as error:
        report.entries.append(
            {"file": "", "status": "damaged", "detail": f"unlistable: {error}"}
        )
        report.damaged += 1
        return report
    for name in names:
        path = os.path.join(directory, name)
        if name.endswith(".tmp"):
            status = "orphan-tmp"
            detail = "leftover writer temp file"
            report.orphan_temps += 1
            if repair:
                try:
                    # fsck repair stays off the shim on purpose: the
                    # offline doctor must keep working under an armed
                    # fault plan (reads go through it to *see* injected
                    # damage; repairs must land regardless).
                    os.unlink(path)  # repro-lint: disable=RL004
                    status = "removed-tmp"
                except OSError as error:
                    detail = f"could not remove: {error}"
            report.entries.append({"file": name, "status": status, "detail": detail})
            continue
        if not name.endswith(".json"):
            continue
        report.scanned += 1
        detail = None
        try:
            raw = _fsfault.active().read_bytes(path)
        except OSError as error:
            detail = f"unreadable: {error}"
        if detail is None:
            try:
                detail, _ = _validate(json.loads(raw.decode("utf-8")))
            except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
                detail = f"invalid JSON: {error}"
        if detail is None:
            report.entries.append({"file": name, "status": "ok", "detail": ""})
            continue
        report.damaged += 1
        status = "damaged"
        if repair:
            try:
                # Off the shim for the same reason as the tmp removal
                # above: quarantine must succeed under an armed plan.
                os.replace(path, path + ".quarantined")  # repro-lint: disable=RL004
                status = "quarantined"
                report.quarantined += 1
            except OSError as error:
                detail = f"{detail}; quarantine failed: {error}"
        report.entries.append({"file": name, "status": status, "detail": detail})
    return report
