"""Runtime lock-order sanitizer, in the style of the kernel's lockdep.

The service plane holds locks in seven modules (registry, batching,
sharding, metrics, store, cache, loadtest).  A deadlock
needs two locks taken in opposite orders on two threads *at the same
time* — a coincidence no unit test reliably produces.  Lockdep removes
the coincidence: every lock belongs to a *class* keyed by its creation
site, every acquisition while other locks are held adds ordering edges
between classes, and a cycle in that graph is reported even though the
two halves of the inversion executed minutes apart on one thread.

:func:`lockdep_guard` monkeypatches ``threading.Lock``/``threading.RLock``
so locks created inside the guarded block come out wrapped in
:class:`TrackedLock`; the wrapper delegates everything to the real lock
(``Condition`` and the rest of the stdlib keep working) and reports
acquire/release to a :class:`LockDep` state.  Violations are *recorded*
by default — production code paths are never perturbed — and the pytest
fixtures assert the record is empty at teardown.
"""

from __future__ import annotations

import _thread
import contextlib
import os
import sys
import threading
from collections.abc import Iterator

__all__ = [
    "LockDep",
    "LockOrderViolation",
    "TrackedLock",
    "lockdep_guard",
]


class LockOrderViolation(AssertionError):
    """A cycle in the recorded lock-ordering graph (potential deadlock)."""


class LockDep:
    """The acquisition graph: per-thread held stacks + class ordering edges.

    Lock classes are creation sites (``file:line``); an edge A → B means
    some thread acquired a B-class lock while holding an A-class lock.
    A cycle means two code paths disagree about the order — the AB/BA
    pattern that deadlocks under the right interleaving.
    """

    def __init__(self) -> None:
        # Raw _thread lock: must never itself be wrapped or the sanitizer
        # would recurse into its own bookkeeping.
        self._mutex = _thread.allocate_lock()
        #: thread ident -> stack of (class_key, instance_id) currently held.
        self._held: dict[int, list[tuple[str, int]]] = {}
        #: class_key -> set of class_keys acquired while it was held.
        self._edges: dict[str, set[str]] = {}
        #: Human-readable violation reports, in detection order.
        self.violations: list[str] = []

    def note_acquire(self, class_key: str, instance_id: int) -> None:
        """Record one successful acquire on the calling thread."""
        ident = _thread.get_ident()
        with self._mutex:
            stack = self._held.setdefault(ident, [])
            for held_key, held_id in stack:
                if held_id == instance_id:
                    # Reentrant reacquire of the same RLock: no ordering.
                    continue
                edges = self._edges.setdefault(held_key, set())
                if class_key not in edges:
                    edges.add(class_key)
                    cycle = self._path(class_key, held_key)
                    if cycle is not None:
                        self.violations.append(
                            "lock-order inversion: "
                            + " -> ".join([held_key, *cycle])
                            + f" closes a cycle (edge {held_key} -> {class_key} "
                            "just observed)"
                        )
            stack.append((class_key, instance_id))

    def note_release(self, class_key: str, instance_id: int) -> None:
        """Drop the most recent matching entry from the held stack."""
        ident = _thread.get_ident()
        with self._mutex:
            stack = self._held.get(ident, [])
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] == (class_key, instance_id):
                    del stack[index]
                    break

    def _path(self, start: str, target: str) -> list[str] | None:
        """DFS path ``start -> ... -> target`` in the edge graph, if any."""
        if start == target:
            return [start]
        seen = {start}
        frontier: list[tuple[str, list[str]]] = [(start, [start])]
        while frontier:
            node, path = frontier.pop()
            for following in self._edges.get(node, ()):  # noqa: B007
                if following == target:
                    return [*path, following]
                if following not in seen:
                    seen.add(following)
                    frontier.append((following, [*path, following]))
        return None

    def assert_clean(self) -> None:
        """Raise :class:`LockOrderViolation` if any cycle was recorded."""
        if self.violations:
            raise LockOrderViolation("\n".join(self.violations))


class TrackedLock:
    """A delegating wrapper reporting acquire/release to a :class:`LockDep`.

    Wraps either a ``Lock`` or an ``RLock``; everything not intercepted
    (``locked``, ``_is_owned``, …) is forwarded so ``Condition`` and
    other stdlib users behave identically.
    """

    def __init__(self, state: LockDep, inner, site: str):
        self._state = state
        self._inner = inner
        self._site = site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # The wrapper *is* the hygiene layer: callers hold the with/
        # try-finally discipline, this method only observes.
        acquired = self._inner.acquire(blocking, timeout)  # repro-lint: disable=RL006
        if acquired:
            self._state.note_acquire(self._site, id(self))
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._state.note_release(self._site, id(self))

    def __enter__(self) -> bool:
        # Wrapper-internal delegation; the caller's ``with`` is the guard.
        return self.acquire()  # repro-lint: disable=RL006

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrackedLock site={self._site} inner={self._inner!r}>"


def _creation_site() -> str:
    """``file:line`` of the frame that called the lock factory."""
    frame = sys._getframe(2)
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


@contextlib.contextmanager
def lockdep_guard() -> Iterator[LockDep]:
    """Wrap ``threading.Lock``/``RLock`` construction inside the block.

    Locks created while the guard is active are tracked; locks created
    before it are invisible (modules instantiate their locks per object,
    so tests that build their subjects inside the guard get coverage).
    Violations are recorded on the yielded :class:`LockDep`, never
    raised mid-flight — call :meth:`LockDep.assert_clean` (the pytest
    fixtures do) after the block.
    """
    state = LockDep()
    real_lock, real_rlock = threading.Lock, threading.RLock

    def tracked_lock():
        return TrackedLock(state, real_lock(), _creation_site())

    def tracked_rlock():
        return TrackedLock(state, real_rlock(), _creation_site())

    threading.Lock = tracked_lock
    threading.RLock = tracked_rlock
    try:
        yield state
    finally:
        threading.Lock = real_lock
        threading.RLock = real_rlock
