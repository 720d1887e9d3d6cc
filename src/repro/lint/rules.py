"""The repo's contract rules (RL001–RL008).

Each rule encodes one invariant the reproduction depends on but that no
unit test can watch globally.  The ``contract`` line on each class is
the authoritative statement; ``docs/LINT.md`` carries the catalog with
examples and the suppression policy.
"""

from __future__ import annotations

import ast
import pathlib
from collections.abc import Iterable

from .engine import Finding, LintContext, Rule

__all__ = [
    "SeedDiscipline",
    "WallClockBan",
    "CrashSafety",
    "FsCommitDiscipline",
    "MetricsNaming",
    "LockHygiene",
    "ExportDocParity",
    "SubprocessStartMethod",
    "ALL_RULES",
]


def _calls(ctx: LintContext) -> Iterable[ast.Call]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node


def _bare(origin: str | None) -> str:
    """Strip relative-import dots so suffix checks see plain names."""
    return (origin or "").lstrip(".")


class SeedDiscipline(Rule):
    """RL001 — every RNG must be seeded from an explicit argument."""

    id = "RL001"
    title = "seed-discipline"
    contract = (
        "No unseeded random.Random() / np.random.default_rng() and no global "
        "random.seed() inside src/repro — seeds must flow from explicit "
        "arguments, group_seed_for, or philox_key, or replay breaks."
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for call in _calls(ctx):
            origin = _bare(ctx.resolve(call.func))
            if origin in {"random.Random", "numpy.random.default_rng"}:
                if not call.args and not call.keywords:
                    yield self.finding(
                        ctx,
                        call,
                        f"unseeded {origin}() — derive the seed from an explicit "
                        "argument, group_seed_for, or philox_key",
                    )
            elif origin == "random.seed":
                yield self.finding(
                    ctx,
                    call,
                    "global random.seed() reseeds the process-wide RNG and "
                    "couples unrelated call sites — construct a local "
                    "random.Random(seed) instead",
                )


class WallClockBan(Rule):
    """RL002 — deterministic planes must not read wall clocks."""

    id = "RL002"
    title = "wall-clock-ban"
    contract = (
        "time.time() / datetime.now() are forbidden outside the service "
        "plane (server, metrics, loadtest) — the engine and calibration "
        "planes must be replayable, and wall-clock reads are hidden inputs."
    )

    #: Modules whose job is to observe real time (latency, uptime, load).
    allowlist = (
        "service/server.py",
        "service/metrics.py",
        "service/loadtest.py",
    )

    banned = {
        "time.time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if ctx.relpath.endswith(self.allowlist):
            return
        for call in _calls(ctx):
            origin = _bare(ctx.resolve(call.func))
            if origin in self.banned:
                yield self.finding(
                    ctx,
                    call,
                    f"{origin}() reads the wall clock in a deterministic "
                    "plane — pass timestamps in explicitly, or use "
                    "time.monotonic()/perf_counter() for durations",
                )


class CrashSafety(Rule):
    """RL003 — broad handlers on crash paths must re-raise."""

    id = "RL003"
    title = "crash-safety"
    contract = (
        "except Exception / bare except in any module importing "
        "engine.store or engine.fsfault must contain a raise — CrashPoint "
        "is a BaseException precisely so broad handlers cannot swallow a "
        "simulated crash, and a bare except would."
    )

    #: Names whose import puts a module on the CrashPoint path.
    _store_names = frozenset(
        {
            "store",
            "fsfault",
            "CacheStore",
            "CacheEntry",
            "StoreErrorLog",
            "fsck_store",
            "CrashPoint",
            "FaultPlan",
            "FaultyOps",
            "FsOps",
            "torture_writer",
        }
    )

    def _on_crash_path(self, ctx: LintContext) -> bool:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[-1] in {"store", "fsfault"}:
                        return True
            elif isinstance(node, ast.ImportFrom):
                module = _bare("." * node.level + (node.module or ""))
                tail = module.split(".")[-1] if module else ""
                if tail in {"store", "fsfault"}:
                    return True
                if tail in {"engine", ""} or module == "":
                    if any(alias.name in self._store_names for alias in node.names):
                        return True
        return False

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler, ctx: LintContext) -> bool:
        if handler.type is None:
            return True
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in nodes:
            if _bare(ctx.resolve(node)) in {"Exception", "BaseException"}:
                return True
        return False

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(inner, ast.Raise)
            for stmt in handler.body
            for inner in ast.walk(stmt)
        )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if not self._on_crash_path(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node, ctx) and not self._reraises(node):
                caught = "bare except" if node.type is None else "broad except"
                yield self.finding(
                    ctx,
                    node,
                    f"{caught} on a CrashPoint path without a raise — narrow "
                    "the exception types or re-raise so simulated crashes "
                    "keep propagating",
                )


class FsCommitDiscipline(Rule):
    """RL004 — store commit paths go through the FsOps shim."""

    id = "RL004"
    title = "fs-commit-discipline"
    contract = (
        "engine/store.py must route filesystem mutations and entry reads "
        "through the fsfault.FsOps shim (ops.write/fsync/replace/unlink/"
        "read_bytes) — direct open/os.* calls are invisible to fault "
        "plans and crash-torture."
    )

    direct = {
        "open",
        "os.replace",
        "os.rename",
        "os.fsync",
        "os.unlink",
        "os.remove",
    }

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if pathlib.PurePosixPath(ctx.relpath).name != "store.py":
            return
        for call in _calls(ctx):
            origin = _bare(ctx.resolve(call.func))
            if origin in self.direct:
                yield self.finding(
                    ctx,
                    call,
                    f"direct {origin}() in the store — route through the "
                    "fsfault.FsOps shim so fault plans and crash-torture "
                    "see the operation",
                )


class MetricsNaming(Rule):
    """RL005 — metric-name suffixes are load-bearing."""

    id = "RL005"
    title = "metrics-naming"
    contract = (
        "Counter names end _total, Histogram base names end _seconds, and "
        "Gauge names must not end _total/_count/_sum/_bucket — the "
        "loadtest restart-aware monotonicity checker selects series by "
        "suffix, so a misnamed metric is silently unchecked."
    )

    def _name_argument(self, call: ast.Call) -> ast.Constant | None:
        """The literal name argument node (findings anchor on its line)."""
        if call.args and isinstance(call.args[0], ast.Constant):
            if isinstance(call.args[0].value, str):
                return call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                if isinstance(keyword.value.value, str):
                    return keyword.value
        return None

    def _kind(self, ctx: LintContext, call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Attribute) and call.func.attr in {
            "counter",
            "gauge",
            "histogram",
        }:
            return call.func.attr
        origin = _bare(ctx.resolve(call.func))
        head, _, tail = origin.rpartition(".")
        if tail in {"Counter", "Gauge", "Histogram"} and "metrics" in head:
            return tail.lower()
        return None

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for call in _calls(ctx):
            kind = self._kind(ctx, call)
            if kind is None:
                continue
            node = self._name_argument(call)
            if node is None:
                continue
            name = node.value
            if kind == "counter" and not name.endswith("_total"):
                yield self.finding(
                    ctx,
                    node,
                    f"counter {name!r} must end in _total — the loadtest "
                    "monotonicity checker keys on the suffix",
                )
            elif kind == "histogram" and not name.endswith("_seconds"):
                yield self.finding(
                    ctx,
                    node,
                    f"histogram {name!r} must have a _seconds base name so "
                    "its _bucket/_count/_sum series are suffix-selectable",
                )
            elif kind == "gauge" and name.endswith(
                ("_total", "_count", "_sum", "_bucket")
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"gauge {name!r} ends in a counter-family suffix — the "
                    "monotonicity checker would treat this resettable value "
                    "as a counter",
                )


class LockHygiene(Rule):
    """RL006 — locks are held via ``with``, or try/finally at worst."""

    id = "RL006"
    title = "lock-hygiene"
    contract = (
        "Locks are acquired via with; a bare .acquire() is allowed only "
        "inside (or immediately before) a try whose finally releases — "
        "anything else leaks the lock on the first exception."
    )

    @staticmethod
    def _releases(block: list[ast.stmt]) -> bool:
        return any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "release"
            for stmt in block
            for inner in ast.walk(stmt)
        )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for call in _calls(ctx):
            if not (
                isinstance(call.func, ast.Attribute) and call.func.attr == "acquire"
            ):
                continue
            stmt = ctx.statement_of(call)
            if stmt is None:
                continue
            guarded = any(
                isinstance(ancestor, ast.Try) and self._releases(ancestor.finalbody)
                for ancestor in [stmt, *ctx.ancestors(stmt)]
            )
            if not guarded:
                sibling = ctx.next_sibling(stmt)
                guarded = isinstance(sibling, ast.Try) and self._releases(
                    sibling.finalbody
                )
            if not guarded:
                yield self.finding(
                    ctx,
                    call,
                    "bare .acquire() without a releasing try/finally — use "
                    "'with lock:' so exceptions cannot leak the lock",
                )


class ExportDocParity(Rule):
    """RL007 — every ``__all__`` export appears in docs/API.md."""

    id = "RL007"
    title = "export-doc-parity"
    contract = (
        "Every name in a module's __all__ must appear (backticked) in "
        "docs/API.md — the static complement of test_api_doc.py, catching "
        "exports added without documentation."
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if ctx.api_doc_text is None:
            return
        for node in ctx.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if not (isinstance(target, ast.Name) and target.id == "__all__"):
                continue
            value = getattr(node, "value", None)
            if value is None:
                continue
            try:
                names = list(ast.literal_eval(value))
            except (ValueError, SyntaxError):
                continue
            for name in names:
                if f"`{name}`" not in ctx.api_doc_text:
                    yield self.finding(
                        ctx,
                        node,
                        f"__all__ export {name!r} is not documented in "
                        "docs/API.md",
                    )


class SubprocessStartMethod(Rule):
    """RL008 — multiprocessing always names its start method."""

    id = "RL008"
    title = "subprocess-start-method"
    contract = (
        "No bare multiprocessing.Pool/Process — use "
        "multiprocessing.get_context('spawn'/'fork') explicitly, because "
        "the platform default flips between fork and spawn and the "
        "difference has produced real bugs (PR 5/PR 8)."
    )

    banned = {"multiprocessing.Pool", "multiprocessing.Process"}

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for call in _calls(ctx):
            origin = _bare(ctx.resolve(call.func))
            if origin in self.banned:
                yield self.finding(
                    ctx,
                    call,
                    f"bare {origin}() inherits the platform start method — "
                    "call multiprocessing.get_context(...) and build the "
                    "pool/process from the context",
                )


#: The default rule set, in id order.
ALL_RULES: tuple[Rule, ...] = (
    SeedDiscipline(),
    WallClockBan(),
    CrashSafety(),
    FsCommitDiscipline(),
    MetricsNaming(),
    LockHygiene(),
    ExportDocParity(),
    SubprocessStartMethod(),
)
