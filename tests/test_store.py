"""Persistent cache store: warm-start reuse, keying, and corruption recovery.

The store's two promises: (1) a warm run replays the cold run bit-for-bit
without drawing anew, and (2) *any* damage to the on-disk state —
truncation, garbage, stale versions, tampered payloads — silently
degrades to recomputation and can never change a result.
"""

import base64
import json
import os

import numpy as np
import pytest

from repro.chains.generators import M_UO, M_UR, M_US
from repro.cli import main
from repro.core import FDSet
from repro.core.blocks import block_decomposition
from repro.engine import (
    BatchRequest,
    CacheStore,
    EstimationSession,
    SamplePool,
    batch_estimate,
    instance_cache_key,
)
from repro.io import (
    InstanceFormatError,
    instance_to_dict,
    load_workload_spec,
    workload_spec_from_dict,
)
from repro.core.queries import atom, boolean_cq, cq, var
from repro.workloads import figure2_database

x, y = var("x"), var("y")

EPSILON, DELTA = 0.5, 0.2


@pytest.fixture(scope="module", autouse=True)
def _lockdep(lockdep_state):
    """Lock-order sanitizing for the store's lock users (see conftest)."""
    return lockdep_state


def fig2_requests(generator=M_UR):
    database, constraints = figure2_database()
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=c,
            epsilon=EPSILON,
            delta=DELTA,
        )
        for c in sorted(query.answers(database), key=repr)
    ]


def write_scalar_entry(cache_dir, seed, length):
    """Persist a batch-1 Figure 2 ``M_ur`` prefix of ``length`` samples.

    The entry sits under the key a ``batch_estimate(seed=seed)`` run uses,
    but holds a vector stream drawn one sample per batch (``batch`` 1) — a
    foreign stream for ``M_ur``, whose seeded pools draw vector batches of
    512.
    """
    from repro.engine.batch import group_seed_for

    database, constraints = figure2_database()
    group_seed = group_seed_for(seed, database, constraints, M_UR)
    entry = CacheStore(str(cache_dir)).entry(database, constraints, "M_ur", group_seed)
    session = EstimationSession(database, constraints, M_UR, cache=entry)
    pool = SamplePool(session.plane(group_seed), batch_size=1)
    entry.attach_pool(pool)
    pool.ensure(length)
    return entry


def entry_path(cache_dir):
    (name,) = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
    return os.path.join(cache_dir, name)


def stored_rows(document):
    """A saved document's ``samples`` blob as a list of packed word rows."""
    words = document["words"]
    blob = base64.b64decode(document["samples"], validate=True)
    return np.frombuffer(blob, dtype="<u8").reshape(-1, words).tolist() if words else []


def encode_rows(rows):
    """Packed word rows as a ``samples`` blob (little-endian ``uint64``)."""
    return base64.b64encode(np.array(rows, dtype="<u8").tobytes()).decode("ascii")


def write_digested(path, document):
    """Write ``document`` with a valid digest: damage the digest cannot see."""
    from repro.engine.store import _document_digest

    document = {key: value for key, value in document.items() if key != "digest"}
    document["digest"] = _document_digest(document)
    with open(path, "w") as handle:
        json.dump(document, handle)


class TestKeying:
    def test_key_is_insensitive_to_fact_order(self):
        database, constraints = figure2_database()
        from repro.core import Database

        shuffled = Database(
            list(reversed(database.sorted_facts())), schema=database.schema
        )
        assert instance_cache_key(
            database, constraints, "M_ur", 7
        ) == instance_cache_key(shuffled, constraints, "M_ur", 7)

    def test_key_distinguishes_type_distinct_constants(self):
        # Decimal('1') and the string '1' stringify identically; their
        # instances must not share a cache entry (repr carries the type).
        from decimal import Decimal

        from repro.core import Database, Schema, fact, fd

        schema = Schema.from_spec({"R": ["A", "B"]})
        constraints = FDSet(schema, [fd("R", "A", "B")])
        decimals = Database(
            [fact("R", Decimal("1"), Decimal("2"))], schema=schema
        )
        strings = Database([fact("R", "1", "2")], schema=schema)
        assert instance_cache_key(
            decimals, constraints, "M_ur", 7
        ) != instance_cache_key(strings, constraints, "M_ur", 7)

    def test_key_changes_with_every_component(self):
        database, constraints = figure2_database()
        base = instance_cache_key(database, constraints, "M_ur", 7)
        assert base != instance_cache_key(database, constraints, "M_us", 7)
        assert base != instance_cache_key(database, constraints, "M_ur", 8)
        assert base != instance_cache_key(database, constraints, "M_ur", None)
        from repro.core import Database

        smaller = Database(database.sorted_facts()[:-1], schema=database.schema)
        assert base != instance_cache_key(smaller, constraints, "M_ur", 7)


class TestWarmStart:
    def test_warm_run_replays_cold_run_bit_for_bit(self, tmp_path):
        requests = fig2_requests()
        cold = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        warm = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        plain = batch_estimate(requests, seed=7)
        assert [r.result for r in warm] == [r.result for r in cold]
        assert [r.result for r in plain] == [r.result for r in cold]

    @pytest.mark.parametrize("generator", [M_UR, M_UO], ids=lambda g: g.name)
    def test_warm_run_of_a_new_query_rewrites_nothing(
        self, tmp_path, monkeypatch, generator
    ):
        # The entry is the sample prefix and nothing else: a warm run of
        # another query whose budgets the stored prefix covers draws
        # nothing, so its save is the clean no-op and the file keeps its
        # bytes (no per-query state is persisted).
        from repro.engine.store import CacheEntry

        batch_estimate(fig2_requests(generator), seed=7, cache_dir=str(tmp_path))
        path = entry_path(tmp_path)
        with open(path, "rb") as handle:
            written = handle.read()
        database, constraints = figure2_database()
        query = cq((y,), (atom("R", x, y),))
        requests = [
            BatchRequest(
                database, constraints, generator, query, answer=answer,
                epsilon=EPSILON, delta=DELTA,
            )
            for answer in sorted(query.answers(database), key=repr)
        ]
        saves = []
        original = CacheEntry.save

        def recording(entry):
            saves.append(original(entry))
            return saves[-1]

        monkeypatch.setattr(CacheEntry, "save", recording)
        warm = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert all(r.ok for r in warm)
        assert saves == [False]
        with open(path, "rb") as handle:
            assert handle.read() == written
        plain = batch_estimate(requests, seed=7)
        assert [r.result for r in warm] == [r.result for r in plain]

    def test_longer_warm_run_extends_the_persisted_stream(self, tmp_path):
        # A vector prefix (M_ur) resumes by batch index.  Its budgets come
        # from the witnesses (a1 survives with 1/4), so ε = 0.15 is what
        # takes the longest one (1,598) past the cold run's one batch.
        self.assert_warm_run_extends(tmp_path, M_UR, epsilon=0.15)

    def test_longer_warm_walk_run_extends_the_persisted_stream(self, tmp_path):
        # A walk prefix (M_uo) resumes by position too: no RNG state.
        self.assert_warm_run_extends(tmp_path, M_UO, epsilon=0.3)

    @staticmethod
    def assert_warm_run_extends(tmp_path, generator, epsilon):
        requests = fig2_requests(generator)
        # Cold run with loose accuracy persists a short prefix ...
        batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        with open(entry_path(tmp_path)) as handle:
            short = len(stored_rows(json.load(handle)))
        # ... a tighter warm run needs more samples and extends the file.
        tighter = [
            BatchRequest(
                r.database,
                r.constraints,
                r.generator,
                r.query,
                answer=r.answer,
                epsilon=epsilon,
                delta=0.1,
            )
            for r in requests
        ]
        tight_cached = batch_estimate(tighter, seed=7, cache_dir=str(tmp_path))
        with open(entry_path(tmp_path)) as handle:
            extended = len(stored_rows(json.load(handle)))
        assert extended > short
        # The extended stream is still the one a cold run would draw.
        tight_plain = batch_estimate(tighter, seed=7)
        assert [r.result for r in tight_cached] == [r.result for r in tight_plain]

    def test_adaptive_mode_shares_the_same_cache(self, tmp_path):
        requests = fig2_requests()
        batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        cached = batch_estimate(
            requests, seed=7, cache_dir=str(tmp_path), mode="adaptive"
        )
        plain = batch_estimate(requests, seed=7, mode="adaptive")
        assert [r.result for r in cached] == [r.result for r in plain]

    def test_no_seed_means_no_cache_files(self, tmp_path):
        results = batch_estimate(fig2_requests(), cache_dir=str(tmp_path))
        assert all(r.ok for r in results)
        assert os.listdir(tmp_path) == []

    def test_session_recomputes_bounds_and_verdicts(self, tmp_path, monkeypatch):
        # Bounds and zero-test verdicts are cheap to recompute: each is
        # cached per session, never persisted, and recomputed by the next.
        from repro.engine import session as session_module

        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        store = CacheStore(str(tmp_path))
        entry = store.entry(database, constraints, "M_ur", 7)
        session = EstimationSession(database, constraints, M_UR, cache=entry)
        bound = session.positivity_bound(query)
        assert session.is_possible(query, ("a1",)) is True
        plan_bound = session.plan(query, ("a1",)).bound
        entry.save()

        calls = []
        tests = []
        original = session_module.rrfreq_lower_bound
        original_test = session_module.image_is_consistent

        def counting(*args):
            calls.append(1)
            return original(*args)

        def counting_test(*args):
            tests.append(1)
            return original_test(*args)

        monkeypatch.setattr(session_module, "rrfreq_lower_bound", counting)
        monkeypatch.setattr(session_module, "image_is_consistent", counting_test)
        fresh_entry = store.entry(database, constraints, "M_ur", 7)
        fresh = EstimationSession(database, constraints, M_UR, cache=fresh_entry)
        assert fresh.positivity_bound(query) == bound
        assert fresh.positivity_bound(query) == bound
        assert calls == [1]
        assert fresh.is_possible(query, ("a1",)) is True
        assert fresh.is_possible(query, ("a1",)) is True
        assert fresh.plan(query, ("a1",)).bound == plan_bound
        assert calls == [1]
        # One consistency test per witness, shared by the zero-test and the
        # answer's bound, then the session memo.
        assert len(tests) == len(fresh.witnesses(query, ("a1",))) == 3


class TestCorruption:
    """Every damage mode degrades to recomputation — never a wrong answer."""

    @pytest.fixture
    def populated(self, tmp_path):
        requests = fig2_requests()
        baseline = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        return requests, baseline, entry_path(tmp_path), str(tmp_path)

    @pytest.fixture
    def populated_walk(self, tmp_path):
        # M_uo groups draw on the walk plane: one sample per batch.
        requests = fig2_requests(M_UO)
        baseline = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        return requests, baseline, entry_path(tmp_path), str(tmp_path)

    def rerun_and_compare(self, requests, baseline, cache_dir):
        damaged = batch_estimate(requests, seed=7, cache_dir=cache_dir)
        assert [r.result for r in damaged] == [r.result for r in baseline]

    def assert_dropped_field_is_damage(self, populated, field, value):
        """An entry holds exactly its five fields: a digest-valid one that
        carries a field an earlier version persisted is damage to fsck and
        to a load, and the rerun recomputes it and rewrites the entry
        without it."""
        from repro.engine import fsck_store

        requests, baseline, path, cache_dir = populated
        write_digested(path, {**json.load(open(path)), field: value})
        assert fsck_store(cache_dir).damaged == 1
        self.rerun_and_compare(requests, baseline, cache_dir)
        rewritten = json.load(open(entry_path(cache_dir)))
        assert field not in rewritten and stored_rows(rewritten)

    @staticmethod
    def decomposition_rows():
        """Figure 2's block decomposition in the v5 ``decomposition`` shape."""
        database, constraints = figure2_database()
        return [
            {
                "relation": block.relation,
                "group": list(block.group),
                "facts": [[f.relation, *f.values] for f in block.sorted_facts()],
            }
            for block in block_decomposition(database, constraints)
        ]

    def test_truncated_file(self, populated):
        requests, baseline, path, cache_dir = populated
        content = open(path).read()
        with open(path, "w") as handle:
            handle.write(content[: len(content) // 2])
        self.rerun_and_compare(requests, baseline, cache_dir)

    def test_garbage_file(self, populated):
        requests, baseline, path, cache_dir = populated
        with open(path, "w") as handle:
            handle.write("not json at all \x00\x01")
        self.rerun_and_compare(requests, baseline, cache_dir)

    def test_stale_version(self, populated):
        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        document["version"] = -1
        json.dump(document, open(path, "w"))
        self.rerun_and_compare(requests, baseline, cache_dir)
        # The rerun rewrote the entry at the current version.
        assert json.load(open(entry_path(cache_dir)))["version"] != -1

    def test_tampered_decomposition_facts(self, populated):
        # The decomposition is recomputed, never persisted: a tampered
        # one cannot reach the sampler.
        rows = self.decomposition_rows()
        rows[0]["facts"] = [["R", "evil", "fact"]]
        self.assert_dropped_field_is_damage(populated, "decomposition", rows)

    def test_regrouped_decomposition_rejected(self, populated):
        # Two blocks merged without changing the fact union.
        rows = self.decomposition_rows()
        assert len(rows) >= 2
        rows[0]["facts"].extend(rows.pop(1)["facts"])
        self.assert_dropped_field_is_damage(populated, "decomposition", rows)

    def test_reordered_decomposition_is_canonicalized(self, populated):
        # A reordered block list cannot change the sampler's block order:
        # the session decomposes the instance itself, in canonical order.
        rows = self.decomposition_rows()
        rows.reverse()
        self.assert_dropped_field_is_damage(populated, "decomposition", rows)

    def test_out_of_range_sample_indices(self, populated):
        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        document["samples"] = [[0, 999999]]
        json.dump(document, open(path, "w"))
        self.rerun_and_compare(requests, baseline, cache_dir)

    def test_boolean_sample_indices_rejected(self, populated):
        # bool is an int subclass: [true, 5] must not decode as facts 1, 5.
        # Rows in place of the blob are a wrong field type, digest or not.
        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        cold_blob = document["samples"]
        write_digested(path, {**document, "samples": [[True, 5]]})
        self.rerun_and_compare(requests, baseline, cache_dir)
        assert json.load(open(entry_path(cache_dir)))["samples"] == cold_blob

    def test_walk_entry_with_foreign_batch_is_discarded(
        self, populated_walk, monkeypatch
    ):
        # A digest-valid walk prefix that claims another batch size is a
        # foreign stream: it is redrawn from position 0, never extended.
        from repro.engine import session as session_module

        requests, baseline, path, cache_dir = populated_walk
        document = json.load(open(path))
        cold_rows = document["samples"]
        document["batch"] = 512
        write_digested(path, document)
        drawn = []
        original = session_module._WalkPlane.draw_batch

        def counting(self, batch_index, size):
            drawn.append(batch_index)
            return original(self, batch_index, size)

        monkeypatch.setattr(session_module._WalkPlane, "draw_batch", counting)
        self.rerun_and_compare(requests, baseline, cache_dir)
        assert drawn[:3] == [0, 1, 2]
        rewritten = json.load(open(entry_path(cache_dir)))
        assert rewritten["batch"] == 1
        assert rewritten["samples"] == cold_rows

    def test_wrong_field_types(self, populated):
        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        write_digested(path, {**document, "batch": "not-an-int"})
        self.rerun_and_compare(requests, baseline, cache_dir)

    def test_persisted_verdicts_are_damage(self, populated):
        # v6 persisted zero-test verdicts; v7 recomputes them per session,
        # so a v7-stamped entry that carries them is damage.
        self.assert_dropped_field_is_damage(populated, "possibility", {"q|[]": True})

    def test_out_of_range_bound_degrades_to_recompute(self, populated):
        # Estimators reject p_lower outside (0, 1]; bounds are closed forms
        # recomputed per session, so a stored one (even digest-valid) is
        # damage, never an input.
        _, _, _, cache_dir = populated
        query = str(fig2_requests()[0].query)
        self.assert_dropped_field_is_damage(populated, "bounds", {query: 0.0})
        adaptive = batch_estimate(
            fig2_requests(), seed=7, cache_dir=cache_dir, mode="adaptive"
        )
        assert all(r.ok for r in adaptive)

    def test_corrupt_samples_are_discarded_and_entry_rewritten(self, populated):
        # A truncated blob (digest re-stamped) is not whole rows: the entry
        # is discarded, and the damage must not be preserved — the
        # rewritten entry warms the third run.  (fig2 has 6 facts, so a
        # valid row is one word with no bits at position 6 or above.)
        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        cold_rows = stored_rows(document)
        blob = base64.b64decode(document["samples"])
        truncated = base64.b64encode(blob[:-3]).decode("ascii")
        write_digested(path, {**document, "samples": truncated})
        self.rerun_and_compare(requests, baseline, cache_dir)
        rewritten = stored_rows(json.load(open(entry_path(cache_dir))))
        assert rewritten == cold_rows  # the clean stream was re-persisted
        assert all(0 <= word < 2**6 for (word,) in rewritten)

    def test_sample_bits_beyond_the_instance_rejected(self, populated):
        # A shape-valid word with bits past the fact count is corruption,
        # not a bigger database — a check only a load can make (fsck has
        # no database), so a digest-valid entry passes fsck but not load.
        from repro.engine import fsck_store

        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        rows = stored_rows(document)
        rows[0] = [1 << 6]
        write_digested(path, {**document, "samples": encode_rows(rows)})
        assert fsck_store(cache_dir).ok
        self.rerun_and_compare(requests, baseline, cache_dir)
        rewritten = stored_rows(json.load(open(entry_path(cache_dir))))
        assert rewritten and all(word < 2**6 for (word,) in rewritten)

    @staticmethod
    def damage_middle_row(document, kind):
        """``document``'s blob (one word per row) with its middle row damaged."""
        blob = base64.b64decode(document["samples"])
        middle = 8 * (len(blob) // 16)
        if kind == "non-list":  # v5-style rows in place of the blob
            return stored_rows(document)
        row = {
            "2**64": (2**64).to_bytes(9, "little"),  # a word one byte too wide
            "beyond-instance": (1 << 6).to_bytes(8, "little"),
            "short": b"\x01\x00\x00\x00",
        }[kind]
        blob = blob[:middle] + row + blob[middle + 8 :]
        return base64.b64encode(blob).decode("ascii")

    @pytest.mark.parametrize("kind", ["2**64", "beyond-instance", "short", "non-list"])
    def test_digest_valid_bad_row_discards_the_prefix(self, populated, kind):
        # The digest cannot see damage written with a fresh digest, so the
        # validator (row shape) or the instance check (bits beyond the 6
        # facts) alone must reject it: the load discards the whole entry.
        requests, baseline, path, cache_dir = populated
        document = json.load(open(path))
        cold_blob = document["samples"]
        damaged = self.damage_middle_row(document, kind)
        write_digested(path, {**document, "samples": damaged})
        database, constraints = figure2_database()
        from repro.engine.batch import group_seed_for

        seed = group_seed_for(7, database, constraints, M_UR)
        entry = CacheStore(cache_dir).entry(database, constraints, "M_ur", seed)
        assert entry.load_error == "corrupt"
        assert entry.sample_word_rows().shape == (0, 1)
        self.rerun_and_compare(requests, baseline, cache_dir)
        assert json.load(open(path))["samples"] == cold_blob

    def test_bitflipped_walk_entry_redraws_rows_identical_to_cold(
        self, populated_walk
    ):
        # A flipped bit in a walk entry fails the digest; the rerun redraws
        # and re-persists exactly the rows the cold run wrote.
        requests, baseline, path, cache_dir = populated_walk
        cold_blob = json.load(open(path))["samples"]
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        self.rerun_and_compare(requests, baseline, cache_dir)
        rewritten = json.load(open(entry_path(cache_dir)))
        assert rewritten["samples"] == cold_blob

    def test_non_json_constants_never_discard_results(self, tmp_path, monkeypatch):
        # Fact constants are any hashable.  No persisted field carries a
        # constant (verdict keys serialize them via repr), so an instance
        # of Decimal values is cached like any other and warm-replays.
        from decimal import Decimal

        from repro.sampling import vectorized

        from repro.core import Database, Schema, fact, fd
        from repro.core.queries import atom, boolean_cq

        schema = Schema.from_spec({"R": ["A", "B"]})
        constraints = FDSet(schema, [fd("R", "A", "B")])
        database = Database(
            [
                fact("R", Decimal("1"), Decimal("2")),
                fact("R", Decimal("1"), Decimal("3")),
            ],
            schema=schema,
        )
        request = BatchRequest(
            database,
            constraints,
            M_UR,
            boolean_cq(atom("R", Decimal("1"), Decimal("2"))),
            epsilon=EPSILON,
            delta=DELTA,
        )
        results = batch_estimate([request], seed=7, cache_dir=str(tmp_path))
        assert results[0].ok
        plain = batch_estimate([request], seed=7)
        assert [r.result for r in results] == [r.result for r in plain]
        assert stored_rows(json.load(open(entry_path(tmp_path))))

        def no_draw(*args, **kwargs):
            raise AssertionError("a warm entry must not draw")

        monkeypatch.setattr(vectorized._BlockPlane, "draw_batch", no_draw)
        warm = batch_estimate([request], seed=7, cache_dir=str(tmp_path))
        assert [r.result for r in warm] == [r.result for r in plain]

    def test_unwritable_cache_dir_never_discards_results(self, tmp_path):
        # cache_dir colliding with an existing *file*: saving fails, but the
        # batch's computed results must still come back.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        requests = fig2_requests()
        results = batch_estimate(requests, seed=7, cache_dir=str(blocker))
        assert all(r.ok for r in results)
        plain = batch_estimate(requests, seed=7)
        assert [r.result for r in results] == [r.result for r in plain]

    def test_walk_samples_without_batch_are_discarded(self, populated_walk):
        # Walk samples whose batch size was lost cannot be resumed
        # consistently; they must be dropped and re-persisted.
        requests, baseline, path, cache_dir = populated_walk
        document = json.load(open(path))
        document["batch"] = None  # batch lost, samples left behind
        write_digested(path, document)
        self.rerun_and_compare(requests, baseline, cache_dir)
        rewritten = json.load(open(entry_path(cache_dir)))
        assert rewritten["batch"] == 1 and rewritten["samples"]


class TestTwoWriters:
    """Concurrent saves must merge, never clobber (the PR 5 race fix).

    Two runs sharing a cache_dir for the same key both load the entry,
    compute, and save; before the reload-and-merge, the second save
    silently dropped whatever the first appended (last writer wins).
    """

    def _writer(self, tmp_path, seed, grow_to):
        """An (entry, pool) pair that drew ``grow_to`` samples — but has
        not saved yet."""
        from repro.engine.batch import group_seed_for

        database, constraints = figure2_database()
        group_seed = group_seed_for(seed, database, constraints, M_UR)
        entry = CacheStore(str(tmp_path)).entry(
            database, constraints, "M_ur", group_seed
        )
        session = EstimationSession(database, constraints, M_UR, cache=entry)
        pool = session.cached_pool(group_seed)
        pool.ensure(grow_to)
        return entry, pool

    @pytest.mark.parametrize("first_saves_longer", [True, False])
    def test_interleaved_saves_keep_the_longer_prefix(self, tmp_path, first_saves_longer):
        lengths = (600, 40) if first_saves_longer else (40, 600)
        # Both writers load while the entry is empty — the racy interleave.
        writer_a, pool_a = self._writer(tmp_path, 7, lengths[0])
        writer_b, pool_b = self._writer(tmp_path, 7, lengths[1])
        writer_a.save()
        writer_b.save()
        with open(entry_path(tmp_path)) as handle:
            document = json.load(handle)
        # No sample batch was lost: the longer prefix survived either way,
        # and it is the cold stream's prefix.
        longer = pool_a if len(pool_a) > len(pool_b) else pool_b
        assert stored_rows(document) == longer.packed_prefix(len(longer)).tolist()

    def test_merged_entry_still_replays_bit_for_bit(self, tmp_path):
        writer_a, _ = self._writer(tmp_path, 7, 40)
        writer_b, _ = self._writer(tmp_path, 7, 600)
        writer_b.save()
        writer_a.save()  # shorter writer saves last: must not truncate
        requests = fig2_requests()
        warm = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        plain = batch_estimate(requests, seed=7)
        assert [r.result for r in warm] == [r.result for r in plain]

    def test_merge_survives_entry_without_resume_fields(self, tmp_path):
        # A digest-valid file may omit ``batch`` entirely; merging it must
        # degrade gracefully, never crash the save.
        from repro.engine import STORE_VERSION

        entry, pool = self._writer(tmp_path, 7, 40)
        write_digested(
            entry.path,
            {"version": STORE_VERSION, "samples": encode_rows([[0]] * 1024), "words": 1},
        )
        assert entry.save()  # must not raise despite the absent resume fields
        with open(entry.path) as handle:
            document = json.load(handle)
        assert document["batch"] == pool.batch_size
        assert stored_rows(document) == pool.packed_prefix(len(pool)).tolist()

    def test_cross_plane_writers_keep_their_own_prefix(self, tmp_path):
        # A batch-1 writer and a batch-512 vector writer share a key only
        # when one of them draws a foreign stream; the merge must not
        # splice streams.
        from repro.engine.batch import group_seed_for

        database, constraints = figure2_database()
        group_seed = group_seed_for(7, database, constraints, M_UR)
        store = CacheStore(str(tmp_path))

        vector_entry = store.entry(database, constraints, "M_ur", group_seed)
        vector_session = EstimationSession(
            database, constraints, M_UR, cache=vector_entry
        )
        vector_session.cached_pool(group_seed).ensure(10)

        scalar_entry = write_scalar_entry(tmp_path, 7, 40)

        vector_entry.save()
        scalar_entry.save()  # other batch size on disk: ours wins outright
        with open(entry_path(tmp_path)) as handle:
            document = json.load(handle)
        assert document["batch"] == 1
        assert len(stored_rows(document)) == 40
        # The M_ur run discards the foreign-batch prefix, never extends it.
        warm = batch_estimate(fig2_requests(), seed=7, cache_dir=str(tmp_path))
        plain = batch_estimate(fig2_requests(), seed=7)
        assert [r.result for r in warm] == [r.result for r in plain]
        with open(entry_path(tmp_path)) as handle:
            assert json.load(handle)["batch"] == 512

    def test_discarded_foreign_prefix_is_not_rewritten_without_draws(self, tmp_path):
        # Discarding a foreign-batch prefix draws nothing by itself, so a
        # group that draws nothing after it commits nothing: the merge
        # would only re-adopt the on-disk prefix byte for byte.
        from repro.engine.batch import group_seed_for

        write_scalar_entry(tmp_path, 7, 40).save()
        path = entry_path(tmp_path)
        before = os.stat(path)
        database, constraints = figure2_database()
        group_seed = group_seed_for(7, database, constraints, M_UR)
        entry = CacheStore(str(tmp_path)).entry(database, constraints, "M_ur", group_seed)
        pool = EstimationSession(database, constraints, M_UR, cache=entry).cached_pool(
            group_seed
        )
        assert len(pool) == 0  # the batch-1 prefix was discarded
        assert entry.save() is False
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


class TestWorkloadSpecAndCli:
    def workload_document(self, **extra):
        database, constraints = figure2_database()
        document = {
            "defaults": {"generator": "M_ur", "epsilon": 0.5, "delta": 0.2},
            "instances": {"fig2": instance_to_dict(database, constraints)},
            "requests": [
                {"instance": "fig2", "query": "Ans(?x) :- R(?x, ?y)", "answers": "all"}
            ],
        }
        document.update(extra)
        return document

    def test_spec_defaults(self):
        spec = workload_spec_from_dict(self.workload_document())
        assert spec.mode == "fixed" and spec.cache_dir is None
        assert not hasattr(spec, "backend")
        assert len(spec.requests) == 3

    def test_spec_backend_field_rejected(self):
        # The sample plane follows the generator; the field is gone.
        for value in ("auto", "vector", "scalar"):
            with pytest.raises(InstanceFormatError, match="follows the generator"):
                workload_spec_from_dict(self.workload_document(backend=value))

    def test_cli_backend_flag_rejected(self, tmp_path, capsys):
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(self.workload_document()))
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(workload), "--seed", "7", "--backend", "scalar"])
        assert exit_info.value.code == 2  # argparse: unrecognized arguments
        assert "--backend" in capsys.readouterr().err

    def test_spec_fields_parsed_and_cache_dir_resolved(self, tmp_path):
        document = self.workload_document(mode="adaptive", cache_dir="cache")
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(document))
        spec = load_workload_spec(str(path))
        assert spec.mode == "adaptive"
        assert spec.cache_dir == str(tmp_path / "cache")

    def test_bad_mode_rejected(self):
        with pytest.raises(InstanceFormatError, match="unknown mode"):
            workload_spec_from_dict(self.workload_document(mode="turbo"))
        with pytest.raises(InstanceFormatError, match="path string"):
            workload_spec_from_dict(self.workload_document(cache_dir=3))

    def test_cli_cache_dir_and_adaptive_mode(self, tmp_path, capsys):
        document = self.workload_document(mode="adaptive")
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(document))
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "batch",
                    str(workload),
                    "--seed",
                    "7",
                    "--cache-dir",
                    str(cache_dir),
                    "--json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert all("interval" in row for row in rows)  # adaptive rows carry CIs
        assert len(os.listdir(cache_dir)) == 1
        # Second run replays the cache and prints identical rows.
        main(
            [
                "batch",
                str(workload),
                "--seed",
                "7",
                "--cache-dir",
                str(cache_dir),
                "--json",
            ]
        )
        assert json.loads(capsys.readouterr().out) == rows

    def test_cli_warns_on_cache_without_seed(self, tmp_path, capsys):
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(self.workload_document()))
        main(["batch", str(workload), "--cache-dir", str(tmp_path / "c")])
        assert "no effect without --seed" in capsys.readouterr().err

    def test_cli_mode_flag_overrides_workload_field(self, tmp_path, capsys):
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(self.workload_document(mode="adaptive")))
        assert main(["batch", str(workload), "--seed", "7", "--mode", "fixed", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all("interval" not in row for row in rows)  # fixed-mode rows

    def test_group_seed_differs_between_generator_groups(self, tmp_path):
        # Two groups on one database get distinct derived seeds and hence
        # distinct cache entries.
        database, constraints = figure2_database()
        query = cq((x,), (atom("R", x, y),))
        requests = [
            BatchRequest(database, constraints, generator, query, answer=("a1",))
            for generator in (M_UR, M_US)
        ]
        batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert len(os.listdir(tmp_path)) == 2


class TestDurabilityEnvelope:
    """The envelope: digests on every load, old versions miss, temp hygiene."""

    @pytest.fixture
    def populated(self, tmp_path):
        requests = fig2_requests()
        baseline = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        return requests, baseline, entry_path(tmp_path), str(tmp_path)

    def test_saved_entries_carry_version_and_digest(self, populated):
        _, _, path, _ = populated
        document = json.load(open(path))
        from repro.engine import STORE_VERSION

        assert document["version"] == STORE_VERSION
        assert isinstance(document["digest"], str) and len(document["digest"]) == 64
        assert document["words"] >= 1
        assert set(document) == {"version", "digest", "words", "batch", "samples"}

    def test_single_bitflip_sets_load_error_and_discards_rows(self, populated):
        requests, baseline, path, cache_dir = populated
        data = bytearray(open(path, "rb").read())
        data[len(data) // 3] ^= 0x04
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        database, constraints = figure2_database()
        from repro.engine.batch import group_seed_for

        seed = group_seed_for(7, database, constraints, M_UR)
        entry = CacheStore(cache_dir).entry(database, constraints, "M_ur", seed)
        assert entry.load_error == "corrupt"
        assert len(entry.sample_word_rows()) == 0
        # And the batch path recomputes to the identical results.
        damaged = batch_estimate(requests, seed=7, cache_dir=cache_dir)
        assert [r.result for r in damaged] == [r.result for r in baseline]

    def test_v3_entry_loads_as_a_clean_miss(self, populated):
        requests, baseline, path, cache_dir = populated
        database, constraints = figure2_database()
        from repro.engine import STORE_VERSION, fsck_store
        from repro.engine.batch import group_seed_for

        seed = group_seed_for(7, database, constraints, M_UR)
        current = json.load(open(path))
        v3 = {k: v for k, v in current.items() if k not in ("digest", "words")}
        v3["version"] = 3
        with open(path, "w") as handle:
            json.dump(v3, handle)
        report = fsck_store(cache_dir)
        assert [row["detail"] for row in report.entries] == [
            "unknown store version 3"
        ]
        # An old entry is neither damage nor a warm start: a plain miss.
        entry = CacheStore(cache_dir).entry(database, constraints, "M_ur", seed)
        assert entry.path == path
        assert entry.load_error is None
        assert len(entry.sample_word_rows()) == 0
        rerun = batch_estimate(requests, seed=7, cache_dir=cache_dir)
        assert [r.result for r in rerun] == [r.result for r in baseline]
        # The next save rewrites the entry at the current version.
        assert json.load(open(path))["version"] == STORE_VERSION
        assert fsck_store(cache_dir).ok

    def test_stale_temp_files_are_swept_on_open(self, tmp_path):
        stale = tmp_path / "stale-writer.tmp"
        stale.write_text("torn write from a long-dead process")
        os.utime(stale, (1, 1))  # backdate far past the grace period
        fresh = tmp_path / "fresh-writer.tmp"
        fresh.write_text("a writer might still be committing this")
        store = CacheStore(str(tmp_path))
        assert store.swept_temps == 1
        assert not stale.exists() and fresh.exists()

    def test_sweep_grace_period_is_configurable(self, tmp_path):
        temp = tmp_path / "recent.tmp"
        temp.write_text("x")
        assert CacheStore(str(tmp_path)).swept_temps == 0
        assert CacheStore(str(tmp_path), tmp_grace_seconds=0.0).swept_temps == 1
        assert not temp.exists()

    def test_absorbed_save_failures_are_accounted(self, tmp_path):
        from repro.engine import fsfault
        from repro.engine.fsfault import FaultPlan
        from repro.engine.store import STORE_ERRORS

        requests = fig2_requests()
        before = STORE_ERRORS.total()
        with fsfault.injected(FaultPlan(write_enospc=True, crash="raise")):
            results = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert all(row.ok for row in results)  # absorbed, results intact
        assert STORE_ERRORS.total() > before   # ... but *accounted*
        snapshot = STORE_ERRORS.snapshot()
        assert snapshot["errors"].get("save:enospc")


class TestBlobEdgeCases:
    """Row widths at the edges of the packed-word geometry."""

    @staticmethod
    def keyed_instance(keys, per_key):
        from repro.core import Database, Schema, fact, fd

        schema = Schema.from_spec({"R": ["A", "B"]})
        facts = [fact("R", f"k{i}", f"v{j}") for i in range(keys) for j in range(per_key)]
        return Database(facts, schema=schema), FDSet(schema, [fd("R", "A", "B")])

    def test_fact_count_multiple_of_64_uses_every_bit(self, tmp_path, monkeypatch):
        # 64 facts: every bit of the one word is a fact, so the
        # bits-beyond check has nothing to shift (a uint64 shifted by 64
        # is undefined) and bit 63 must load as a sample bit, not damage.
        from repro.engine.batch import group_seed_for
        from repro.sampling import vectorized

        database, constraints = self.keyed_instance(32, 2)
        assert len(database) == 64
        requests = [
            BatchRequest(
                database, constraints, M_UR, boolean_cq(atom("R", "k31", "v1")),
                epsilon=EPSILON, delta=DELTA,
            )
        ]
        cold = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        group_seed = group_seed_for(7, database, constraints, M_UR)
        entry = CacheStore(str(tmp_path)).entry(database, constraints, "M_ur", group_seed)
        rows = entry.sample_word_rows()
        assert entry.load_error is None and rows.shape[1] == 1
        assert (rows[:, 0] >> np.uint64(63)).any()

        def no_draw(*args, **kwargs):
            raise AssertionError("a warm entry must not draw")

        monkeypatch.setattr(vectorized._BlockPlane, "draw_batch", no_draw)
        warm = batch_estimate(requests, seed=7, cache_dir=str(tmp_path))
        assert [r.result for r in warm] == [r.result for r in cold]

    def test_zero_fact_instance_persists_no_rows(self, tmp_path):
        # 0 facts means 0-word rows: the blob cannot count them, and there
        # is nothing to replay, so nothing is persisted — cold or warm.
        database, constraints = self.keyed_instance(0, 0)
        request = BatchRequest(
            database, constraints, M_UR, boolean_cq(atom("R", "k0", "v0")),
            epsilon=EPSILON, delta=DELTA,
        )
        cold = batch_estimate([request], seed=7, cache_dir=str(tmp_path))
        warm = batch_estimate([request], seed=7, cache_dir=str(tmp_path))
        assert cold[0].ok and [r.result for r in warm] == [r.result for r in cold]
        assert os.listdir(tmp_path) == []

        entry = CacheStore(str(tmp_path)).entry(database, constraints, "M_ur", 7)
        session = EstimationSession(database, constraints, M_UR, cache=entry)
        session.cached_pool(7).ensure(600)
        assert entry.save() is False  # drawn, but nothing to persist
        assert entry.sample_word_rows().shape == (0, 0)
        assert os.listdir(tmp_path) == []


def golden_instance():
    """79 facts (two packed words per row): key ``k{i}`` has ``1 + i % 3`` facts."""
    from repro.core import Database, Schema, fact, fd

    schema = Schema.from_spec({"R": ["A", "B"]})
    facts = [fact("R", f"k{i}", f"v{j}") for i in range(40) for j in range(1 + i % 3)]
    return Database(facts, schema=schema), FDSet(schema, [fd("R", "A", "B")])


def golden_requests(generator=M_UR):
    database, constraints = golden_instance()
    requests = [
        BatchRequest(
            database,
            constraints,
            generator,
            boolean_cq(atom("R", key, "v0")),
            epsilon=0.9,
            delta=0.5,
            method="fixed",
        )
        for key in ("k1", "k2")
    ]
    query = cq((x,), (atom("R", x, y),))
    requests += [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=(key,),
            epsilon=0.3,
            delta=0.1,
            method="dklr",
        )
        for key in ("k4", "k5")
    ]
    return requests


def install_golden(tmp_path, name, generator, seed):
    """Copy ``tests/data/<name>`` to the entry path of ``golden_requests``."""
    from repro.engine.batch import group_seed_for

    database, constraints = golden_instance()
    group_seed = group_seed_for(seed, database, constraints, generator)
    entry = CacheStore(str(tmp_path)).entry(
        database, constraints, generator.name, group_seed
    )
    with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as handle:
        written = handle.read()
    with open(entry.path, "wb") as handle:
        handle.write(written)
    return entry.path, written


#: M_ur rows of ``golden_requests()`` at seed 11.  The stream is unchanged
#: since the v4 goldens were written (M_ur streams are stable across store
#: versions).  The two fixed rows are sized from their one witness:
#: ``R(k1, v0)`` survives with 1/3 (a block of 2) and ``R(k2, v0)`` with
#: 1/4 (a block of 3), so ε 0.9, δ 0.5 budgets are 16 and 21 samples, and
#: the first 16 / 21 rows of ``golden_v7_vector.json`` hold 3 / 5 hits.
#: The dklr rows need no bound and keep their values.
MUR_SEED11_ROWS = [
    (3 / 16, 16),
    (5 / 21, 21),
    (0.5967860468843963, 210),
    (0.7688654591762161, 163),
]
#: M_uo rows of ``golden_requests(M_UO)`` at seed 13 on the walk plane.
MUO_SEED13_ROWS = [
    (0.3460591133004926, 812),
    (0.27216748768472904, 812),
    (0.6493526935011565, 193),
    (0.8467910124711029, 148),
]


class TestGoldenV4Entries:
    """v4–v6 entries written by earlier commits are clean misses at v7.

    ``golden_v4_vector.json`` is an ``M_ur`` entry (seed 11),
    ``golden_v4_muo.json`` an ``M_uo`` one (seed 13, a persisted RNG
    state), and ``golden_v4_scalar.json`` an ``M_ur`` entry drawn on the
    old scalar plane (seed 12).  ``golden_v5_vector.json`` and
    ``golden_v5_muo.json`` hold the same streams as JSON word rows, next
    to a persisted decomposition and bounds; ``golden_v6_vector.json``
    and ``golden_v6_muo.json`` hold them as one blob, next to persisted
    zero-test verdicts.  Each must load as a plain miss — no damage,
    nothing preloaded — be rewritten at the current version, and change
    no row.
    """

    @pytest.mark.parametrize(
        "name, generator, seed",
        [
            ("golden_v4_vector.json", M_UR, 11),
            ("golden_v4_scalar.json", M_UR, 12),
            ("golden_v4_muo.json", M_UO, 13),
            ("golden_v5_vector.json", M_UR, 11),
            ("golden_v5_muo.json", M_UO, 13),
            ("golden_v6_vector.json", M_UR, 11),
            ("golden_v6_muo.json", M_UO, 13),
        ],
        ids=["vector", "scalar", "muo", "v5-vector", "v5-muo", "v6-vector", "v6-muo"],
    )
    def test_v4_golden_entry_is_a_clean_miss(self, name, generator, seed, tmp_path):
        from repro.engine import STORE_VERSION, fsck_store
        from repro.engine.batch import group_seed_for

        path, _ = install_golden(tmp_path, name, generator, seed)
        database, constraints = golden_instance()
        group_seed = group_seed_for(seed, database, constraints, generator)
        entry = CacheStore(str(tmp_path)).entry(
            database, constraints, generator.name, group_seed
        )
        assert entry.path == path
        assert entry.load_error is None
        assert len(entry.sample_word_rows()) == 0
        session = EstimationSession(database, constraints, generator, cache=entry)
        pool = session.cached_pool(group_seed)
        assert len(pool) == 0  # nothing preloaded
        pool.ensure(8)
        entry.save()
        with open(path) as handle:
            rewritten = json.load(handle)
        assert rewritten["version"] == STORE_VERSION
        assert "backend" not in rewritten and "rng_state" not in rewritten
        cold = EstimationSession(database, constraints, generator)
        assert stored_rows(rewritten) == (
            cold.pool_for_seed(group_seed).packed_prefix(len(pool)).tolist()
        )
        assert fsck_store(str(tmp_path)).ok
        if generator is M_UR:
            warm = batch_estimate(
                golden_requests(), seed=seed, cache_dir=str(tmp_path)
            )
            plain = batch_estimate(golden_requests(), seed=seed)
            assert [r.result for r in warm] == [r.result for r in plain]
            if seed == 11:
                rows = [(r.result.estimate, r.result.samples_used) for r in warm]
                assert rows == MUR_SEED11_ROWS


class TestGoldenV7Entries:
    """v7 entries, one per plane, pin "a warm entry loads with zero draws".

    Each ``tests/data/golden_v7_*.json`` was written by a cold
    ``batch_estimate(golden_requests(generator), seed, cache_dir)``; the
    expected rows below are counts over its prefix (the ``M_ur`` fixed
    rows read a shorter one, sized from their witnesses).  A warm run must
    load it, draw nothing, return those rows and leave the file untouched
    — so the on-disk v7 format and both planes' streams stay unchanged.
    """

    EXPECTED = {
        "vector": ("golden_v7_vector.json", M_UR, 11, MUR_SEED11_ROWS),
        "scalar": ("golden_v7_muo.json", M_UO, 13, MUO_SEED13_ROWS),
    }

    @pytest.mark.parametrize("plane", ["vector", "scalar"])
    def test_golden_rows_equal_the_v5_and_v6_rows(self, plane):
        # v7 drops v6's verdicts, not a row: every version since v5
        # persists the same stream.
        name = self.EXPECTED[plane][0]
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, name)) as handle:
            v7 = json.load(handle)
        with open(os.path.join(data, name.replace("v7", "v6"))) as handle:
            v6 = json.load(handle)
        with open(os.path.join(data, name.replace("v7", "v5"))) as handle:
            v5 = json.load(handle)
        assert v7["batch"] == v6["batch"] == v5["batch"]
        assert v7["words"] == v6["words"] == v5["words"]
        assert v7["samples"] == v6["samples"]
        assert stored_rows(v7) == v5["samples"]

    @pytest.mark.parametrize("plane", ["vector", "scalar"])
    def test_golden_entry_warm_loads_without_drawing(
        self, plane, tmp_path, monkeypatch
    ):
        from repro.engine import session as session_module
        from repro.sampling import vectorized

        name, generator, seed, expected = self.EXPECTED[plane]
        path, written = install_golden(tmp_path, name, generator, seed)

        def no_draw(*args, **kwargs):
            raise AssertionError("a warm golden entry must not draw")

        monkeypatch.setattr(vectorized._BlockPlane, "draw_batch", no_draw)
        monkeypatch.setattr(session_module._WalkPlane, "draw_batch", no_draw)
        results = batch_estimate(
            golden_requests(generator), seed=seed, cache_dir=str(tmp_path)
        )
        assert [(r.result.estimate, r.result.samples_used) for r in results] == expected
        with open(path, "rb") as handle:
            assert handle.read() == written  # nothing new to persist
