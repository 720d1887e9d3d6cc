"""Batch planner, JSON workload parsing, and the ``repro batch`` command."""

import dataclasses
import json
import random

import pytest

from repro.chains.generators import M_UO1, M_UR, M_US
from repro.cli import main
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, boolean_cq, cq, var
from repro.engine import BatchRequest, batch_estimate
from repro.io import (
    InstanceFormatError,
    instance_to_dict,
    load_workload,
    save_instance,
    workload_from_dict,
)
from repro.workloads import figure2_database

x, y = var("x"), var("y")


def fig2_requests(epsilon=0.5, delta=0.2):
    database, constraints = figure2_database()
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database,
            constraints,
            M_UR,
            query,
            answer=candidate,
            epsilon=epsilon,
            delta=delta,
        )
        for candidate in sorted(query.answers(database), key=repr)
    ]


def two_group_requests():
    """The fig2 membership requests under M_ur and M_us: two groups."""
    return [
        dataclasses.replace(request, generator=generator)
        for generator in (M_UR, M_US)
        for request in fig2_requests()
    ]


class TestBatchEstimate:
    def test_results_in_input_order(self):
        requests = fig2_requests()
        results = batch_estimate(requests, seed=3)
        assert [r.request for r in results] == requests
        assert all(r.ok for r in results)
        by_answer = {r.request.answer: r.result.estimate for r in results}
        assert by_answer[("a2",)] == 1.0  # the conflict-free block
        assert 0 < by_answer[("a1",)] < 1

    def test_seeded_runs_are_reproducible(self):
        first = batch_estimate(fig2_requests(), seed=11)
        second = batch_estimate(fig2_requests(), seed=11)
        assert [r.result for r in first] == [r.result for r in second]

    def test_worker_fanout_matches_serial(self):
        requests = two_group_requests()
        serial = batch_estimate(requests, seed=13)
        fanned = batch_estimate(requests, seed=13, workers=2)
        assert [r.result for r in serial] == [r.result for r in fanned]

    def test_groups_share_one_pool(self):
        # All requests in one group use the same Chernoff budget here, so a
        # shared pool means identical sample counts — and estimates that are
        # bit-for-bit those of per-call runs re-seeded with the group seed.
        results = batch_estimate(fig2_requests(), seed=17)
        assert len({r.result.samples_used for r in results}) == 1

    def test_spawn_context_matches_serial(self, monkeypatch):
        from repro.engine.batch import START_METHOD_ENV

        # The service-plane regression: fork from a threaded process can
        # deadlock workers, so the spawn path must work — payloads must
        # pickle under spawn and estimates must not depend on the start
        # method.
        requests = two_group_requests()
        serial = batch_estimate(requests, seed=13)
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        spawned = batch_estimate(requests, seed=13, workers=2)
        assert [r.result for r in serial] == [r.result for r in spawned]

    def test_worker_store_errors_reach_the_callers_log(self, tmp_path):
        # A worker process records into its own copy of STORE_ERRORS, so
        # each group hands its failures back to the caller to count.
        from repro.engine.store import STORE_ERRORS

        requests = two_group_requests()
        batch_estimate(requests, seed=13, cache_dir=str(tmp_path))
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 2

        def added_errors(**options):
            for entry in entries:
                entry.write_text("{not json")
            before = STORE_ERRORS.snapshot()["errors"]
            batch_estimate(requests, seed=13, cache_dir=str(tmp_path), **options)
            after = STORE_ERRORS.snapshot()["errors"]
            return {
                key: count - before.get(key, 0)
                for key, count in after.items()
                if count != before.get(key, 0)
            }

        serial = added_errors()
        assert sum(count for key, count in serial.items() if key.startswith("load:")) == 2
        assert added_errors(workers=2) == serial

    def test_start_method_env_override(self, monkeypatch):
        from repro.engine.batch import START_METHOD_ENV, _pool_context

        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert _pool_context().get_start_method() == "spawn"
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        assert _pool_context().get_start_method() == "fork"

    def test_unknown_start_method_rejected(self, monkeypatch):
        from repro.engine.batch import START_METHOD_ENV

        monkeypatch.setenv(START_METHOD_ENV, "teleport")
        with pytest.raises(ValueError, match="unknown start method"):
            batch_estimate(fig2_requests(), seed=3, workers=2)

    def test_default_context_avoids_fork_with_live_threads(self):
        import threading

        from repro.engine.batch import _pool_context

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _pool_context().get_start_method() != "fork"
        finally:
            stop.set()
            thread.join()

    def test_unavailable_request_is_reported_not_raised(self, running_example):
        database, constraints, _ = running_example  # FDs: M_ur has no FPRAS
        bad = BatchRequest(
            database, constraints, M_UR, boolean_cq(atom("R", "a1", "b1", "c1"))
        )
        good = fig2_requests()[0]
        results = batch_estimate([bad, good], seed=19)
        assert not results[0].ok
        assert "M_ur beyond primary keys" in results[0].error
        assert results[1].ok

    def test_singleton_generator_group(self, running_example):
        database, constraints, (f1, _, _) = running_example
        request = BatchRequest(
            database,
            constraints,
            M_UO1,
            boolean_cq(atom("R", *f1.values)),
            epsilon=0.5,
            delta=0.2,
            method="dklr",
            max_samples=200,
        )
        (result,) = batch_estimate([request], seed=23)
        assert result.ok
        assert 0 <= result.result.estimate <= 1


def workload_document():
    database, constraints = figure2_database()
    return {
        "defaults": {"generator": "M_ur", "epsilon": 0.5, "delta": 0.2},
        "instances": {"fig2": instance_to_dict(database, constraints)},
        "requests": [
            {"instance": "fig2", "query": "Ans(?x) :- R(?x, ?y)", "answers": "all"},
            {
                "instance": "fig2",
                "generator": "M_us",
                "query": "Ans() :- R(a1, b1)",
            },
        ],
    }


class TestWorkloadParsing:
    def test_expansion_and_defaults(self):
        requests = workload_from_dict(workload_document())
        # Three candidates of Ans(?x) :- R(?x, ?y) plus the Boolean request.
        assert len(requests) == 4
        assert [r.answer for r in requests[:3]] == [("a1",), ("a2",), ("a3",)]
        assert all(r.epsilon == 0.5 and r.delta == 0.2 for r in requests)
        assert requests[3].generator is M_US
        assert all(r.label == "fig2" for r in requests)

    def test_parsed_workload_runs(self):
        results = batch_estimate(workload_from_dict(workload_document()), seed=29)
        assert all(r.ok for r in results)

    def test_instance_paths_resolve_against_workload_dir(self, tmp_path):
        database, constraints = figure2_database()
        save_instance(str(tmp_path / "fig2.json"), database, constraints)
        document = workload_document()
        document["instances"] = {"fig2": "fig2.json"}
        workload_path = tmp_path / "workload.json"
        workload_path.write_text(json.dumps(document))
        requests = load_workload(str(workload_path))
        assert len(requests) == 4
        assert requests[0].database == database

    @pytest.mark.parametrize(
        "option, message",
        [({"mode": "bogus"}, "unknown mode"), ({"cache_dir": 3}, "cache_dir")],
    )
    def test_file_loader_checks_the_execution_options(self, tmp_path, option, message):
        # load_workload is load_workload_spec's requests, so both loaders
        # reject a file whose top-level options are invalid.
        workload_path = tmp_path / "workload.json"
        workload_path.write_text(json.dumps({**workload_document(), **option}))
        with pytest.raises(InstanceFormatError, match=message):
            load_workload(str(workload_path))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("requests"), "needs 'instances' and 'requests'"),
            (
                lambda d: d["requests"][0].update(instance="nope"),
                "unknown instance",
            ),
            (
                lambda d: d["requests"][0].update(generator="M_xx"),
                "unknown generator",
            ),
            (
                lambda d: d["requests"][0].update(method="bogus"),
                "unknown method",
            ),
            (
                lambda d: d["requests"][0].update(answer=["a1"]),
                "not both",
            ),
            (
                lambda d: d["requests"][1].pop("query"),
                "lacks a 'query'",
            ),
            (
                lambda d: d["requests"][0].update(answers="All"),
                "must be the string 'all'",
            ),
            (
                lambda d: d["requests"][1].update(answer="a1"),
                "must be a list of values",
            ),
            (
                lambda d: d.update(instances=[{"schema": {}}]),
                "'instances' must be an object",
            ),
            (
                # Forgot 'answer' on a non-Boolean query: an arity error at
                # load time, not a silent certified-zero row at run time.
                lambda d: d["requests"][0].pop("answers"),
                "arity 0",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, mutate, message):
        document = workload_document()
        mutate(document)
        with pytest.raises(InstanceFormatError, match=message):
            workload_from_dict(document)

    def test_non_mapping_instance_rejected(self):
        document = workload_document()
        document["instances"]["fig2"] = 7
        with pytest.raises(InstanceFormatError, match="document or a file path"):
            workload_from_dict(document)


class TestBatchCommand:
    @pytest.fixture
    def workload_path(self, tmp_path):
        database, constraints = figure2_database()
        save_instance(str(tmp_path / "fig2.json"), database, constraints)
        document = workload_document()
        document["instances"] = {"fig2": "fig2.json"}
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_table_output(self, workload_path, capsys):
        assert main(["batch", workload_path, "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("fig2\tM_ur\ta1\t")
        assert "fixed-chernoff" in lines[0]

    def test_json_output_is_machine_readable(self, workload_path, capsys):
        assert main(["batch", workload_path, "--seed", "7", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["answer"] for row in rows[:3]] == [["a1"], ["a2"], ["a3"]]
        assert all("estimate" in row for row in rows)

    def test_seed_makes_output_reproducible(self, workload_path, capsys):
        main(["batch", workload_path, "--seed", "7"])
        first = capsys.readouterr().out
        main(["batch", workload_path, "--seed", "7", "--workers", "2"])
        assert capsys.readouterr().out == first

    def test_error_rows_set_exit_code(self, tmp_path, capsys):
        schema = Schema.from_spec({"R": ["A", "B", "C"]})
        database = Database(
            [fact("R", "a1", "b1", "c1"), fact("R", "a1", "b2", "c2")], schema=schema
        )
        constraints = FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])
        document = {
            "instances": {"fds": instance_to_dict(database, constraints)},
            "requests": [
                {"instance": "fds", "generator": "M_ur", "query": "Ans() :- R(a1, b1, c1)"}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["batch", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ERROR: M_ur beyond primary keys" in out


# -- seeded-stream independence (hypothesis) -------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import group_seed_for

_pair_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4)),
    min_size=1,
    max_size=8,
    unique=True,
)


def _group_instance(pairs):
    schema = Schema.from_spec({"R": ["A", "B"]})
    database = Database(
        [fact("R", f"a{a}", f"b{b}") for a, b in pairs], schema=schema
    )
    return database, FDSet(schema, [fd("R", "A", "B")])


class TestGroupSeedIndependence:
    """``group_seed_for`` is content-addressed: the cohort can never matter.

    The batch planner (and the warm service re-using its streams) relies
    on group seeds being (a) pairwise-distinct across distinct group
    contents — shared streams across groups would correlate their
    estimates — and (b) a pure function of ``(workload seed, group)``, so
    that reordering, duplicating, or partitioning a workload never moves
    any group onto a different stream.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        contents=st.lists(_pair_lists, min_size=2, max_size=5, unique_by=frozenset),
    )
    def test_pairwise_distinct_across_group_contents(self, seed, contents):
        groups = [_group_instance(pairs) for pairs in contents]
        derived = [
            group_seed_for(seed, database, constraints, M_UR)
            for database, constraints in groups
        ]
        assert len(set(derived)) == len(derived)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        contents=st.lists(_pair_lists, min_size=2, max_size=5, unique_by=frozenset),
        permutation=st.randoms(use_true_random=False),
    )
    def test_order_and_cohort_independent(self, seed, contents, permutation):
        groups = [_group_instance(pairs) for pairs in contents]
        in_order = {
            id(db): group_seed_for(seed, db, constraints, M_UR)
            for db, constraints in groups
        }
        shuffled = list(groups)
        permutation.shuffle(shuffled)
        # Drop one group entirely: the survivors' seeds must not move.
        for db, constraints in shuffled[1:]:
            assert group_seed_for(seed, db, constraints, M_UR) == in_order[id(db)]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pairs=_pair_lists)
    def test_distinct_across_generators_and_seeds(self, seed, pairs):
        database, constraints = _group_instance(pairs)
        by_generator = {
            generator.name: group_seed_for(seed, database, constraints, generator)
            for generator in (M_UR, M_US, M_UO1)
        }
        assert len(set(by_generator.values())) == 3
        assert group_seed_for(seed + 1, database, constraints, M_UR) != (
            by_generator["M_ur"]
        )

    def test_none_stays_none(self):
        database, constraints = _group_instance([(0, 0)])
        assert group_seed_for(None, database, constraints, M_UR) is None
