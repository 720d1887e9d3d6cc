"""Tests for JSON instance serialization and the query parser."""

import json

import pytest

from repro.core.queries import Variable, atom, boolean_cq, cq, var
from repro.io import (
    InstanceFormatError,
    format_query,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_query,
    save_instance,
    workload_from_dict,
)
from repro.workloads import figure2_database


class TestInstanceRoundTrip:
    def test_round_trip(self, figure2):
        database, constraints = figure2
        document = instance_to_dict(database, constraints)
        loaded_db, loaded_fds = instance_from_dict(document)
        assert loaded_db == database
        assert loaded_fds == constraints

    def test_file_round_trip(self, tmp_path, figure2):
        database, constraints = figure2
        path = tmp_path / "instance.json"
        save_instance(str(path), database, constraints)
        loaded_db, loaded_fds = load_instance(str(path))
        assert loaded_db == database
        assert loaded_fds == constraints

    def test_document_is_json_serializable(self, figure2):
        database, constraints = figure2
        json.dumps(instance_to_dict(database, constraints))

    def test_running_example_round_trip(self, running_example):
        database, constraints, _ = running_example
        loaded_db, loaded_fds = instance_from_dict(
            instance_to_dict(database, constraints)
        )
        assert loaded_db == database
        assert loaded_fds == constraints

    def test_missing_key_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_dict({"schema": {}, "facts": []})

    def test_malformed_fact_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_dict({"schema": {"R": ["A"]}, "facts": [["R"]], "fds": []})

    def test_malformed_fd_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_dict(
                {"schema": {"R": ["A", "B"]}, "facts": [], "fds": [["R", ["A"]]]}
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"schema": ["R"]}, "'schema' must map"),
            ({"schema": {"R": "AB"}}, "attribute names"),
            ({"facts": [["R", "a1"]]}, "does not conform"),
            ({"facts": [["S", "a1", "b1"]]}, "does not conform"),
            ({"facts": [["R", "a1", {"b": 1}]]}, "is an object"),
            ({"facts": {"R": ["a1", "b1"]}}, "'facts' must be a list"),
            ({"fds": [["R", ["A9"], ["B"]]]}, "not in R"),
            ({"fds": [["R", 5, ["B"]]]}, "attribute names"),
            ({"fds": [["S", ["A"], ["B"]]]}, "no relation named"),
        ],
    )
    def test_malformed_fields_rejected(self, change, message):
        document = {
            "schema": {"R": ["A", "B"]},
            "facts": [["R", "a1", "b1"]],
            "fds": [["R", ["A"], ["B"]]],
            **change,
        }
        with pytest.raises(InstanceFormatError, match=message):
            instance_from_dict(document)

    def test_nested_list_constants_frozen(self):
        document = {
            "schema": {"R": ["A", "B"]},
            "facts": [["R", ["edge", 0, 1], "x"]],
            "fds": [["R", ["A"], ["B"]]],
        }
        database, _ = instance_from_dict(document)
        f = next(iter(database))
        assert f.values[0] == ("edge", 0, 1)


class TestWorkloadFields:
    INSTANCE = {"schema": {"R": ["A", "B"]}, "facts": [["R", "a1", "b1"]], "fds": []}

    def document(self, row=None, **top):
        request = {"instance": "i", "query": "Ans(?x) :- R(?x, ?y)", "answer": ["a1"]}
        return {
            "instances": {"i": self.INSTANCE},
            "requests": [{**request, **(row or {})}],
            **top,
        }

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"epsilon": "abc"}, "'epsilon' must be a number"),
            ({"epsilon": [1]}, "'epsilon' must be a number"),
            ({"delta": None}, "'delta' must be a number"),
            ({"max_samples": "x"}, "'max_samples' must be a number"),
            ({"generator": ["M_ur"]}, "unknown generator"),
            ({"query": 5}, "must be a string"),
            ({"answer": [{"a": 1}]}, "is an object"),
            ({"instance": ["i"]}, "unknown instance"),
        ],
    )
    def test_malformed_request_fields_rejected(self, row, message):
        with pytest.raises(InstanceFormatError, match=message):
            workload_from_dict(self.document(row))

    def test_null_default_epsilon_rejected(self):
        document = self.document(defaults={"epsilon": None})
        with pytest.raises(InstanceFormatError, match="'epsilon' must be a number"):
            workload_from_dict(document)

    def test_non_list_requests_rejected(self):
        document = self.document()
        document["requests"] = 5
        with pytest.raises(InstanceFormatError, match="'requests' must be a list"):
            workload_from_dict(document)

    def test_null_max_samples_means_unbounded(self):
        (request,) = workload_from_dict(self.document({"max_samples": None}))
        assert request.max_samples is None


class TestQueryParsing:
    def test_boolean_query(self):
        query = parse_query("Ans() :- R(a1, b1)")
        assert query.is_boolean
        assert query.atoms[0].relation == "R"
        assert query.atoms[0].terms == ("a1", "b1")

    def test_variables_and_join(self):
        query = parse_query("Ans(?x) :- R(?x, ?y), S(?y, 1)")
        assert query.answer_variables == (Variable("x"),)
        assert query.atoms[1].terms == (Variable("y"), 1)

    def test_numeric_constants(self):
        query = parse_query("Ans() :- T(1), U(-3)")
        assert query.atoms[0].terms == (1,)
        assert query.atoms[1].terms == (-3,)

    def test_quoted_constants(self):
        query = parse_query("Ans() :- R('a b', \"c\")")
        assert query.atoms[0].terms == ("a b", "c")

    def test_round_trip_with_format(self):
        x, y = var("x"), var("y")
        original = cq((x,), (atom("R", x, y), atom("T", 1)))
        assert parse_query(format_query(original)) == original

    def test_round_trip_boolean(self):
        original = boolean_cq(atom("R", "a1", "b1"))
        assert parse_query(format_query(original)) == original

    def test_bad_shape_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_query("R(?x)")

    def test_constant_in_head_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_query("Ans(a) :- R(a)")

    def test_unsafe_head_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_query("Ans(?x) :- R(?y)")

    def test_garbage_between_atoms_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_query("Ans() :- R(?x) S(?x)")

    def test_empty_variable_name_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_query("Ans() :- R(?)")

    def test_parsed_query_evaluates(self, figure2):
        database, _ = figure2
        query = parse_query("Ans(?x) :- R(?x, b1)")
        assert query.answers(database) == frozenset({("a1",), ("a2",), ("a3",)})
