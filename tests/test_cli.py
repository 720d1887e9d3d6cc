"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import save_instance
from repro.workloads import figure2_database


@pytest.fixture
def fig2_path(tmp_path):
    database, constraints = figure2_database()
    path = tmp_path / "fig2.json"
    save_instance(str(path), database, constraints)
    return str(path)


class TestInspect:
    def test_reports_structure(self, fig2_path, capsys):
        assert main(["inspect", fig2_path]) == 0
        out = capsys.readouterr().out
        assert "facts: 6" in out
        assert "consistent: False" in out
        assert "violations: 4" in out
        assert "conflict components: 2" in out


class TestAnswers:
    def test_exact_table(self, fig2_path, capsys):
        assert main(["answers", fig2_path, "-q", "Ans(?x) :- R(?x, ?y)"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("a2\t1")
        assert any(line.startswith("a1\t3/4") for line in lines)

    def test_generator_selection(self, fig2_path, capsys):
        assert main(
            ["answers", fig2_path, "-q", "Ans() :- R(a1, b1)", "-g", "M_us"]
        ) == 0
        out = capsys.readouterr().out
        assert "8/33" in out

    def test_approx_method(self, fig2_path, capsys):
        assert main(
            [
                "answers", fig2_path,
                "-q", "Ans() :- R(a2, b1)",
                "--method", "approx", "--epsilon", "0.3", "--seed", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1.0" in out  # the certain fact


class TestProbability:
    def test_exact_value(self, fig2_path, capsys):
        assert main(
            ["probability", fig2_path, "-q", "Ans() :- R(a1, b1)", "-g", "M_ur"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("1/4")

    def test_with_answer_tuple(self, fig2_path, capsys):
        assert main(
            [
                "probability", fig2_path,
                "-q", "Ans(?x) :- R(a1, ?x)",
                "-a", "b1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("1/4")


class TestSampleAndCount:
    def test_sample_repairs(self, fig2_path, capsys):
        assert main(["sample", fig2_path, "-n", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_sample_sequences(self, fig2_path, capsys):
        assert main(
            ["sample", fig2_path, "--what", "sequence", "-n", "2", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2
        assert "-R(" in out

    def test_sample_walks(self, fig2_path, capsys):
        assert main(
            ["sample", fig2_path, "--what", "walk", "-n", "2", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "pi =" in out

    def test_count_repairs(self, fig2_path, capsys):
        assert main(["count", fig2_path]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_count_crs(self, fig2_path, capsys):
        assert main(["count", fig2_path, "--what", "crs"]) == 0
        assert capsys.readouterr().out.strip() == "99"

    def test_count_singleton(self, fig2_path, capsys):
        assert main(["count", fig2_path, "--singleton"]) == 0
        assert capsys.readouterr().out.strip() == "6"


class TestBatchAllowErrors:
    """A mixed workload with known out-of-scope rows: ``--allow-errors``
    distinguishes "ran, some rows out of scope" (exit 0) from "crashed"."""

    @pytest.fixture
    def mixed_workload_path(self, tmp_path):
        from repro.core import Database, FDSet, Schema, fact, fd
        from repro.io import instance_to_dict

        database, constraints = figure2_database()
        schema = Schema.from_spec({"R": ["A", "B", "C"]})
        fd_database = Database(
            [fact("R", "a1", "b1", "c1"), fact("R", "a1", "b2", "c2")], schema=schema
        )
        fd_constraints = FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])
        document = {
            "defaults": {"epsilon": 0.5, "delta": 0.2},
            "instances": {
                "fig2": instance_to_dict(database, constraints),
                "fds": instance_to_dict(fd_database, fd_constraints),
            },
            "requests": [
                {"instance": "fig2", "query": "Ans() :- R(a1, b1)"},
                # M_ur beyond primary keys: a per-row scope error.
                {"instance": "fds", "query": "Ans() :- R(a1, b1, c1)"},
            ],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_error_rows_exit_1_by_default(self, mixed_workload_path, capsys):
        assert main(["batch", mixed_workload_path, "--seed", "5", "--json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert "estimate" in rows[0]
        assert "primary keys" in rows[1]["error"]

    def test_allow_errors_exits_0_with_error_rows_intact(
        self, mixed_workload_path, capsys
    ):
        assert (
            main(
                [
                    "batch",
                    mixed_workload_path,
                    "--seed", "5",
                    "--json",
                    "--allow-errors",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert "estimate" in rows[0]
        assert "primary keys" in rows[1]["error"]

    def test_allow_errors_without_errors_still_exits_0(self, fig2_path, tmp_path, capsys):
        document = {
            "instances": {"fig2": fig2_path},
            "requests": [
                {
                    "instance": "fig2",
                    "query": "Ans() :- R(a1, b1)",
                    "epsilon": 0.5,
                    "delta": 0.2,
                }
            ],
        }
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(document))
        assert main(["batch", str(path), "--seed", "5", "--allow-errors"]) == 0
        assert "ERROR" not in capsys.readouterr().out

    def test_malformed_workload_is_a_clean_error(self, fig2_path, tmp_path, capsys):
        document = {
            "instances": {"fig2": fig2_path},
            "requests": [{"instance": "fig2", "query": "Ans() :- R(a1, b1)", "epsilon": "x"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["batch", str(path), "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'epsilon' must be a number" in captured.err


class TestExamples:
    @pytest.mark.parametrize("name", ["figure2", "running", "intro", "pathological8"])
    def test_examples_dump_valid_instances(self, name, capsys, tmp_path):
        assert main(["example", name]) == 0
        document = json.loads(capsys.readouterr().out)
        from repro.io import instance_from_dict

        database, constraints = instance_from_dict(document)
        assert len(database) >= 2

    def test_example_pipes_into_inspect(self, capsys, tmp_path):
        assert main(["example", "running"]) == 0
        document = capsys.readouterr().out
        path = tmp_path / "running.json"
        path.write_text(document)
        assert main(["inspect", str(path)]) == 0
        assert "violations: 2" in capsys.readouterr().out
