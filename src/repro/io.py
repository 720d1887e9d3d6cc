"""Serialization: JSON instances, JSON batch workloads, a text query syntax.

Instance JSON format::

    {
      "schema": {"R": ["A", "B"]},
      "facts":  [["R", "a1", "b1"], ["R", "a1", "b2"]],
      "fds":    [["R", ["A"], ["B"]]]
    }

Query text format (variables start with ``?``; bare tokens are constants,
parsed as ints when numeric)::

    Ans(?x) :- R(?x, ?y), T(1)

Workload JSON format (consumed by ``python -m repro batch`` and
:func:`load_workload`; full reference in ``docs/FORMATS.md``)::

    {
      "mode":      "adaptive",
      "cache_dir": ".repro-cache",
      "defaults":  {"generator": "M_ur", "epsilon": 0.2},
      "instances": {"shop": {...inline instance...}, "hr": "hr.json"},
      "requests":  [
        {"instance": "shop", "query": "Ans(?x) :- R(?x, ?y)", "answer": ["a1"]},
        {"instance": "shop", "query": "Ans(?x) :- R(?x, ?y)", "answers": "all"}
      ]
    }

The optional top-level ``mode`` (``"fixed"`` | ``"adaptive"``) and
``cache_dir`` fields carry execution options; :func:`load_workload_spec`
returns them alongside the parsed requests as a :class:`WorkloadSpec`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .chains.generators import GENERATORS_BY_NAME
from .core.database import Database
from .core.dependencies import DependencyError, FDSet, FunctionalDependency
from .core.facts import Constant, Fact
from .core.queries import Atom, ConjunctiveQuery, QueryError, Variable
from .core.schema import Schema, SchemaError
from .engine.batch import MODES, BatchRequest
from .engine.session import METHODS


class InstanceFormatError(ValueError):
    """Raised for malformed instance documents or query strings."""


# -- instances -----------------------------------------------------------------------


def instance_from_dict(document: Mapping[str, Any]) -> tuple[Database, FDSet]:
    """Parse an instance document into ``(Database, FDSet)``.

    Every malformed field — a wrong JSON type, a fact that does not fit
    its relation, an FD naming an unknown attribute — raises
    :class:`InstanceFormatError`.
    """
    if not isinstance(document, Mapping):
        raise InstanceFormatError("an instance document must be an object")
    try:
        schema_spec = document["schema"]
        fact_rows = document["facts"]
        fd_rows = document["fds"]
    except KeyError as missing:
        raise InstanceFormatError(f"instance document lacks key {missing}") from None
    if not isinstance(schema_spec, Mapping):
        raise InstanceFormatError("'schema' must map relations to attribute lists")
    spec = {
        name: _names(attrs, f"relation {name!r}") for name, attrs in schema_spec.items()
    }
    facts = []
    for row in _rows(fact_rows, "facts"):
        if not _relation_row(row) or len(row) < 2:
            raise InstanceFormatError(f"malformed fact row {row!r}")
        relation, *values = row
        facts.append(Fact(relation, tuple(_freeze(v) for v in values)))
    dependencies = []
    for row in _rows(fd_rows, "fds"):
        if not _relation_row(row) or len(row) != 3:
            raise InstanceFormatError(f"malformed fd row {row!r}")
        relation, lhs, rhs = row
        what = f"fd row {row!r}"
        dependencies.append((relation, _names(lhs, what), _names(rhs, what)))
    try:
        schema = Schema.from_spec(spec)
        database = Database(facts, schema=schema)
        constraints = FDSet(
            schema, [FunctionalDependency(*dependency) for dependency in dependencies]
        )
    except (SchemaError, DependencyError) as error:
        raise InstanceFormatError(str(error)) from None
    return database, constraints


def instance_to_dict(database: Database, constraints: FDSet) -> dict[str, Any]:
    """Serialize ``(Database, FDSet)`` to the instance document format."""
    schema = constraints.schema
    return {
        "schema": {rel.name: list(rel.attributes) for rel in schema},
        "facts": [[f.relation, *f.values] for f in database.sorted_facts()],
        "fds": [
            [d.relation, sorted(d.lhs), sorted(d.rhs)] for d in constraints
        ],
    }


def load_instance(path: str) -> tuple[Database, FDSet]:
    """Load an instance from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return instance_from_dict(json.load(handle))


def save_instance(path: str, database: Database, constraints: FDSet) -> None:
    """Write an instance to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_dict(database, constraints), handle, indent=2)


def _freeze(value: Any) -> Constant:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, Mapping):
        raise InstanceFormatError(f"constant {value!r} is an object, not a value")
    return value


def _relation_row(row: Any) -> bool:
    """Whether ``row`` is a non-empty array led by a relation name."""
    return isinstance(row, (list, tuple)) and bool(row) and isinstance(row[0], str)


def _rows(value: Any, what: str) -> list | tuple:
    """``value`` as a JSON array, or :class:`InstanceFormatError`."""
    if not isinstance(value, (list, tuple)):
        raise InstanceFormatError(f"{what!r} must be a list, got {value!r}")
    return value


def _names(value: Any, what: str) -> list[str]:
    """``value`` as a list of attribute-name strings."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise InstanceFormatError(f"{what} needs attribute names, got {value!r}")
    return list(value)


def _number(row: Mapping, defaults: Mapping, key: str, default, kind: Callable):
    """Request field ``key`` (else its default) as ``kind`` (``float``/``int``).

    Only a ``None`` default lets the field be ``null``.  Booleans are not
    numbers here, and an ``int`` field takes only integral values.
    """
    value = row.get(key, defaults.get(key, default))
    if value is None and default is None:
        return None
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise InstanceFormatError(f"{key!r} must be an integer, got {value!r}")
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InstanceFormatError(f"{key!r} must be a number, got {value!r}") from None


# -- batch workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """A parsed workload: the request rows plus execution options.

    ``mode`` selects the estimation strategy (``"fixed"`` classical
    estimators, ``"adaptive"`` sequential early stopping) and ``cache_dir``
    names a persistent :class:`~repro.engine.store.CacheStore` directory;
    both default to CLI-flag overridable values.
    """

    requests: list = field(default_factory=list)
    mode: str = "fixed"
    cache_dir: str | None = None


def mode_from_dict(document: Mapping[str, Any]) -> str:
    """A document's ``mode`` (default ``"fixed"``), one of :data:`MODES`."""
    mode = document.get("mode", "fixed")
    if mode not in MODES:
        raise InstanceFormatError(f"unknown mode {mode!r}; choose from {MODES}")
    return mode


def workload_spec_from_dict(
    document: Mapping[str, Any], *, base_dir: str | None = None
) -> WorkloadSpec:
    """Parse a workload document including the top-level execution options.

    ``mode`` must be one of ``"fixed"`` / ``"adaptive"``; a relative
    ``cache_dir`` resolves against ``base_dir`` (the workload file's
    directory when loaded from disk).
    """
    requests = workload_from_dict(document, base_dir=base_dir)
    mode = mode_from_dict(document)
    cache_dir = document.get("cache_dir")
    if cache_dir is not None:
        if not isinstance(cache_dir, str):
            raise InstanceFormatError("'cache_dir' must be a path string")
        if base_dir is not None and not os.path.isabs(cache_dir):
            cache_dir = os.path.join(base_dir, cache_dir)
    return WorkloadSpec(requests=requests, mode=mode, cache_dir=cache_dir)


def load_workload_spec(path: str) -> WorkloadSpec:
    """Load a workload file as a :class:`WorkloadSpec` (requests + options)."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return workload_spec_from_dict(
        document, base_dir=os.path.dirname(os.path.abspath(path))
    )


def workload_from_dict(
    document: Mapping[str, Any],
    *,
    base_dir: str | None = None,
    parse_instance: Callable[
        [Mapping[str, Any]], tuple[Database, FDSet]
    ] = instance_from_dict,
) -> list[BatchRequest]:
    """Parse a workload document into :class:`~repro.engine.batch.BatchRequest` rows.

    ``instances`` maps names to inline instance documents or to paths of
    instance JSON files (resolved against ``base_dir`` when relative).  Each
    request names an instance and a query and gives either one ``answer``
    tuple or ``"answers": "all"``, which expands to every candidate tuple of
    ``Q(D)`` in deterministic order.  ``defaults`` supplies fallback values
    for ``generator``, ``epsilon``, ``delta``, ``method`` and
    ``max_samples``.  There is no sample-plane field: a document carrying
    ``backend`` is rejected, because the plane follows the sampling law.
    ``parse_instance`` parses each inline instance document; the service
    passes a memoizing wrapper of :func:`instance_from_dict`.
    """
    try:
        instance_specs = document["instances"]
        request_rows = document["requests"]
    except (KeyError, TypeError):
        raise InstanceFormatError(
            "workload document needs 'instances' and 'requests' keys"
        ) from None
    if "backend" in document:
        raise InstanceFormatError(
            "'backend' is not a workload field: the sample plane follows the "
            "generator's sampling law (repro.engine.LAWS)"
        )
    defaults = document.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise InstanceFormatError("workload 'defaults' must be an object")
    if not isinstance(instance_specs, Mapping):
        raise InstanceFormatError("workload 'instances' must be an object")
    instances: dict[str, tuple[Database, FDSet]] = {}
    for name, spec in instance_specs.items():
        if isinstance(spec, str):
            path = spec
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            instances[name] = load_instance(path)
        elif isinstance(spec, Mapping):
            instances[name] = parse_instance(spec)
        else:
            raise InstanceFormatError(
                f"instance {name!r} must be a document or a file path"
            )
    requests: list[BatchRequest] = []
    for row in _rows(request_rows, "requests"):
        if not isinstance(row, Mapping):
            raise InstanceFormatError(f"malformed request row {row!r}")
        name = row.get("instance")
        if not isinstance(name, str) or name not in instances:
            raise InstanceFormatError(
                f"request names unknown instance {name!r}; "
                f"declared: {sorted(instances)}"
            )
        database, constraints = instances[name]
        generator_name = row.get("generator", defaults.get("generator", "M_ur"))
        generator = (
            GENERATORS_BY_NAME.get(generator_name)
            if isinstance(generator_name, str)
            else None
        )
        if generator is None:
            raise InstanceFormatError(
                f"unknown generator {generator_name!r}; "
                f"choose from {sorted(GENERATORS_BY_NAME)}"
            )
        if "query" not in row:
            raise InstanceFormatError(f"request row lacks a 'query': {row!r}")
        query = parse_query(row["query"])
        method = row.get("method", defaults.get("method", "auto"))
        if method not in METHODS:
            raise InstanceFormatError(
                f"unknown method {method!r}; choose from {METHODS}"
            )
        common = dict(
            database=database,
            constraints=constraints,
            generator=generator,
            query=query,
            epsilon=_number(row, defaults, "epsilon", 0.2, float),
            delta=_number(row, defaults, "delta", 0.05, float),
            method=method,
            max_samples=_number(row, defaults, "max_samples", None, int),
            label=str(name),
        )
        if "answers" in row:
            if row["answers"] != "all":
                raise InstanceFormatError(
                    f"'answers' must be the string 'all', got {row['answers']!r}"
                )
            if "answer" in row:
                raise InstanceFormatError(
                    "give either 'answer' or 'answers': 'all', not both"
                )
            for candidate in sorted(query.answers(database), key=repr):
                requests.append(BatchRequest(answer=candidate, **common))
        else:
            raw_answer = row.get("answer", [])
            if not isinstance(raw_answer, (list, tuple)):
                raise InstanceFormatError(
                    f"'answer' must be a list of values, got {raw_answer!r}"
                )
            answer = tuple(_freeze(v) for v in raw_answer)
            if len(answer) != len(query.answer_variables):
                raise InstanceFormatError(
                    f"answer {answer!r} has arity {len(answer)} but query "
                    f"{row['query']!r} expects {len(query.answer_variables)} "
                    "(use 'answers': 'all' to enumerate candidates)"
                )
            requests.append(BatchRequest(answer=answer, **common))
    return requests


def load_workload(path: str) -> list[BatchRequest]:
    """The requests of :func:`load_workload_spec` (see ``docs/FORMATS.md``).

    Relative instance paths inside the workload resolve against the
    workload file's own directory; an invalid ``mode`` or ``cache_dir``
    raises :class:`InstanceFormatError` here too.
    """
    return load_workload_spec(path).requests


def batch_result_to_row(outcome) -> dict[str, Any]:
    """One :class:`~repro.engine.batch.BatchResult` as a JSON-native row.

    The single row schema every machine-readable surface emits —
    ``python -m repro batch --json`` and the service HTTP API both build
    their output through here, so the two can never drift.  Successful
    rows carry ``estimate`` / ``samples`` / ``method`` / ``certified_zero``
    (plus ``interval`` when the estimator produced one); failed rows carry
    ``error`` instead.
    """
    request = outcome.request
    row: dict[str, Any] = {
        "instance": request.label,
        "generator": request.generator.name,
        "query": str(request.query),
        "answer": list(request.answer),
    }
    if outcome.ok:
        row.update(
            estimate=outcome.result.estimate,
            samples=outcome.result.samples_used,
            method=outcome.result.method,
            certified_zero=outcome.result.certified_zero,
        )
        interval = getattr(outcome.result, "interval", None)
        if interval is not None:
            row["interval"] = [interval.lower, interval.upper]
    else:
        row["error"] = outcome.error
    return row


def batch_results_to_rows(results) -> list[dict[str, Any]]:
    """Serialize a ``batch_estimate`` result list to JSON-native rows."""
    return [batch_result_to_row(outcome) for outcome in results]


# -- queries --------------------------------------------------------------------------

_QUERY_SHAPE = re.compile(r"^\s*Ans\s*\((?P<head>[^)]*)\)\s*:-\s*(?P<body>.+)$")
_ATOM_SHAPE = re.compile(r"\s*(?P<relation>\w+)\s*\((?P<terms>[^)]*)\)\s*")


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``Ans(?x) :- R(?x, a), S(1)`` into a :class:`ConjunctiveQuery`."""
    if not isinstance(text, str):
        raise InstanceFormatError(f"a query must be a string, got {text!r}")
    match = _QUERY_SHAPE.match(text)
    if match is None:
        raise InstanceFormatError(
            f"query {text!r} does not match 'Ans(...) :- atom, atom, ...'"
        )
    head = [
        _parse_term(token)
        for token in _split_terms(match.group("head"))
    ]
    for term in head:
        if not isinstance(term, Variable):
            raise InstanceFormatError("answer positions must be ?variables")
    atoms = []
    rest = match.group("body")
    position = 0
    while position < len(rest):
        atom_match = _ATOM_SHAPE.match(rest, position)
        if atom_match is None:
            raise InstanceFormatError(f"cannot parse atom at ...{rest[position:]!r}")
        terms = tuple(
            _parse_term(token) for token in _split_terms(atom_match.group("terms"))
        )
        if not terms:
            raise InstanceFormatError("atoms need at least one term")
        atoms.append(Atom(atom_match.group("relation"), terms))
        position = atom_match.end()
        if position < len(rest):
            if rest[position] != ",":
                raise InstanceFormatError(
                    f"expected ',' between atoms at ...{rest[position:]!r}"
                )
            position += 1
    try:
        return ConjunctiveQuery(tuple(head), tuple(atoms))
    except QueryError as error:
        raise InstanceFormatError(str(error)) from None


def format_query(query: ConjunctiveQuery) -> str:
    """The inverse of :func:`parse_query` (up to whitespace)."""
    head = ", ".join(f"?{v.name}" for v in query.answer_variables)
    atoms = []
    for atom in query.atoms:
        terms = ", ".join(
            f"?{t.name}" if isinstance(t, Variable) else str(t) for t in atom.terms
        )
        atoms.append(f"{atom.relation}({terms})")
    return f"Ans({head}) :- " + ", ".join(atoms)


def _split_terms(raw: str) -> list[str]:
    stripped = raw.strip()
    if not stripped:
        return []
    return [token.strip() for token in stripped.split(",")]


def _parse_term(token: str) -> Variable | Constant:
    if not token:
        raise InstanceFormatError("empty term")
    if token.startswith("?"):
        name = token[1:]
        if not name:
            raise InstanceFormatError("variable needs a name after '?'")
        return Variable(name)
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    if (token.startswith("'") and token.endswith("'")) or (
        token.startswith('"') and token.endswith('"')
    ):
        return token[1:-1]
    return token
