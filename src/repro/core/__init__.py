"""Core relational substrate: schemas, facts, databases, FDs, CQs, and the
operational-repair building blocks (violations, operations, sequences,
conflict graphs, blocks)."""

from .blocks import Block, BlockDecomposition, BlockError, block_decomposition
from .database import Database
from .dependencies import DependencyError, FDSet, FunctionalDependency, fd, key
from .facts import Constant, Fact, fact
from .graphs import (
    UndirectedGraph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    path_graph,
    relabel,
    star_graph,
)
from .interning import InstanceIndex, InterningError
from .operations import (
    Operation,
    apply_all,
    is_justified,
    justified_operations,
    remove,
    sorted_justified_operations,
)
from .queries import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    Variable,
    atom,
    boolean_cq,
    cq,
    var,
)
from .schema import RelationSchema, Schema, SchemaError
from .sequences import EMPTY_SEQUENCE, RepairingSequence, sequence
from .violations import (
    Violation,
    facts_in_violation,
    is_consistent,
    violating_fact_pairs,
    violations,
)

__all__ = [
    "Atom",
    "Block",
    "BlockDecomposition",
    "BlockError",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "DependencyError",
    "EMPTY_SEQUENCE",
    "FDSet",
    "Fact",
    "FunctionalDependency",
    "InstanceIndex",
    "InterningError",
    "Operation",
    "QueryError",
    "RelationSchema",
    "RepairingSequence",
    "Schema",
    "SchemaError",
    "UndirectedGraph",
    "Variable",
    "Violation",
    "apply_all",
    "atom",
    "block_decomposition",
    "boolean_cq",
    "complete_graph",
    "conflict_graph",
    "cq",
    "cycle_graph",
    "fact",
    "facts_in_violation",
    "fd",
    "is_consistent",
    "is_justified",
    "justified_operations",
    "key",
    "path_graph",
    "relabel",
    "remove",
    "sequence",
    "sorted_justified_operations",
    "star_graph",
    "var",
    "violating_fact_pairs",
    "violations",
]
