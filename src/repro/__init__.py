"""repro — Uniform Operational Consistent Query Answering (PODS 2022).

A complete, executable reproduction of Calautti, Livshits, Pieris and
Schneider, *Uniform Operational Consistent Query Answering* (PODS 2022,
arXiv:2204.10592): the operational repair framework, the three uniform
repairing Markov chain generators and their singleton-operation variants,
exact engines, polynomial counters and samplers, FPRAS wrappers, the
hardness reductions as runnable constructions, a classical-CQA baseline,
and a batched estimation engine that shares sample pools across requests.

Quickstart::

    from repro import (
        Database, FDSet, Schema, fact, fd,
        M_UR, M_US, M_UO, operational_consistent_answers,
    )

See ``examples/quickstart.py``, ``README.md`` and ``docs/ARCHITECTURE.md``.
"""

from .approx import (
    AdaptiveResult,
    EstimateResult,
    FPRASUnavailable,
    SequentialEstimator,
    adaptive_estimate,
    fixed_budget_estimate,
    fpras_ocqa,
)
from .chains import (
    ALL_GENERATORS,
    M_UO,
    M_UO1,
    M_UR,
    M_UR1,
    M_US,
    M_US1,
    LocalChainGenerator,
    MarkovChainGenerator,
    RepairingMarkovChain,
    UniformOperations,
    UniformRepairs,
    UniformSequences,
)
from .core import (
    ConjunctiveQuery,
    Database,
    FDSet,
    Fact,
    FunctionalDependency,
    InstanceIndex,
    Operation,
    RelationSchema,
    RepairingSequence,
    Schema,
    UndirectedGraph,
    Variable,
    atom,
    boolean_cq,
    conflict_graph,
    cq,
    fact,
    fd,
    key,
    var,
)
from .cqa import (
    classical_relative_frequency,
    consistent_answers,
    ocqa_probability,
    operational_consistent_answers,
    subset_repairs,
)
from .engine import (
    BatchRequest,
    BatchResult,
    CacheStore,
    EstimationSession,
    SamplePool,
    batch_estimate,
)
from .exact import exact_ocqa, rrfreq, rrfreq1, srfreq, srfreq1
from .exact.possibility import answer_is_possible, witnessing_repair
from .sampling import LocalChainSampler
from .chains.trust import TrustWeightedOperations
from .analysis import (
    compare_generators,
    expected_answer_count,
    expected_repair_size,
    inconsistency_report,
    repair_distribution,
)
from .io import (
    WorkloadSpec,
    load_instance,
    load_workload,
    load_workload_spec,
    parse_query,
    save_instance,
    workload_from_dict,
    workload_spec_from_dict,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_GENERATORS",
    "AdaptiveResult",
    "CacheStore",
    "LocalChainGenerator",
    "LocalChainSampler",
    "TrustWeightedOperations",
    "SequentialEstimator",
    "WorkloadSpec",
    "adaptive_estimate",
    "answer_is_possible",
    "compare_generators",
    "expected_answer_count",
    "expected_repair_size",
    "batch_estimate",
    "inconsistency_report",
    "load_instance",
    "load_workload",
    "load_workload_spec",
    "parse_query",
    "repair_distribution",
    "save_instance",
    "witnessing_repair",
    "workload_from_dict",
    "workload_spec_from_dict",
    "BatchRequest",
    "BatchResult",
    "ConjunctiveQuery",
    "Database",
    "EstimateResult",
    "EstimationSession",
    "FDSet",
    "FPRASUnavailable",
    "Fact",
    "FunctionalDependency",
    "InstanceIndex",
    "M_UO",
    "M_UO1",
    "M_UR",
    "M_UR1",
    "M_US",
    "M_US1",
    "MarkovChainGenerator",
    "Operation",
    "RelationSchema",
    "RepairingMarkovChain",
    "RepairingSequence",
    "SamplePool",
    "Schema",
    "UniformOperations",
    "UniformRepairs",
    "UniformSequences",
    "UndirectedGraph",
    "Variable",
    "__version__",
    "atom",
    "boolean_cq",
    "classical_relative_frequency",
    "conflict_graph",
    "consistent_answers",
    "cq",
    "exact_ocqa",
    "fact",
    "fd",
    "fixed_budget_estimate",
    "fpras_ocqa",
    "key",
    "ocqa_probability",
    "operational_consistent_answers",
    "rrfreq",
    "rrfreq1",
    "srfreq",
    "srfreq1",
    "subset_repairs",
    "var",
]
