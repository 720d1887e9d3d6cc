"""Exact (exponential-worst-case) engines for OCQA and its restatements."""

from .enumerate import (
    candidate_repairs,
    candidate_repairs_bruteforce,
    complete_sequences,
    count_candidate_repairs,
    repairing_sequences,
)
from .frequencies import rrfreq, rrfreq1, srfreq, srfreq1
from .ocqa import exact_ocqa, exact_operational_consistent_answers
from .state_space import (
    StateSpaceEngine,
    StateSpaceLimit,
    count_complete_sequences,
    count_sequences_with_answer,
)

__all__ = [
    "StateSpaceEngine",
    "StateSpaceLimit",
    "candidate_repairs",
    "candidate_repairs_bruteforce",
    "complete_sequences",
    "count_candidate_repairs",
    "count_complete_sequences",
    "count_sequences_with_answer",
    "exact_ocqa",
    "exact_operational_consistent_answers",
    "repairing_sequences",
    "rrfreq",
    "rrfreq1",
    "srfreq",
    "srfreq1",
]
