"""Polynomial-time counters for the primary-key case (Lemmas 5.2, C.1, E.2)."""

from .block_counts import (
    block_length_distribution,
    block_sequence_count,
    empty_block_sequences,
    interleavings,
    max_pair_removals,
    nonempty_block_sequences,
    singleton_block_length_distribution,
    singleton_block_sequence_count,
)
from .crs_count import (
    count_crs,
    count_crs1,
    count_crs1_for_block_sizes,
    count_crs_for_block_sizes,
    count_crs_paper_dp,
    crs_length_distribution,
    expected_sequence_length,
)
from .mus_transitions import (
    mus_edge_probability,
    mus_outgoing_distribution,
    mus_sequence_probability,
)
from .survival import (
    ground_survival_mur,
    ground_survival_mus,
)
from .repair_count import (
    count_candidate_repairs_primary_keys,
    count_repairs_for_block_sizes,
    count_singleton_repairs_for_block_sizes,
    count_singleton_repairs_primary_keys,
)

__all__ = [
    "block_length_distribution",
    "ground_survival_mur",
    "ground_survival_mus",
    "mus_edge_probability",
    "mus_outgoing_distribution",
    "mus_sequence_probability",
    "block_sequence_count",
    "count_candidate_repairs_primary_keys",
    "count_crs",
    "count_crs1",
    "count_crs1_for_block_sizes",
    "count_crs_for_block_sizes",
    "count_crs_paper_dp",
    "count_repairs_for_block_sizes",
    "count_singleton_repairs_for_block_sizes",
    "count_singleton_repairs_primary_keys",
    "crs_length_distribution",
    "expected_sequence_length",
    "empty_block_sequences",
    "interleavings",
    "max_pair_removals",
    "nonempty_block_sequences",
    "singleton_block_length_distribution",
    "singleton_block_sequence_count",
]
