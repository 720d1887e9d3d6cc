"""Polynomial-time samplers (Lemmas 5.2, 6.2, 7.2, E.2, E.9, D.7).

Scalar draw paths live in the per-sampler modules; the batched numpy
plane (packed bitset matrices, Lemma 5.2/6.2 in whole batches) lives in
:mod:`repro.sampling.vectorized`.
"""

from .operations_sampler import (
    LocalChainSampler,
    UniformOperationsSampler,
    WalkResult,
    sample_uniform_operations_repair,
)
from .repair_sampler import RepairSampler, sample_candidate_repair
from .rng import (
    CumulativeWeights,
    numpy_substream,
    resolve_rng,
    uniform_choice,
    weighted_choice,
)
from .sequence_sampler import SequenceSampler, sample_complete_sequence

__all__ = [
    "CumulativeWeights",
    "LocalChainSampler",
    "RepairSampler",
    "SequenceSampler",
    "UniformOperationsSampler",
    "WalkResult",
    "numpy_substream",
    "resolve_rng",
    "sample_candidate_repair",
    "sample_complete_sequence",
    "sample_uniform_operations_repair",
    "uniform_choice",
    "weighted_choice",
]
