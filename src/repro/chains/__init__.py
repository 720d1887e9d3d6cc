"""Explicit repairing Markov chains and the uniform generators."""

from .trust import TrustWeightedOperations
from .generators import (
    ALL_GENERATORS,
    M_UO,
    M_UO1,
    M_UR,
    M_UR1,
    M_US,
    M_US1,
    LocalChainGenerator,
    MarkovChainGenerator,
    UniformOperations,
    UniformRepairs,
    UniformSequences,
)
from .markov import (
    ChainError,
    ChainNode,
    RepairingMarkovChain,
    build_repairing_tree,
    default_child_order,
)

__all__ = [
    "ALL_GENERATORS",
    "ChainError",
    "ChainNode",
    "LocalChainGenerator",
    "TrustWeightedOperations",
    "M_UO",
    "M_UO1",
    "M_UR",
    "M_UR1",
    "M_US",
    "M_US1",
    "MarkovChainGenerator",
    "RepairingMarkovChain",
    "UniformOperations",
    "UniformRepairs",
    "UniformSequences",
    "build_repairing_tree",
    "default_child_order",
]
