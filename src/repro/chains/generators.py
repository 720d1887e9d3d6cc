"""The repairing Markov chain generators (Section 4, Appendix A).

Each generator is a function ``M_Σ`` assigning to every database a
``(D, Σ)``-repairing Markov chain:

* :class:`UniformRepairs` (``M_ur``, Definition A.1) — edge labels are
  ratios of *canonical* complete-sequence counts, inducing the uniform
  distribution over candidate operational repairs.
* :class:`UniformSequences` (``M_us``, Definition A.3) — ratios of
  complete-sequence counts, inducing the uniform distribution over
  ``CRS(D, Σ)``.
* :class:`LocalChainGenerator` — any chain whose labels at a node depend
  only on the node's database (Section 7's *local* generators), given by
  ``operation_distribution``.  :class:`UniformOperations` (``M_uo``,
  Definition A.5) is the paper's instance: ``1 / |Ops_s(D, Σ)|`` on every
  edge; :mod:`repro.chains.trust` adds a non-uniform one.

Every generator has a ``singleton_only`` variant (``M^{·,1}``, Section 7 and
Appendix E): the chain is still defined over all of ``RS(D, Σ)``, but edges
leaving the all-singleton region carry probability zero.  The stranded
subtrees may carry any labels: the counting generators give them the
uniform fallback, the local ones their own state-wise labels.

These classes build *explicit* chains and are exponential in ``|D|``; they
exist to realize the definitions verbatim and to cross-check the exact
engines on small instances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.operations import Operation, justified_operations
from ..core.sequences import RepairingSequence
from .markov import ChainNode, RepairingMarkovChain, build_repairing_tree, default_child_order


@dataclass(frozen=True)
class MarkovChainGenerator(ABC):
    """A repairing Markov chain generator ``M_Σ`` (w.r.t. any ``Σ``)."""

    singleton_only: bool = False

    @property
    @abstractmethod
    def base_name(self) -> str:
        """The paper's name without the singleton marker (e.g. ``M_uo``)."""

    @property
    def name(self) -> str:
        return f"{self.base_name},1" if self.singleton_only else self.base_name

    def chain(
        self,
        database: Database,
        constraints: FDSet,
        max_nodes: int = 2_000_000,
    ) -> RepairingMarkovChain:
        """``M_Σ(D)``: the annotated explicit chain for ``database``."""
        root = build_repairing_tree(
            database, constraints, child_order=default_child_order, max_nodes=max_nodes
        )
        self._annotate(root, constraints)
        return RepairingMarkovChain(database, constraints, root)

    def __call__(self, database: Database, constraints: FDSet) -> RepairingMarkovChain:
        return self.chain(database, constraints)

    # -- shared helpers -----------------------------------------------------------

    def _qualifying_leaves(self, root: ChainNode) -> list[ChainNode]:
        """Leaves whose sequences the generator's uniform target ranges over.

        For the plain generators these are all complete sequences; for the
        singleton variants, only all-singleton complete sequences.
        """
        found = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if not self.singleton_only or node.sequence.uses_only_singletons():
                    found.append(node)
            else:
                stack.extend(reversed(node.children))
        return found

    def _annotate_by_subtree_counts(
        self, root: ChainNode, counted: set[RepairingSequence]
    ) -> None:
        """Label each edge ``(s, s')`` with ``count(s') / count(s)``.

        ``counted`` is the set of leaf sequences being counted (complete,
        canonical and/or singleton, depending on the generator).  Subtrees
        with count zero get the arbitrary uniform fallback the paper allows.
        """
        counts: dict[int, int] = {}

        def fill_counts(node: ChainNode) -> int:
            if node.is_leaf:
                total = 1 if node.sequence in counted else 0
            else:
                total = sum(fill_counts(child) for child in node.children)
            counts[id(node)] = total
            return total

        fill_counts(root)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            node_count = counts[id(node)]
            if node_count == 0:
                fallback = Fraction(1, len(node.children))
                for child in node.children:
                    child.edge_probability = fallback
            else:
                for child in node.children:
                    child.edge_probability = Fraction(counts[id(child)], node_count)
            stack.extend(node.children)

    @abstractmethod
    def _annotate(self, root: ChainNode, constraints: FDSet) -> None:
        """Fill ``edge_probability`` on every non-root node."""


@dataclass(frozen=True)
class LocalChainGenerator(MarkovChainGenerator):
    """A generator whose edge labels depend only on the current state.

    Section 7 puts ``M_uo``'s approximability down to this locality alone,
    so every local generator shares one exact engine
    (:meth:`~repro.exact.state_space.StateSpaceEngine.answer_probability`
    and ``.repair_distribution``) and one walk sampler
    (:class:`~repro.sampling.operations_sampler.LocalChainSampler`).
    """

    @abstractmethod
    def operation_distribution(
        self, state: Database, constraints: FDSet
    ) -> dict[Operation, Fraction]:
        """The probability of each justified operation at ``state``.

        Must cover exactly the justified operations of ``state`` (pairs may
        carry probability zero, e.g. in singleton variants) and sum to 1.
        """

    def _annotate(self, root: ChainNode, constraints: FDSet) -> None:
        # The tree repeats each state many times; compute its labels once.
        distributions: dict[Database, dict[Operation, Fraction]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            distribution = distributions.get(node.state)
            if distribution is None:
                distribution = self.operation_distribution(node.state, constraints)
                distributions[node.state] = distribution
            for child in node.children:
                child.edge_probability = distribution[child.operation]
            stack.extend(node.children)


@dataclass(frozen=True)
class UniformOperations(LocalChainGenerator):
    """``M_uo`` / ``M_uo,1``: uniform over the available operations per step."""

    @property
    def base_name(self) -> str:
        return "M_uo"

    def operation_distribution(
        self, state: Database, constraints: FDSet
    ) -> dict[Operation, Fraction]:
        """Definition A.5: ``1/|Ops|`` on every justified operation.

        The singleton variant spreads the mass over the single-fact
        removals (every violating pair justifies two) and pins pair
        removals at zero.
        """
        operations = justified_operations(state, constraints)
        chosen = (
            [op for op in operations if op.is_singleton]
            if self.singleton_only
            else operations
        )
        distribution = dict.fromkeys(operations, Fraction(0))
        for op in chosen:
            distribution[op] = Fraction(1, len(chosen))
        return distribution


@dataclass(frozen=True)
class UniformSequences(MarkovChainGenerator):
    """``M_us`` / ``M_us,1``: uniform over complete repairing sequences."""

    @property
    def base_name(self) -> str:
        return "M_us"

    def _annotate(self, root: ChainNode, constraints: FDSet) -> None:
        counted = {leaf.sequence for leaf in self._qualifying_leaves(root)}
        self._annotate_by_subtree_counts(root, counted)


PreferenceKey = Callable[[RepairingSequence], object]


@dataclass(frozen=True)
class UniformRepairs(MarkovChainGenerator):
    """``M_ur`` / ``M_ur,1``: uniform over candidate operational repairs.

    Exactly one *canonical* complete sequence per result database receives
    non-zero leaf probability.  The ordering ``≺`` is pluggable through
    ``preference``; the default (``None``) is depth-first traversal order
    with Figure 1's child order, which reproduces the Section 4 worked
    example verbatim.
    """

    preference: PreferenceKey | None = None

    @property
    def base_name(self) -> str:
        return "M_ur"

    def canonical_leaves(self, root: ChainNode) -> list[ChainNode]:
        """The ``≺``-minimal qualifying leaf for each distinct result."""
        leaves = self._qualifying_leaves(root)
        if self.preference is not None:
            key = self.preference
            leaves = sorted(leaves, key=lambda leaf: key(leaf.sequence))
        chosen: dict[Database, ChainNode] = {}
        for leaf in leaves:
            chosen.setdefault(leaf.state, leaf)
        return list(chosen.values())

    def _annotate(self, root: ChainNode, constraints: FDSet) -> None:
        counted = {leaf.sequence for leaf in self.canonical_leaves(root)}
        self._annotate_by_subtree_counts(root, counted)


# Ready-made generator instances (the paper's six).
M_UR = UniformRepairs()
M_US = UniformSequences()
M_UO = UniformOperations()
M_UR1 = UniformRepairs(singleton_only=True)
M_US1 = UniformSequences(singleton_only=True)
M_UO1 = UniformOperations(singleton_only=True)

ALL_GENERATORS = (M_UR, M_US, M_UO, M_UR1, M_US1, M_UO1)
GENERATORS_BY_NAME = {generator.name: generator for generator in ALL_GENERATORS}
