"""Analytic (sampling-free) engine for the five baseline dynamics.

:class:`ExactDynamicsChain` is, for small ``n * k``, the full Markov
chain over the opinion-count simplex.  One round from count vector ``x``
is the convolution over current-opinion groups of
``Multinomial(m_g, law_g(x))`` — *exactly* the distribution of the counts
engine's grouped draws (and hence of the sequential and batched engines,
which the counts tier aggregates).  Evolving the probability vector
through the dense one-round kernel therefore yields exact
success/convergence probabilities and expected-bias trajectories, with no
sampling noise at all.  Past the state budget the chain refuses, and the
counts tier samples the process instead.

The per-group laws (:func:`rule_group_laws`) are read off the counts
engines' update rules: group 0 holds the undecided nodes and groups
``1..k`` the current supporters of each opinion; law entry ``j`` is the
probability that one such node ends the round with value ``j``
(0 = undecided).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analytic.simplex import (
    DEFAULT_STATE_BUDGET,
    enumerate_states,
    next_state_distribution,
    state_indices,
    state_space_size,
    states_within_budget,
)
from repro.dynamics.base import _bias_from_counts
from repro.dynamics.median_rule import _median_transition_tensor
from repro.network.pull_model import majority_vote_law, vote_table_is_tractable
from repro.noise.matrix import NoiseMatrix
from repro.utils.validation import require_positive_int

__all__ = [
    "observation_law",
    "rule_group_laws",
    "exact_dynamics_is_tractable",
    "AnalyticDynamicsResult",
    "ExactDynamicsChain",
]

#: Mass below which the remaining active probability is treated as fully
#: absorbed (the exact chain then stops stepping early, like the sampling
#: run loops dropping their last active trial).
_ACTIVE_MASS_FLOOR = 1e-15


def observation_law(opinion_shares: np.ndarray, noise: NoiseMatrix) -> np.ndarray:
    """One node's noisy-observation law, shape ``(k + 1,)``.

    Entry 0 is the probability of observing an undecided node; entries
    ``1..k`` the noisy opinion masses ``c P`` — the same arithmetic as the
    per-row observation pmf of the counts tier's merged round loop
    (:func:`~repro.dynamics.base.run_heterogeneous_counts_dynamics`),
    taken on a single share vector.
    """
    shares = np.asarray(opinion_shares, dtype=float)
    none_mass = 1.0 - shares.sum()
    return np.clip(
        np.concatenate([[none_mass], shares @ noise.matrix]), 0.0, 1.0
    )


def _resolve_sample_size(rule: str, sample_size: Optional[int]) -> Optional[int]:
    if rule == "3-majority":
        return 3
    if rule == "h-majority":
        if sample_size is None:
            raise ValueError("rule 'h-majority' requires sample_size")
        return require_positive_int(sample_size, "sample_size")
    if sample_size is not None:
        raise ValueError(f"rule {rule!r} does not take a sample_size")
    return None


def rule_group_laws(
    rule: str,
    observation: np.ndarray,
    *,
    sample_size: Optional[int] = None,
) -> np.ndarray:
    """Per-group outcome laws of one round, shape ``(k + 1, k + 1)``.

    ``observation`` is the shared noisy-observation law ``q`` of
    :func:`observation_law`; row ``g`` of the result is the outcome law
    of a node currently holding value ``g`` (0 = undecided).  Each row is
    the exact single-node marginal of the matching counts-engine step.
    """
    q = np.asarray(observation, dtype=float)
    width = q.shape[0]
    num_opinions = width - 1
    laws = np.zeros((width, width))
    if rule == "voter":
        # Copy rule: observing opinion j means adopting j; observing an
        # undecided node means keeping the current value.
        laws[0] = q
        for group in range(1, width):
            laws[group] = q
            laws[group, group] += q[0]
            laws[group, 0] = 0.0
    elif rule == "undecided-state":
        # Undecided nodes adopt what they observe; opinionated nodes keep
        # their value on a match or no observation, drop to undecided on
        # a conflicting opinion.
        laws[0] = q
        for group in range(1, width):
            laws[group, group] = q[0] + q[group]
            laws[group, 0] = q[1:].sum() - q[group]
    elif rule in ("3-majority", "h-majority"):
        sample_size = _resolve_sample_size(rule, sample_size)
        votes = majority_vote_law(q[np.newaxis, :], sample_size)[0]
        laws[0] = votes
        for group in range(1, width):
            laws[group] = votes
            laws[group, group] += votes[0]
            laws[group, 0] = 0.0
    elif rule == "median-rule":
        pair_law = np.outer(q, q).ravel()
        transition = _median_transition_tensor(num_opinions)
        laws = np.einsum("p,gpv->gv", pair_law, transition.astype(float))
    else:
        raise ValueError(f"unknown dynamics rule {rule!r}")
    return laws


def exact_dynamics_is_tractable(
    rule: str,
    num_nodes: int,
    num_opinions: int,
    *,
    sample_size: Optional[int] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """Whether :class:`ExactDynamicsChain` can serve this configuration."""
    if rule == "approximate-consensus":
        # The phase-tagged termination state is not a function of the
        # opinion counts alone, so no counts-simplex kernel covers it.
        return False
    if not states_within_budget(num_nodes, num_opinions, state_budget):
        return False
    if rule in ("3-majority", "h-majority"):
        resolved = 3 if rule == "3-majority" else sample_size
        if resolved is None or not vote_table_is_tractable(
            int(resolved), num_opinions
        ):
            return False
    return True


@dataclass(frozen=True)
class AnalyticDynamicsResult:
    """Outcome of an analytic dynamics run (no per-trial arrays).

    ``method`` is ``"exact"``: the probabilities are exact to float64.
    ``bias_trajectory`` holds the expected Definition-1 bias toward the
    target after each executed round, mirroring the sampled tiers'
    ``bias_history`` rows in expectation.
    """

    num_nodes: int
    num_opinions: int
    target_opinion: int
    method: str
    success_probability: float
    convergence_probability: float
    expected_rounds: float
    expected_final_bias: float
    expected_final_counts: np.ndarray
    bias_trajectory: np.ndarray
    state_space_size: int


#: Dense one-round kernels keyed by (rule, n, sample_size, noise bytes),
#: least recently used first — kernel construction is the expensive part
#: of the exact tier, and agreement tests reuse the same configuration
#: many times.
_KERNEL_CACHE: OrderedDict[Tuple, np.ndarray] = OrderedDict()

#: How many kernels :data:`_KERNEL_CACHE` keeps.  A kernel at the state
#: budget takes 8 MB, so a sweep over many noise levels holds about
#: 32 MB of them; in the test-suites at most two other configurations run
#: between two uses of one kernel.
_KERNEL_CACHE_SIZE = 4


class ExactDynamicsChain:
    """The exact Markov chain of a baseline dynamic over count states.

    Tractable when ``C(n + k, k)`` fits the state budget (the dense
    kernel is ``S x S``); construction raises otherwise.  Majority rules
    additionally need the closed-form ``maj()`` table, exactly like the
    counts engine.
    """

    def __init__(
        self,
        rule: str,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        sample_size: Optional[int] = None,
        state_budget: int = DEFAULT_STATE_BUDGET,
    ) -> None:
        self.rule = str(rule)
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self.sample_size = _resolve_sample_size(self.rule, sample_size)
        if self.rule in ("3-majority", "h-majority") and not vote_table_is_tractable(
            self.sample_size, self.num_opinions
        ):
            raise ValueError(
                f"the analytic engine needs the closed-form maj() table, "
                f"which is intractable for sample_size={self.sample_size}, "
                f"k={self.num_opinions}; use the batched engine instead"
            )
        if not states_within_budget(
            self.num_nodes, self.num_opinions, state_budget
        ):
            raise ValueError(
                f"exact chain needs C(n + k, k) <= {state_budget} states, "
                f"got {state_space_size(self.num_nodes, self.num_opinions)} "
                f"for n={self.num_nodes}, k={self.num_opinions}; use "
                "engine='counts'"
            )

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    @property
    def states(self) -> np.ndarray:
        """All count states, shape ``(S, k)`` (enumeration order)."""
        return enumerate_states(self.num_nodes, self.num_opinions)

    def group_laws(self, counts: np.ndarray) -> np.ndarray:
        """The ``(k + 1, k + 1)`` per-group outcome laws at one state."""
        counts = np.asarray(counts, dtype=np.int64)
        observation = observation_law(counts / self.num_nodes, self.noise)
        return rule_group_laws(
            self.rule, observation, sample_size=self.sample_size
        )

    def transition_kernel(self) -> np.ndarray:
        """The dense one-round kernel, shape ``(S, S)`` (row-stochastic)."""
        key = (
            self.rule,
            self.num_nodes,
            self.sample_size,
            self.noise.matrix.tobytes(),
        )
        kernel = _KERNEL_CACHE.get(key)
        if kernel is not None:
            _KERNEL_CACHE.move_to_end(key)
            return kernel
        states = self.states
        kernel = np.empty((states.shape[0], states.shape[0]))
        for index, counts in enumerate(states):
            kernel[index] = self.one_round_distribution(counts)
        kernel.setflags(write=False)
        _KERNEL_CACHE[key] = kernel
        if len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
            _KERNEL_CACHE.popitem(last=False)
        return kernel

    def one_round_distribution(self, counts: np.ndarray) -> np.ndarray:
        """Exact next-state distribution after one round from ``counts``."""
        counts = np.asarray(counts, dtype=np.int64)
        undecided = self.num_nodes - int(counts.sum())
        group_sizes = np.concatenate([[undecided], counts])
        return next_state_distribution(
            group_sizes,
            self.group_laws(counts),
            self.num_nodes,
            self.num_opinions,
        )

    def _state_index(self, counts: np.ndarray) -> int:
        index = int(state_indices(counts, self.num_nodes, self.num_opinions))
        if index < 0:
            raise ValueError(
                # Error display only: show the offending value in its raw
                # dtype rather than coercing it.
                f"counts {np.asarray(counts).tolist()} are not a valid state "  # reprolint: disable=int64-dtype-pin
                f"for n={self.num_nodes}"
            )
        return index

    def run(
        self,
        initial_counts: np.ndarray,
        max_rounds: int,
        *,
        target_opinion: int,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> AnalyticDynamicsResult:
        """Evolve the exact state distribution for up to ``max_rounds``.

        Mirrors the sampling run loops' semantics: every round the active
        mass steps through the kernel first and the consensus check runs
        after (so even a consensus initial state steps once, and noise can
        break consensus before it is frozen); absorbed mass keeps its
        stop-round and stop-state bias.  All reported statistics are exact
        expectations of the matching per-trial quantities.
        """
        max_rounds = require_positive_int(max_rounds, "max_rounds")
        target_opinion = int(target_opinion)
        states = self.states
        kernel = self.transition_kernel()
        consensus = states.max(axis=1) == self.num_nodes
        bias = (
            _bias_from_counts(states, target_opinion, self.num_nodes)
            if target_opinion > 0
            else np.zeros(states.shape[0])
        )

        active = np.zeros(states.shape[0])
        active[self._state_index(initial_counts)] = 1.0
        stopped = np.zeros_like(active)
        expected_rounds = 0.0
        trajectory = []
        for round_number in range(1, max_rounds + 1):
            active = active @ kernel
            if record_history and target_opinion > 0:
                trajectory.append(float(bias @ (active + stopped)))
            if stop_at_consensus:
                newly_stopped = np.where(consensus, active, 0.0)
                mass = float(newly_stopped.sum())
                if mass > 0.0:
                    expected_rounds += round_number * mass
                    stopped += newly_stopped
                    active = np.where(consensus, 0.0, active)
                if active.sum() <= _ACTIVE_MASS_FLOOR:
                    break

        expected_rounds += max_rounds * float(active.sum())
        final = active + stopped
        final /= final.sum()
        success_state = np.zeros(self.num_opinions, dtype=np.int64)
        if target_opinion > 0:
            success_state[target_opinion - 1] = self.num_nodes
        return AnalyticDynamicsResult(
            num_nodes=self.num_nodes,
            num_opinions=self.num_opinions,
            target_opinion=target_opinion,
            method="exact",
            success_probability=(
                float(final[self._state_index(success_state)])
                if target_opinion > 0
                else 0.0
            ),
            convergence_probability=float(final[consensus].sum()),
            expected_rounds=float(expected_rounds),
            expected_final_bias=float(bias @ final),
            expected_final_counts=final @ states,
            bias_trajectory=np.asarray(trajectory, dtype=float),
            state_space_size=states.shape[0],
        )
