"""Exact distributions over the opinion-count simplex.

The analytic engine tier evolves the *distribution* of the ``(k,)``
opinion-count vector instead of sampling trajectories.  On the complete
graph every per-round update of the counts engines is a grouped
multinomial: the ``m_g`` nodes currently in opinion group ``g`` each draw
an i.i.d. outcome from a group-specific law over ``{stay/become
undecided, opinion 1, …, opinion k}``, and the next count vector is the
sum of the per-group outcome tallies.  This module provides the shared
machinery:

* enumeration and O(1) indexing of the count simplex
  ``{c in Z^k_{>=0} : sum(c) <= n}`` (``C(n + k, k)`` states),
* the exact multinomial outcome law of one group
  (:func:`multinomial_outcome_law`),
* the exact next-state distribution of one grouped-multinomial round
  (:func:`next_state_distribution`) — the convolution over groups that
  every analytic kernel row is built from.

Everything here is exact up to float64 rounding; no randomness is
involved anywhere in this package.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Tuple

import numpy as np

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "state_space_size",
    "states_within_budget",
    "enumerate_states",
    "state_lookup",
    "state_indices",
    "multinomial_outcome_law",
    "next_state_distribution",
]

#: Largest count-simplex size the exact tier will build a dense
#: ``S x S`` kernel for.  ``S = C(n + k, k)``, so the default admits
#: ``k = 2`` up to ``n = 43`` and ``k = 3`` up to ``n = 16`` — the
#: "small n*k" regime the exact tier is meant for; ``engine="analytic"``
#: refuses larger scenarios, and the counts tier samples them.
DEFAULT_STATE_BUDGET = 1_000


def state_space_size(num_nodes: int, num_opinions: int) -> int:
    """Number of opinion-count states ``C(n + k, k)``."""
    return math.comb(num_nodes + num_opinions, num_opinions)


def states_within_budget(
    num_nodes: int,
    num_opinions: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """Whether the exact tier's dense kernel fits the state budget."""
    return state_space_size(num_nodes, num_opinions) <= budget


@lru_cache(maxsize=None)
def enumerate_states(num_nodes: int, num_opinions: int) -> np.ndarray:
    """Every opinion-count vector, shape ``(S, k)`` int64, lexicographic.

    Row ``s`` is a count vector ``(c_1, …, c_k)`` with ``sum(c) <= n``;
    the undecided count is implicitly ``n - sum(c)``.
    """
    if num_nodes < 0 or num_opinions < 1:
        raise ValueError(
            "need num_nodes >= 0 and num_opinions >= 1, got "
            f"n={num_nodes}, k={num_opinions}"
        )
    states = np.asarray(
        list(_compositions_at_most(num_nodes, num_opinions)), dtype=np.int64
    )
    states.setflags(write=False)
    return states


def _compositions_at_most(total: int, parts: int):
    """All ``parts``-tuples of non-negative ints with sum at most ``total``."""
    if parts == 1:
        for value in range(total + 1):
            yield (value,)
        return
    for value in range(total + 1):
        for rest in _compositions_at_most(total - value, parts - 1):
            yield (value,) + rest


@lru_cache(maxsize=None)
def state_lookup(num_nodes: int, num_opinions: int) -> np.ndarray:
    """Dense rank table: ``lookup[c_1, …, c_k]`` is the state index.

    Shape ``(n + 1,) * k``; entries outside the simplex (``sum > n``) are
    ``-1``.  Lets :func:`state_indices` rank whole batches of count
    vectors with one fancy-indexing pass.
    """
    states = enumerate_states(num_nodes, num_opinions)
    lookup = np.full((num_nodes + 1,) * num_opinions, -1, dtype=np.int64)
    lookup[tuple(states.T)] = np.arange(states.shape[0], dtype=np.int64)
    lookup.setflags(write=False)
    return lookup


def state_indices(counts: np.ndarray, num_nodes: int, num_opinions: int) -> np.ndarray:
    """Vectorized state ranks of ``counts`` (shape ``(…, k)`` -> ``(…,)``)."""
    counts = np.asarray(counts, dtype=np.int64)
    lookup = state_lookup(num_nodes, num_opinions)
    return lookup[tuple(np.moveaxis(counts, -1, 0))]


@lru_cache(maxsize=None)
def _compositions_of(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` parts, ``(C, parts)``."""
    width = parts
    rows = []
    for dividers in combinations(range(total + width - 1), width - 1):
        previous = -1
        cells = []
        for divider in dividers + (total + width - 1,):
            cells.append(divider - previous - 1)
            previous = divider
        rows.append(cells)
    compositions = np.asarray(rows, dtype=np.int64)
    compositions.setflags(write=False)
    return compositions


@lru_cache(maxsize=None)
def _log_factorials(limit: int) -> np.ndarray:
    values = np.zeros(limit + 1)
    if limit >= 2:
        values[2:] = np.cumsum(np.log(np.arange(2, limit + 1, dtype=float)))
    values.setflags(write=False)
    return values


def multinomial_outcome_law(
    num_draws: int, probabilities: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The exact law of ``Multinomial(num_draws, probabilities)``.

    Returns ``(outcomes, pmf)`` where ``outcomes`` is the ``(C, O)``
    matrix of outcome-count compositions and ``pmf`` their probabilities
    (log-space multinomial coefficients, exact to float64).  Compositions
    with probability exactly zero — those using an outcome of zero
    probability — are pruned, so deterministic laws reduce to a single
    row.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    compositions = _compositions_of(int(num_draws), probabilities.shape[0])
    log_fact = _log_factorials(int(num_draws))
    log_coefficients = log_fact[num_draws] - log_fact[compositions].sum(axis=1)
    positive = probabilities > 0.0
    log_p = np.where(positive, np.log(np.where(positive, probabilities, 1.0)), -np.inf)
    with np.errstate(invalid="ignore"):
        terms = np.where(compositions > 0, compositions * log_p[np.newaxis, :], 0.0)
    pmf = np.exp(log_coefficients + terms.sum(axis=1))
    keep = pmf > 0.0
    return compositions[keep], pmf[keep]


def next_state_distribution(
    group_sizes: np.ndarray,
    group_laws: np.ndarray,
    num_nodes: int,
    num_opinions: int,
) -> np.ndarray:
    """Exact distribution of the next count vector after one grouped round.

    ``group_sizes`` has shape ``(k + 1,)`` (entry 0 = undecided nodes) and
    ``group_laws`` shape ``(k + 1, k + 1)``: row ``g`` is the outcome law
    of a single group-``g`` node over ``{0 = end undecided, 1, …, k}``.
    The next count vector is the convolution over groups of
    ``Multinomial(group_sizes[g], group_laws[g])`` tallies — returned as a
    length-``S`` probability vector over :func:`enumerate_states` order.
    """
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    group_laws = np.asarray(group_laws, dtype=float)
    states = enumerate_states(num_nodes, num_opinions)
    lookup = state_lookup(num_nodes, num_opinions)
    distribution = np.zeros(states.shape[0])
    distribution[int(lookup[(0,) * num_opinions])] = 1.0
    for size, law in zip(group_sizes, group_laws):
        if size == 0:
            continue
        outcomes, pmf = multinomial_outcome_law(int(size), law)
        support = np.nonzero(distribution)[0]
        # Partial tallies always stay inside the simplex (total assigned
        # nodes never exceeds n), so every target rank is valid.
        targets = lookup[
            tuple(
                np.moveaxis(
                    states[support][:, np.newaxis, :] + outcomes[np.newaxis, :, 1:],
                    -1,
                    0,
                )
            )
        ]
        updated = np.zeros_like(distribution)
        np.add.at(
            updated,
            targets.ravel(),
            (distribution[support][:, np.newaxis] * pmf[np.newaxis, :]).ravel(),
        )
        distribution = updated
    return distribution
