"""Multiset helpers used by the protocol's sample-majority rule.

The paper (Section 3.1) defines, for a finite multiset ``A`` of opinions:

* ``occ(i, A)``  — the number of occurrences of opinion ``i`` in ``A``;
* ``mode(A)``    — the set of opinions with maximum occurrence count;
* ``maj(A)``     — a random variable equal to a uniformly random element of
  ``mode(A)`` (i.e. the most frequent opinion, ties broken u.a.r.).

The helpers here implement those three definitions both for explicit
sequences of opinions and for count vectors (the vectorized representation
used by the simulation engines).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

from repro.utils.rng import RandomState, as_generator

__all__ = [
    "Multiset",
    "occurrences",
    "mode_set",
    "majority_vote",
    "majority_from_counts",
    "mode_from_counts",
]


class Multiset:
    """A small opinion multiset with the paper's ``occ``/``mode``/``maj`` API.

    This is a convenience wrapper used in examples, tests and the
    non-vectorized reference engine; the high-throughput engines work on
    count matrices directly via :func:`majority_from_counts`.
    """

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._counts: Counter = Counter()
        for item in items:
            self.add(item)

    def add(self, item: int, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` copies of ``item`` to the multiset."""
        if multiplicity < 0:
            raise ValueError(f"multiplicity must be >= 0, got {multiplicity}")
        item = int(item)
        if item < 1:
            raise ValueError(f"opinions must be positive integers, got {item}")
        if multiplicity:
            self._counts[item] += multiplicity

    def occ(self, item: int) -> int:
        """Number of occurrences of ``item`` (the paper's ``occ(i, A)``)."""
        return self._counts.get(int(item), 0)

    def mode(self) -> Set[int]:
        """The set of most frequent opinions (the paper's ``mode(A)``)."""
        if not self._counts:
            return set()
        top = max(self._counts.values())
        return {item for item, count in self._counts.items() if count == top}

    def maj(self, random_state: RandomState = None) -> int:
        """The most frequent opinion with ties broken uniformly at random."""
        candidates = sorted(self.mode())
        if not candidates:
            raise ValueError("maj() is undefined on an empty multiset")
        if len(candidates) == 1:
            return candidates[0]
        rng = as_generator(random_state)
        return int(rng.choice(candidates))

    def counts(self) -> Dict[int, int]:
        """A dictionary copy of the underlying counts."""
        return dict(self._counts)

    def to_count_vector(self, num_opinions: int) -> np.ndarray:
        """Counts as a dense vector indexed by opinion ``1..num_opinions``."""
        vector = np.zeros(num_opinions, dtype=np.int64)
        for item, count in self._counts.items():
            if item > num_opinions:
                raise ValueError(
                    f"multiset contains opinion {item} > num_opinions={num_opinions}"
                )
            vector[item - 1] = count
        return vector

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, item: int) -> bool:
        return self._counts.get(int(item), 0) > 0

    def __iter__(self):
        for item, count in sorted(self._counts.items()):
            for _ in range(count):
                yield item

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Multiset({dict(sorted(self._counts.items()))})"


def occurrences(item: int, sample: Sequence[int]) -> int:
    """``occ(i, A)`` for an explicit sequence ``A``."""
    item = int(item)
    return int(sum(1 for value in sample if int(value) == item))


def mode_set(sample: Sequence[int]) -> Set[int]:
    """``mode(A)`` for an explicit sequence ``A``."""
    counts = Counter(int(value) for value in sample)
    if not counts:
        return set()
    top = max(counts.values())
    return {item for item, count in counts.items() if count == top}


def majority_vote(sample: Sequence[int], random_state: RandomState = None) -> int:
    """``maj(A)`` for an explicit sequence ``A`` (ties broken u.a.r.)."""
    modes = sorted(mode_set(sample))
    if not modes:
        raise ValueError("majority_vote is undefined on an empty sample")
    if len(modes) == 1:
        return modes[0]
    rng = as_generator(random_state)
    return int(rng.choice(modes))


def mode_from_counts(counts: np.ndarray) -> np.ndarray:
    """Boolean mask of the most frequent opinions in a count vector.

    ``counts[i]`` is the number of occurrences of opinion ``i + 1``.  Returns
    a boolean array of the same shape marking the mode set.  An all-zero
    count vector has an empty mode set (all-``False`` mask).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError(f"counts must be one-dimensional, got shape {counts.shape}")
    if counts.size == 0 or counts.max(initial=0) == 0:
        return np.zeros(counts.shape, dtype=bool)
    return counts == counts.max()


def majority_from_counts(
    counts: np.ndarray, random_state: RandomState = None
) -> np.ndarray:
    """Row-wise ``maj()`` over a matrix of opinion counts.

    Parameters
    ----------
    counts:
        Integer array of shape ``(num_nodes, num_opinions)`` where entry
        ``(u, i)`` is the number of copies of opinion ``i + 1`` observed by
        node ``u``.
    random_state:
        Randomness for the uniform tie-break.

    Returns
    -------
    numpy.ndarray
        Integer vector of length ``num_nodes`` with the winning opinion
        (``1 .. num_opinions``) per row, or ``0`` for rows whose counts are
        all zero (no observation, hence no vote).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim == 1:
        counts = counts[np.newaxis, :]
        squeeze = True
    else:
        squeeze = False
    if counts.ndim != 2:
        raise ValueError(f"counts must be 2-dimensional, got shape {counts.shape}")
    rng = as_generator(random_state)
    num_nodes, num_opinions = counts.shape
    row_max = counts.max(axis=1)
    # Uniform tie-break: perturb each count by a random key and take the
    # argmax among entries achieving the row maximum.
    tie_keys = rng.random(counts.shape)
    masked_keys = np.where(counts == row_max[:, np.newaxis], tie_keys, -1.0)
    winners = masked_keys.argmax(axis=1) + 1
    winners = np.where(row_max > 0, winners, 0).astype(np.int64)
    if squeeze:
        return winners[0]
    return winners
