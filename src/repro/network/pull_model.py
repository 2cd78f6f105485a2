"""A noisy uniform *pull* substrate for the baseline dynamics.

The baseline protocols the paper's related-work section compares against
(3-majority dynamics, h-majority, undecided-state dynamics, the median rule)
are classically stated in a pull fashion: in each round every node samples
the opinion of a few nodes chosen uniformly at random and updates from what
it observed.  To compare those dynamics with the paper's protocol *under the
same noise assumption*, this engine lets every observation be corrupted by
the same noise matrix used by the push model.

The engine works on a full opinion vector (0 = undecided) and reports, per
round, the matrix of observed (noisy) opinion counts per node.

:class:`EnsemblePullModel` is the batched counterpart used by the ensemble
dynamics: the same noisy observation step over an ``(R, n)`` opinion matrix
of ``R`` independent trials.  Exactly as the ensemble protocol replaces the
per-round push loop with Claim-1 phase sampling, the batched pull engine
samples the *compound* observation channel directly: an observation is a
uniform target draw composed with per-message noise, so each observation is
an i.i.d. categorical draw over {no opinion, 1, …, k} with probabilities
``(1 - a, c P)`` — distribution-exact, not an approximation.  Trial ``r``
consumes one uniform block per observation step from its own per-trial
stream, so a batched run is bitwise identical to ``R`` batch-size-1 runs
with the same sources (the ensemble reproducibility guarantee); agreement
with the per-message sequential engine is distributional and is checked
statistically by the test-suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Dict, Tuple

import numpy as np

from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.multiset import opinion_counts_matrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)
from repro.utils.validation import require_positive_int

__all__ = [
    "UniformPullModel",
    "EnsemblePullModel",
    "majority_vote_law",
    "vote_table_is_tractable",
    "dense_majority_vote_law",
    "dense_vote_law_is_tractable",
    "vote_law_cache_info",
    "clear_vote_law_cache",
]


def _candidate_pool(
    opinions: np.ndarray, include_undecided: bool
) -> np.ndarray:
    """The nodes a single trial may observe (all, or opinionated-only)."""
    num_nodes = opinions.shape[0]
    if include_undecided:
        return np.arange(num_nodes)
    pool = np.nonzero(opinions > 0)[0]
    if pool.size == 0:
        return np.arange(num_nodes)
    return pool


def _observe_core(
    opinions: np.ndarray,
    sample_size: int,
    include_undecided: bool,
    noise: NoiseMatrix,
    rng: np.random.Generator,
) -> np.ndarray:
    """One trial's observed-count matrix ``(n, k)``, message by message.

    The executable specification of the pull observation step: every
    observation is materialized, noised and counted individually.  The
    per-node accumulation is a single :func:`numpy.bincount` over flattened
    ``observer * k + opinion`` indices (measurably faster than the
    ``np.add.at`` scatter it replaces).
    """
    num_nodes = opinions.shape[0]
    num_opinions = noise.num_opinions
    pool = _candidate_pool(opinions, include_undecided)
    targets = rng.choice(pool, size=(num_nodes, sample_size), replace=True)
    observed = opinions[targets]
    observers, slots = np.nonzero(observed > 0)
    if observers.size == 0:
        return np.zeros((num_nodes, num_opinions), dtype=np.int64)
    true_opinions = observed[observers, slots]
    noisy_opinions = noise.apply_to_opinions(true_opinions, rng)
    flat = np.bincount(
        observers * num_opinions + (noisy_opinions - 1),
        minlength=num_nodes * num_opinions,
    )
    return flat.reshape(num_nodes, num_opinions).astype(np.int64, copy=False)


#: Above this many compositions the closed-form ``maj()`` table is not worth
#: building (cost and memory grow as C(sample_size + k, k)); the fused vote
#: sampler then falls back to explicit observation counts.
_VOTE_TABLE_MAX_COMPOSITIONS = 100_000

#: Largest sample size whose factorial still fits a float64 (171! overflows);
#: beyond it the closed form is numerically moot anyway, so the fused vote
#: sampler falls back to explicit observation counts.
_VOTE_TABLE_MAX_SAMPLE = 170


def _vote_table_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Whether the closed-form ``maj()`` table is worth (and safe) building."""
    return (
        sample_size <= _VOTE_TABLE_MAX_SAMPLE
        and math.comb(sample_size + num_opinions, num_opinions)
        <= _VOTE_TABLE_MAX_COMPOSITIONS
    )


def vote_table_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Public predicate: can the exact ``maj()`` vote law be tabulated?

    The batched pull engine falls back to explicit observation counts when
    this is ``False``; the counts engines use it to decide between the fused
    closed-form vote law and their bounded-chunk per-voter sampler.
    """
    return _vote_table_is_tractable(sample_size, num_opinions)


def vote_law_cache_info() -> Dict[str, int]:
    """Hit/miss counters of the two ``maj()`` composition-table LRUs.

    ``table_*`` counts the closed-form table of :func:`majority_vote_law`
    (:func:`_majority_vote_table`) and ``dense_table_*`` the dense table of
    :func:`dense_majority_vote_law`.  Exposed for the sweep benchmark,
    which reports how many grid points shared tables.
    """
    table = _majority_vote_table.cache_info()
    dense = _dense_majority_vote_table.cache_info()
    return {
        "table_hits": table.hits,
        "table_misses": table.misses,
        "table_entries": table.currsize,
        "dense_table_hits": dense.hits,
        "dense_table_misses": dense.misses,
        "dense_table_entries": dense.currsize,
    }


def clear_vote_law_cache() -> None:
    """Empty both composition-table LRUs (and reset their counters)."""
    _majority_vote_table.cache_clear()
    _dense_majority_vote_table.cache_clear()


def majority_vote_law(
    probabilities: np.ndarray, sample_size: int
) -> np.ndarray:
    """The exact pmf of ``maj()`` over ``sample_size`` i.i.d. observations.

    ``probabilities`` has shape ``(R, k + 1)``: row ``r`` is trial ``r``'s
    observation distribution over {no opinion, opinion 1, …, opinion k}.
    Returns the matching ``(R, k + 1)`` vote distribution over {no vote,
    vote 1, …, vote k}, with the uniform tie-break folded in analytically
    (via :func:`_majority_vote_table`).  Raises ``ValueError`` when the
    composition table is intractable for ``(sample_size, k)`` — callers
    should check :func:`vote_table_is_tractable` first and fall back to
    explicit observation sampling.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[1] < 2:
        raise ValueError(
            "probabilities must have shape (R, k + 1), got "
            f"{probabilities.shape}"
        )
    num_opinions = probabilities.shape[1] - 1
    sample_size = require_positive_int(sample_size, "sample_size")
    if not _vote_table_is_tractable(sample_size, num_opinions):
        raise ValueError(
            f"the maj() composition table for sample_size={sample_size}, "
            f"k={num_opinions} is intractable; check vote_table_is_tractable "
            "and use explicit observation sampling instead"
        )
    exponents, coefficients, vote_law = _majority_vote_table(
        sample_size, num_opinions
    )
    # When no row can observe "no opinion" (Stage 2), every composition
    # with m_0 > 0 has probability exactly 0.  The table lists the m_0 = 0
    # compositions first, so only that prefix is evaluated, element by
    # element as in the full grid: the law is bitwise the full evaluation.
    live = exponents.shape[0]
    if not probabilities[:, 0].any():
        live = math.comb(sample_size + num_opinions - 1, num_opinions - 1)
    composition_probabilities = np.zeros(
        (probabilities.shape[0], exponents.shape[0])
    )
    composition_probabilities[:, :live] = coefficients[:live] * np.prod(
        probabilities[:, np.newaxis, :] ** exponents[np.newaxis, :live, :],
        axis=2,
    )
    return composition_probabilities @ vote_law


@lru_cache(maxsize=None)
def _majority_vote_table(
    sample_size: int, num_opinions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact ``maj()`` law of ``sample_size`` categorical observations.

    Enumerates every composition ``m = (m_0, m_1, …, m_k)`` of
    ``sample_size`` observations over {no opinion, opinion 1, …, opinion k}
    and tabulates

    * ``exponents`` — the ``(C, k+1)`` composition matrix,
    * ``coefficients`` — the multinomial coefficients
      ``sample_size! / prod(m_i!)``,
    * ``vote_law`` — the ``(C, k+1)`` conditional vote distribution given
      the composition: all mass on "no vote" when no opinion was observed,
      otherwise uniform over the most frequent observed opinions (the
      paper's uniform tie-break, folded in analytically).

    With observation probabilities ``q`` the vote pmf is then
    ``(coefficients * prod_i q_i^{m_i}) @ vote_law`` — the closed form the
    batched h-majority step samples from with one uniform per node.  The
    compositions come in lexicographic stars-and-bars order, so the
    ``C(sample_size + k - 1, k - 1)`` with ``m_0 = 0`` form a prefix.
    """
    width = num_opinions + 1
    # Stars-and-bars enumeration of all compositions of sample_size into
    # width non-negative parts.
    compositions = []
    for dividers in combinations(range(sample_size + width - 1), width - 1):
        previous = -1
        parts = []
        for divider in dividers + (sample_size + width - 1,):
            parts.append(divider - previous - 1)
            previous = divider
        compositions.append(parts)
    exponents = np.asarray(compositions, dtype=np.int64)
    factorials = np.asarray(
        [math.factorial(value) for value in range(sample_size + 1)],
        dtype=float,
    )
    coefficients = math.factorial(sample_size) / factorials[exponents].prod(axis=1)
    vote_law = np.zeros((exponents.shape[0], width), dtype=float)
    opinion_counts = exponents[:, 1:]
    row_max = opinion_counts.max(axis=1)
    for row, top in enumerate(row_max):
        if top == 0:
            vote_law[row, 0] = 1.0
        else:
            tied = np.nonzero(opinion_counts[row] == top)[0]
            vote_law[row, tied + 1] = 1.0 / tied.size
    return exponents, coefficients, vote_law


#: Composition budget of the *dense* vote law (opinionated observations
#: only, so ``C(sample_size + k - 1, k - 1)`` rows): large enough to cover
#: the Stage-2 final phase of million-node protocol runs (k = 3, L ~ 700 is
#: ~250k rows), small enough that the table stays a few dozen MB.
_DENSE_VOTE_LAW_MAX_COMPOSITIONS = 3_000_000

#: Memory guard of the dense table builder, which enumerates compositions on
#: a ``(sample_size + 1)**(k - 1)`` grid before filtering; beyond this the
#: transient grid would dominate the table itself.
_DENSE_VOTE_LAW_MAX_GRID = 2_000_000

#: Log-probability surrogate for zero-probability colors: finite (so the
#: composition matmul never produces ``0 * -inf = nan``) yet negative enough
#: that any composition using such a color underflows to exactly 0.
_DENSE_LOG_ZERO = -1.0e6


def dense_vote_law_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Can the dense (opinionated-only) ``maj()`` law be evaluated exactly?

    The dense path enumerates only the compositions of ``sample_size``
    observations over the ``k`` opinions — no "no opinion" cell — which is
    exactly the Stage-2 counts situation, where every message in a voter's
    sample carries an opinion.  Because one axis is dropped, it stays exact
    far beyond :func:`vote_table_is_tractable`'s factorial/composition
    budget (any ``sample_size`` for ``k = 2``, thousands for ``k = 3``);
    beyond these budgets callers fall back to per-voter observation
    sampling.
    """
    if sample_size < 1 or num_opinions < 1:
        return False
    return (
        math.comb(sample_size + num_opinions - 1, num_opinions - 1)
        <= _DENSE_VOTE_LAW_MAX_COMPOSITIONS
        and (sample_size + 1) ** (num_opinions - 1)
        <= _DENSE_VOTE_LAW_MAX_GRID
    )


@lru_cache(maxsize=32)
def _dense_majority_vote_table(
    sample_size: int, num_opinions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composition table of the dense ``maj()`` law (opinionated-only).

    Enumerates every composition ``m = (m_1, …, m_k)`` of ``sample_size``
    observations over the ``k`` opinions and tabulates

    * ``exponents`` — the ``(C, k)`` composition matrix (float64, ready for
      the log-space matmul),
    * ``log_coefficients`` — ``log(sample_size! / prod(m_i!))``, exact in
      log space for arbitrarily large ``sample_size``,
    * ``win_weight`` — the ``(C, k)`` conditional vote law given the
      composition: uniform over the most frequent opinions (the paper's
      tie-break, folded in analytically).  With ``sample_size >= 1`` some
      opinion always wins, so there is no "no vote" column.
    """
    width = num_opinions
    if width == 1:
        compositions = np.asarray([[sample_size]], dtype=np.int64)
    else:
        grid = np.indices((sample_size + 1,) * (width - 1))
        partial = grid.reshape(width - 1, -1).T
        totals = partial.sum(axis=1)
        keep = totals <= sample_size
        compositions = np.concatenate(
            [partial[keep], (sample_size - totals[keep])[:, np.newaxis]],
            axis=1,
        ).astype(np.int64, copy=False)
    log_factorial = np.concatenate(
        [[0.0], np.cumsum(np.log(np.arange(1, sample_size + 1)))]
    )
    log_coefficients = log_factorial[sample_size] - log_factorial[
        compositions
    ].sum(axis=1)
    row_max = compositions.max(axis=1)
    tied = compositions == row_max[:, np.newaxis]
    win_weight = tied / tied.sum(axis=1, keepdims=True)
    return compositions.astype(float), log_coefficients, win_weight


def dense_majority_vote_law(
    probabilities: np.ndarray, sample_size: int
) -> np.ndarray:
    """Exact ``maj()`` pmf over *opinionated* observations, for large samples.

    ``probabilities`` has shape ``(R, k)``: row ``r`` is trial ``r``'s color
    law of a voter's sample (every observation carries an opinion — the
    Stage-2 counts situation).  Returns the ``(R, k)`` vote pmf with the
    uniform tie-break folded in, evaluated in log space per trial from the
    cached composition table, then renormalized row-wise.  The result is the
    same distribution the bounded-chunk per-voter sampler draws from, at
    ``O(C)`` cost per trial instead of ``O(num_voters)`` per phase.  Rows
    summing to zero (empty histograms, never voted from) come back uniform.

    Raises ``ValueError`` when ``(sample_size, k)`` is beyond the dense
    budget — check :func:`dense_vote_law_is_tractable` first.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[1] < 1:
        raise ValueError(
            f"probabilities must have shape (R, k), got {probabilities.shape}"
        )
    num_opinions = probabilities.shape[1]
    sample_size = require_positive_int(sample_size, "sample_size")
    if not dense_vote_law_is_tractable(sample_size, num_opinions):
        raise ValueError(
            f"the dense maj() table for sample_size={sample_size}, "
            f"k={num_opinions} is intractable; check "
            "dense_vote_law_is_tractable and use per-voter observation "
            "sampling instead"
        )
    exponents, log_coefficients, win_weight = _dense_majority_vote_table(
        sample_size, num_opinions
    )
    law = np.empty(probabilities.shape, dtype=float)
    log_probabilities = np.full(num_opinions, _DENSE_LOG_ZERO)
    for row in range(probabilities.shape[0]):
        pvals = probabilities[row]
        positive = pvals > 0
        if not positive.any():
            law[row] = 1.0 / num_opinions
            continue
        log_probabilities.fill(_DENSE_LOG_ZERO)
        np.log(pvals, out=log_probabilities, where=positive)
        log_pmf = exponents @ log_probabilities
        log_pmf += log_coefficients
        pmf = np.exp(log_pmf, out=log_pmf)
        law[row] = pmf @ win_weight
    law = np.clip(law, 0.0, 1.0)
    row_sums = law.sum(axis=1, keepdims=True)
    return np.divide(
        law,
        row_sums,
        out=np.full(law.shape, 1.0 / num_opinions),
        where=row_sums > 0,
    )


def _observe_single_core(
    opinions: np.ndarray, noise: NoiseMatrix, rng: np.random.Generator
) -> np.ndarray:
    """One trial's single-observation votes, length ``n`` (0 = saw undecided).

    The one-observation case never needs the ``(n, k)`` counts matrix, so it
    samples one target per node and applies noise to the opinionated
    observations directly.
    """
    num_nodes = opinions.shape[0]
    targets = rng.choice(np.arange(num_nodes), size=num_nodes, replace=True)
    observed = opinions[targets]
    votes = np.zeros(num_nodes, dtype=np.int64)
    observers = np.nonzero(observed > 0)[0]
    if observers.size:
        votes[observers] = noise.apply_to_opinions(observed[observers], rng)
    return votes


class UniformPullModel:
    """Noisy uniform pull: each node observes ``sample_size`` random nodes.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    noise:
        Noise matrix applied independently to every observed opinion.
    random_state:
        Randomness source.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self._rng = as_generator(random_state)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _validate_opinions(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64).ravel()
        if array.shape[0] != self.num_nodes:
            raise ValueError(
                f"opinions must have length {self.num_nodes}, got {array.shape[0]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must be in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def observe(
        self,
        opinions: np.ndarray,
        sample_size: int,
        *,
        include_undecided: bool = True,
    ) -> ReceivedMessages:
        """Each node observes ``sample_size`` uniformly random nodes' opinions.

        Observations are taken with replacement (as in the classical
        h-majority / 3-majority dynamics); undecided nodes contribute no
        opinion to the observation when drawn, so a node may end up observing
        fewer than ``sample_size`` opinions.  When ``include_undecided`` is
        ``False``, observation targets are restricted to opinionated nodes
        (if any exist).

        Returns
        -------
        ReceivedMessages
            Per-node counts of (noisy) observed opinions.
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        return ReceivedMessages(
            _observe_core(
                opinions, sample_size, include_undecided, self.noise, self._rng
            )
        )

    def observe_single(self, opinions: np.ndarray) -> np.ndarray:
        """Each node observes one random node; returns the noisy opinions.

        Convenience entry point for the one-observation baselines (voter,
        undecided-state, median rule); the result is a length-``n`` vector of
        observed opinions with 0 marking "observed an undecided node".
        """
        opinions = self._validate_opinions(opinions)
        return _observe_single_core(opinions, self.noise, self._rng)


class EnsemblePullModel:
    """Noisy uniform pull over ``R`` independent trials as one batch.

    Observations are sampled from the compound channel (uniform target
    composed with per-message noise): each of a node's ``sample_size``
    observations is an independent categorical draw over
    ``{no opinion, 1, …, k}`` whose probabilities come from the trial's
    current opinion distribution pushed through the noise matrix.  This is
    exactly the distribution of the per-message engine and needs only one
    uniform block per trial per observation step.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n`` per trial.
    noise:
        Noise matrix applied independently to every observed opinion.

    The engine owns no randomness: every method takes the step's
    ``random_state`` and trial ``r`` draws from its own stream only (see
    :func:`~repro.utils.rng.as_trial_generators`), making batched runs
    reproducible trial by trial.
    """

    def __init__(self, num_nodes: int, noise: NoiseMatrix) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _validate_opinions(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64)
        if array.ndim != 2:
            raise ValueError(
                f"ensemble opinions must be an (R, n) matrix, got shape {array.shape}"
            )
        if array.shape[1] != self.num_nodes:
            raise ValueError(
                f"opinions must have {self.num_nodes} columns, got {array.shape[1]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must be in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def observation_probabilities(
        self, opinions: np.ndarray, *, include_undecided: bool = True
    ) -> np.ndarray:
        """Per-trial observation distribution, shape ``(R, k+1)``.

        Column 0 is the "no opinion observed" mass (the undecided fraction,
        or 0 when targets are restricted to opinionated nodes); columns
        ``1..k`` are the noisy opinion masses ``c P`` (Eq. (2) applied to the
        observation channel).
        """
        return self._probabilities(
            self._validate_opinions(opinions), include_undecided
        )

    def _probabilities(
        self, opinions: np.ndarray, include_undecided: bool
    ) -> np.ndarray:
        """:meth:`observation_probabilities` minus the (already-done) checks."""
        counts = opinion_counts_matrix(
            opinions, self.num_opinions, validate=False
        )
        if include_undecided:
            shares = counts / self.num_nodes
            none_mass = 1.0 - shares.sum(axis=1, keepdims=True)
        else:
            totals = counts.sum(axis=1, keepdims=True)
            has_support = totals > 0
            shares = np.divide(
                counts,
                totals,
                out=np.zeros(counts.shape, dtype=float),
                where=has_support,
            )
            # All-undecided trials fall back to "observe nothing" (pool
            # restriction is vacuous when nobody holds an opinion).
            none_mass = np.where(has_support, 0.0, 1.0)
        return np.concatenate([none_mass, shares @ self.noise.matrix], axis=1)

    @staticmethod
    def _cumulative(probabilities: np.ndarray) -> np.ndarray:
        """Row-wise CDF with the last column pinned to 1 (uniforms < 1)."""
        cumulative = probabilities.copy()
        np.cumsum(cumulative, axis=1, out=cumulative)
        cumulative[:, -1] = 1.0
        return cumulative

    @staticmethod
    def _categorical(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF categories of ``uniforms`` (leading axis = trials)."""
        outcomes = np.zeros(uniforms.shape, dtype=np.int64)
        broadcast = (-1,) + (1,) * (uniforms.ndim - 1)
        for column in range(cumulative.shape[1] - 1):
            outcomes += uniforms >= cumulative[:, column].reshape(broadcast)
        return outcomes

    @staticmethod
    def _uniform_blocks(
        shape, random_state: EnsembleRandomState
    ) -> np.ndarray:
        """A ``(R, …)`` block of uniforms, one row per trial.

        Each trial's generator fills its own (contiguous) row — the single
        RNG interaction that trial makes for the step.
        """
        uniforms = np.empty(shape, dtype=np.float64)
        for trial, generator in enumerate(
            as_trial_generators(random_state, shape[0])
        ):
            generator.random(out=uniforms[trial])
        return uniforms

    def observe(
        self,
        opinions: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        include_undecided: bool = True,
    ) -> EnsembleReceivedMessages:
        """Batched :meth:`UniformPullModel.observe` over an ``(R, n)`` matrix.

        Returns the per-trial, per-node counts of (noisy) observed opinions
        as an :class:`~repro.network.mailbox.EnsembleReceivedMessages`; the
        node-level counts are distributed exactly as the per-message engine's
        (independent ``Multinomial(sample_size, (1 - a, c P))`` draws per
        node).  One uniform block per trial, one batched inverse-CDF pass,
        one flattened bincount.
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        num_trials = opinions.shape[0]
        cumulative = self._cumulative(
            self._probabilities(opinions, include_undecided)
        )
        uniforms = self._uniform_blocks(
            (num_trials, self.num_nodes, sample_size), random_state
        )
        outcomes = self._categorical(cumulative, uniforms)
        width = self.num_opinions + 1
        offsets = (
            np.arange(num_trials * self.num_nodes, dtype=np.int64) * width
        ).reshape(num_trials, self.num_nodes, 1)
        flat = np.bincount(
            (offsets + outcomes).ravel(),
            minlength=num_trials * self.num_nodes * width,
        )
        counts = np.ascontiguousarray(
            flat.reshape(num_trials, self.num_nodes, width)[..., 1:],
            dtype=np.int64,
        )
        return EnsembleReceivedMessages(counts)

    def observe_single(
        self,
        opinions: np.ndarray,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """Batched :meth:`UniformPullModel.observe_single`; returns ``(R, n)``.

        Entry 0 marks "observed an undecided node"; one uniform per node per
        trial is the entire randomness budget of the step.
        """
        opinions = self._validate_opinions(opinions)
        cumulative = self._cumulative(self._probabilities(opinions, True))
        uniforms = self._uniform_blocks(
            (opinions.shape[0], self.num_nodes), random_state
        )
        return self._categorical(cumulative, uniforms)

    def observe_majority_votes(
        self,
        opinions: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        include_undecided: bool = True,
    ) -> np.ndarray:
        """Each node's ``maj()`` vote over ``sample_size`` observations, fused.

        The hot path of the batched h-majority dynamics: because a trial's
        nodes observe i.i.d. draws from the same compound channel, each
        node's majority vote (ties broken uniformly) is itself a categorical
        variable whose exact law follows from the per-trial observation
        probabilities via :func:`_majority_vote_table`.  Sampling that law
        directly costs one uniform per node — equivalent in distribution to
        :meth:`observe` followed by
        :meth:`~repro.network.mailbox.EnsembleReceivedMessages.majority_votes`
        (the test-suite checks the agreement), at a fraction of the work.

        Returns an ``(R, n)`` integer matrix; 0 means "observed no opinion,
        cast no vote".
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        if not _vote_table_is_tractable(sample_size, self.num_opinions):
            # Huge samples: enumerate observations instead of compositions
            # (same distribution, linear in sample_size like the sequential
            # engine), both steps drawing from the same per-trial streams.
            generators = as_trial_generators(random_state, opinions.shape[0])
            received = self.observe(
                opinions,
                sample_size,
                generators,
                include_undecided=include_undecided,
            )
            return received.majority_votes(generators)
        vote_pmf = majority_vote_law(
            self._probabilities(opinions, include_undecided), sample_size
        )
        cumulative = self._cumulative(vote_pmf)
        uniforms = self._uniform_blocks(
            (opinions.shape[0], self.num_nodes), random_state
        )
        return self._categorical(cumulative, uniforms)
