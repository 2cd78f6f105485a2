"""The :class:`NoiseMatrix` type.

A noise matrix ``P = (p_ij)`` is a row-stochastic ``k x k`` matrix where
``p_ij`` is the probability that an opinion ``i`` in transit is delivered as
opinion ``j`` (paper, Section 2.1, constraint 2).  All simulation engines and
all of the majority-preservation analysis consume this type.

Opinions are externally labelled ``1 .. k``; internally the matrix is stored
as a dense float array indexed ``0 .. k-1``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import require_positive_int

__all__ = ["NoiseMatrix"]

_ROW_SUM_ATOL = 1e-9


class NoiseMatrix:
    """A validated row-stochastic noise matrix over ``k`` opinions.

    Parameters
    ----------
    probabilities:
        A ``k x k`` array-like whose rows are probability distributions;
        entry ``(i, j)`` (0-indexed) is the probability that opinion ``i+1``
        is received as opinion ``j+1``.
    name:
        Optional human-readable name used in reports and experiment tables.

    Raises
    ------
    ValueError
        If the array is not square, contains negative or non-finite entries,
        or has a row that does not sum to 1 (within a small tolerance).
    """

    def __init__(
        self,
        probabilities: Union[Sequence[Sequence[float]], np.ndarray],
        *,
        name: Optional[str] = None,
    ) -> None:
        matrix = np.array(probabilities, dtype=float, copy=True)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"noise matrix must be square, got shape {matrix.shape}"
            )
        if matrix.shape[0] < 1:
            raise ValueError("noise matrix must have at least one opinion")
        if np.any(~np.isfinite(matrix)):
            raise ValueError("noise matrix entries must be finite")
        if np.any(matrix < -_ROW_SUM_ATOL):
            raise ValueError("noise matrix entries must be non-negative")
        row_sums = matrix.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-6):
            raise ValueError(
                f"every row of a noise matrix must sum to 1, got sums {row_sums.tolist()}"
            )
        matrix = np.clip(matrix, 0.0, None)
        matrix /= matrix.sum(axis=1, keepdims=True)
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self.name = name or f"noise[{matrix.shape[0]}]"

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_opinions(self) -> int:
        """The number of opinions ``k``."""
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) ``k x k`` float array."""
        return self._matrix

    def probability(self, source: int, received: int) -> float:
        """``p_{source, received}`` using 1-based opinion labels."""
        self._check_opinion(source)
        self._check_opinion(received)
        return float(self._matrix[source - 1, received - 1])

    def row(self, source: int) -> np.ndarray:
        """The distribution of the received opinion when ``source`` is sent."""
        self._check_opinion(source)
        return self._matrix[source - 1].copy()

    def _check_opinion(self, opinion: int) -> None:
        if not (1 <= int(opinion) <= self.num_opinions):
            raise ValueError(
                f"opinion must be in [1, {self.num_opinions}], got {opinion}"
            )

    def __eq__(self, other) -> bool:
        """Value equality: same entries and same name.

        Lets declarative containers (e.g. :class:`repro.sim.Scenario`) that
        carry a noise matrix compare equal after a serialization round trip.
        """
        if not isinstance(other, NoiseMatrix):
            return NotImplemented
        return self.name == other.name and np.array_equal(
            self._matrix, other._matrix
        )

    def __hash__(self) -> int:
        return hash((self.name, self._matrix.tobytes()))

    # ------------------------------------------------------------------ #
    # Structural properties
    # ------------------------------------------------------------------ #

    def is_identity(self, *, atol: float = 1e-12) -> bool:
        """``True`` if the matrix is the identity (noise-free channel)."""
        return bool(np.allclose(self._matrix, np.eye(self.num_opinions), atol=atol))

    def is_symmetric(self, *, atol: float = 1e-12) -> bool:
        """``True`` if ``P`` equals its transpose."""
        return bool(np.allclose(self._matrix, self._matrix.T, atol=atol))

    def is_doubly_stochastic(self, *, atol: float = 1e-9) -> bool:
        """``True`` if the columns also sum to 1."""
        return bool(np.allclose(self._matrix.sum(axis=0), 1.0, atol=atol))

    def is_diagonally_dominant(self) -> bool:
        """``True`` if each diagonal entry is at least the sum of the rest of its row."""
        diagonal = np.diag(self._matrix)
        off_diagonal = self._matrix.sum(axis=1) - diagonal
        return bool(np.all(diagonal >= off_diagonal - _ROW_SUM_ATOL))

    def diagonal_advantage(self) -> float:
        """The minimum over rows of ``p_ii - max_{j != i} p_ij``.

        A positive value means that, row by row, the original opinion is the
        single most likely opinion to be delivered.
        """
        matrix = self._matrix
        k = self.num_opinions
        if k == 1:
            return float(matrix[0, 0])
        off = matrix.copy()
        np.fill_diagonal(off, -np.inf)
        return float(np.min(np.diag(matrix) - off.max(axis=1)))

    # ------------------------------------------------------------------ #
    # Actions on distributions and samples
    # ------------------------------------------------------------------ #

    def propagate(self, distribution: Sequence[float]) -> np.ndarray:
        """Return ``c . P`` for an opinion distribution ``c`` (paper Eq. (2)).

        ``distribution`` is indexed by opinion ``1..k`` (position 0 holds the
        fraction of opinion 1) and need not sum to 1 — e.g. it may sum to the
        opinionated fraction ``a(t)``.
        """
        vector = np.asarray(distribution, dtype=float)
        if vector.shape != (self.num_opinions,):
            raise ValueError(
                f"distribution must have length {self.num_opinions}, got shape {vector.shape}"
            )
        if np.any(vector < -1e-12):
            raise ValueError("distribution entries must be non-negative")
        return vector @ self._matrix

    def apply_to_opinions(
        self, opinions: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Sample the noisy delivery of each opinion in ``opinions``.

        Parameters
        ----------
        opinions:
            Integer array of opinion labels in ``1..k`` (messages in transit).
        random_state:
            Randomness source.

        Returns
        -------
        numpy.ndarray
            An array of the same shape with each entry independently
            resampled according to its row of the noise matrix.
        """
        opinions = np.asarray(opinions)
        if opinions.size == 0:
            return opinions.astype(np.int64)
        if opinions.min() < 1 or opinions.max() > self.num_opinions:
            raise ValueError(
                f"opinions must be in [1, {self.num_opinions}]; "
                f"got range [{opinions.min()}, {opinions.max()}]"
            )
        rng = as_generator(random_state)
        flat = opinions.ravel()
        uniforms = rng.random(flat.shape[0])
        return self.apply_with_uniforms(flat, uniforms).reshape(opinions.shape)

    def apply_with_uniforms(
        self, opinions: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """The deterministic kernel of :meth:`apply_to_opinions`.

        Maps each opinion (flat array, labels ``1..k``) through the channel
        using one caller-supplied ``Uniform(0,1)`` draw per message, by
        inverse-CDF sampling of the opinion's matrix row.  The batched
        ensemble engines use this to draw the uniforms per trial (preserving
        per-trial streams) while applying the channel to the concatenated
        batch in one vectorized pass; feeding it ``rng.random(m)`` reproduces
        :meth:`apply_to_opinions` bit for bit.
        """
        opinions = np.asarray(opinions)
        cumulative = np.cumsum(self._matrix, axis=1)
        cumulative[:, -1] = 1.0
        rows = cumulative[opinions - 1]
        received = (np.asarray(uniforms)[:, np.newaxis] > rows).sum(axis=1) + 1
        return received.astype(np.int64)

    def apply_to_counts(
        self, counts: Sequence[int], random_state: RandomState = None
    ) -> np.ndarray:
        """Noisy delivery of a batch of messages given per-opinion counts.

        ``counts[i]`` messages carry opinion ``i + 1``; the return value is a
        vector of the same length giving how many messages are *received* as
        each opinion after independent per-message noise (multinomial
        resampling per row).  This is the engine-facing fast path.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_opinions,):
            raise ValueError(
                f"counts must have length {self.num_opinions}, got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        rng = as_generator(random_state)
        received = np.zeros(self.num_opinions, dtype=np.int64)
        for source_index in np.nonzero(counts)[0]:
            received += rng.multinomial(
                int(counts[source_index]), self._matrix[source_index]
            )
        return received

    def recolor_rows(
        self, count_matrix: np.ndarray, generators: Sequence
    ) -> np.ndarray:
        """Per-trial noisy delivery of pre-validated per-row histograms.

        Row ``r`` consumes exactly the draws :meth:`apply_to_counts` would
        make with ``generators[r]`` — one multinomial per nonzero source
        opinion, in ascending opinion order — but the per-call shape and
        sign checks are skipped, so the caller must pass a non-negative
        integer ``(R, k)`` array.  This is the engine round-loop kernel:
        validation happens once per phase, not once per row.
        """
        counts = np.asarray(count_matrix, dtype=np.int64)
        matrix = self._matrix
        received = np.zeros_like(counts)
        count_rows = counts.tolist()
        for index, generator in enumerate(generators):
            target = received[index]
            for source_index, count in enumerate(count_rows[index]):
                if count:
                    target += generator.multinomial(count, matrix[source_index])
        return received

    # ------------------------------------------------------------------ #
    # Algebra and dunder methods
    # ------------------------------------------------------------------ #

    def compose(self, other: "NoiseMatrix") -> "NoiseMatrix":
        """The matrix describing this channel followed by ``other``."""
        if other.num_opinions != self.num_opinions:
            raise ValueError(
                "cannot compose noise matrices over different numbers of opinions"
            )
        return NoiseMatrix(
            self._matrix @ other._matrix, name=f"{self.name}∘{other.name}"
        )

    def power(self, exponent: int) -> "NoiseMatrix":
        """The channel applied ``exponent`` times in sequence."""
        exponent = require_positive_int(exponent, "exponent")
        return NoiseMatrix(
            np.linalg.matrix_power(self._matrix, exponent),
            name=f"{self.name}^{exponent}",
        )

    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution of ``P`` viewed as a Markov chain.

        Computed from the left eigenvector with eigenvalue 1; useful for
        diagnosing where repeated noise drives the opinion distribution.
        """
        eigenvalues, eigenvectors = np.linalg.eig(self._matrix.T)
        index = int(np.argmin(np.abs(eigenvalues - 1.0)))
        vector = np.real(eigenvectors[:, index])
        vector = np.abs(vector)
        return vector / vector.sum()

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoiseMatrix):
            return NotImplemented
        return self.num_opinions == other.num_opinions and bool(
            np.allclose(self._matrix, other._matrix)
        )

    def __hash__(self) -> int:
        return hash((self.num_opinions, self._matrix.round(12).tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NoiseMatrix(name={self.name!r}, k={self.num_opinions})"
