"""Noise matrices and the (epsilon, delta)-majority-preserving property.

This subpackage implements Section 2.1/2.2 and Section 4 of the paper:

* :class:`~repro.noise.matrix.NoiseMatrix` — a validated row-stochastic
  ``k x k`` matrix describing how an opinion in transit is perturbed;
* the canonical matrix families used in the paper
  (:mod:`repro.noise.families`): the binary flip matrix of Eq. (1), its
  uniform-noise generalization, cyclic-shift noise, "reset" noise, and the
  diagonally-dominant counterexample of Section 4;
* verification of the ``(epsilon, delta)``-majority-preserving property
  (:mod:`repro.noise.majority_preserving`), both exactly via the paper's
  linear program and via the Eq. (17)/(18) sufficient condition.

Every name in ``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "MajorityPreservationReport": "repro.noise.majority_preserving",
    "NoiseMatrix": "repro.noise.matrix",
    "binary_flip_matrix": "repro.noise.families",
    "calibrate_epsilon": "repro.noise.estimation",
    "check_majority_preserving": "repro.noise.majority_preserving",
    "collect_channel_observations": "repro.noise.estimation",
    "estimate_noise_matrix": "repro.noise.estimation",
    "estimation_error": "repro.noise.estimation",
    "cyclic_shift_matrix": "repro.noise.families",
    "diagonally_dominant_counterexample": "repro.noise.families",
    "epsilon_for_delta": "repro.noise.majority_preserving",
    "identity_matrix": "repro.noise.families",
    "minimal_bias_gap": "repro.noise.majority_preserving",
    "near_uniform_matrix": "repro.noise.families",
    "reset_matrix": "repro.noise.families",
    "sufficient_condition_epsilon": "repro.noise.majority_preserving",
    "uniform_noise_matrix": "repro.noise.families",
    "worst_case_distribution": "repro.noise.majority_preserving",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
