"""The analytical toolbox behind the paper's proofs.

This subpackage collects the closed-form quantities and statistical
diagnostics that the paper's analysis relies on, so that experiments can
compare measured behaviour against the proved bounds:

* :mod:`repro.analysis.theory` — the function ``g(delta, l)``, the
  Proposition-1 amplification lower bound, the central-binomial-coefficient
  bounds of Lemma 13 and the binomial/beta identity of Lemma 8;
* :mod:`repro.analysis.bias` — bias and plurality statistics on opinion
  distributions;
* :mod:`repro.analysis.concentration` — Chernoff/Hoeffding bounds including
  the three-point-variable bound of Lemma 16;
* :mod:`repro.analysis.amplification` — exact and Monte-Carlo estimates of
  ``Pr[maj_l = m] - Pr[maj_l = i]`` for a given opinion distribution and
  noise matrix (the quantity bounded by Proposition 1);
* :mod:`repro.analysis.poisson` — statistical distances between the three
  delivery processes O, B and P (Claim 1 and Lemma 2/3);
* :mod:`repro.analysis.convergence` — success-rate estimation and scaling
  fits of measured convergence times against ``log n / eps^2``.

Every name in ``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "amplification_lower_bound": "repro.analysis.amplification",
    "bias_toward": "repro.analysis.bias",
    "binary_majority_gap_exact": "repro.analysis.amplification",
    "binomial_beta_survival": "repro.analysis.theory",
    "central_binomial_bounds": "repro.analysis.theory",
    "chernoff_upper_tail": "repro.analysis.concentration",
    "distribution_after_noise": "repro.analysis.bias",
    "estimate_success_probability": "repro.analysis.convergence",
    "fit_round_complexity": "repro.analysis.convergence",
    "g_function": "repro.analysis.theory",
    "hoeffding_bound": "repro.analysis.concentration",
    "is_delta_biased": "repro.analysis.bias",
    "majority_gap_monte_carlo": "repro.analysis.amplification",
    "majority_probabilities_exact": "repro.analysis.amplification",
    "plurality_of": "repro.analysis.bias",
    "poisson_transfer_factor": "repro.analysis.poisson",
    "process_count_distribution": "repro.analysis.poisson",
    "stage1_growth_envelope": "repro.analysis.theory",
    "three_point_chernoff_bound": "repro.analysis.concentration",
    "total_variation_distance": "repro.analysis.poisson",
    "wilson_interval": "repro.analysis.convergence",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
