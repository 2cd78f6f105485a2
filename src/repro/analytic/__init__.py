"""Sampling-free engines: exact Markov chains and mean-field integration.

This package holds the shared machinery of the ``analytic`` engine tier —
count-simplex enumeration, exact grouped-multinomial convolution, and the
distribution-level verification statistics (total-variation distance,
Wilson intervals) the engine-agreement suite asserts with.  The workload
engines themselves live next to their sampled counterparts:
:mod:`repro.dynamics.analytic` for the five baseline dynamics and
:mod:`repro.core.analytic` for the two-stage protocol.  Every name in
``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_STATE_BUDGET": "repro.analytic.simplex",
    "enumerate_states": "repro.analytic.simplex",
    "multinomial_outcome_law": "repro.analytic.simplex",
    "next_state_distribution": "repro.analytic.simplex",
    "state_indices": "repro.analytic.simplex",
    "state_lookup": "repro.analytic.simplex",
    "state_space_size": "repro.analytic.simplex",
    "states_within_budget": "repro.analytic.simplex",
    "Z_99_9": "repro.analytic.verify",
    "empirical_state_distribution": "repro.analytic.verify",
    "sampling_tvd_threshold": "repro.analytic.verify",
    "total_variation_distance": "repro.analytic.verify",
    "wilson_interval": "repro.analytic.verify",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
