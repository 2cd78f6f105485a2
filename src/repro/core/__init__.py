"""The paper's primary contribution: the two-stage noisy gossip protocol.

This subpackage implements the protocol of Section 3.1 and the two problem
wrappers built on top of it:

* :mod:`repro.core.state` — the population state (opinion vector, opinionated
  fraction ``a(t)``, opinion distribution ``c(t)``, bias);
* :mod:`repro.core.schedule` — the exact phase schedules of Stage 1 and
  Stage 2 (phase counts ``T``, ``T'`` and per-phase round counts);
* :mod:`repro.core.stage1` — the Stage-1 rule (spread the rumor while
  preserving a bias toward the correct opinion);
* :mod:`repro.core.stage2` — the Stage-2 rule (amplify the bias by repeated
  sample-majority updates);
* :mod:`repro.core.protocol` — the combined two-stage protocol;
* :mod:`repro.core.rumor` / :mod:`repro.core.plurality` — the rumor-spreading
  and plurality-consensus problem set-ups of Theorems 1 and 2;
* :mod:`repro.core.sampling` — the per-node reservoir sampler (footnote 4);
* :mod:`repro.core.memory` — per-node memory accounting in bits.

Every name in ``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "CountsProtocol": "repro.core.protocol",
    "CountsState": "repro.core.state",
    "EnsembleCountsState": "repro.core.state",
    "MemoryUsage": "repro.core.memory",
    "PluralityConsensus": "repro.core.plurality",
    "PluralityInstance": "repro.core.plurality",
    "PopulationState": "repro.core.state",
    "ProtocolResult": "repro.core.protocol",
    "ProtocolSchedule": "repro.core.schedule",
    "ReservoirSampler": "repro.core.sampling",
    "RumorSpreading": "repro.core.rumor",
    "RumorSpreadingInstance": "repro.core.rumor",
    "Stage1Executor": "repro.core.stage1",
    "Stage1PhaseRecord": "repro.core.stage1",
    "Stage1Schedule": "repro.core.schedule",
    "Stage2Executor": "repro.core.stage2",
    "Stage2PhaseRecord": "repro.core.stage2",
    "Stage2Schedule": "repro.core.schedule",
    "TwoStageProtocol": "repro.core.protocol",
    "memory_bound_bits": "repro.core.memory",
    "protocol_memory_usage": "repro.core.memory",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
