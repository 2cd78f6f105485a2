"""Random number generator management.

Every stochastic component in the library draws randomness from a
``numpy.random.Generator``.  Accepting ``None``, an integer seed, or an
existing generator everywhere keeps experiments reproducible while letting
quick interactive use stay terse.  The helpers in this module centralize that
conversion and provide deterministic "spawning" of independent generators for
multi-trial experiments.

Multi-trial engines draw from per-trial streams only: trial ``r`` of a batch
consumes its own generator, so a batched run is bitwise ``R`` batch-size-1
runs with the same sources.  :func:`as_trial_generators` is the one place
that turns an ensemble randomness source into those streams — a sequence
supplies one source per trial, and a single source is spawned into one
independent child per trial.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: Randomness accepted by the batched ensemble machinery: a sequence with
#: one :data:`RandomState` per trial, or a single :data:`RandomState` that
#: :func:`as_trial_generators` spawns into one child stream per trial.
#: Either way every trial draws from its own stream.
EnsembleRandomState = Union[RandomState, Sequence[RandomState]]

__all__ = [
    "RandomState",
    "EnsembleRandomState",
    "as_generator",
    "spawn_generators",
    "derive_seed",
    "is_generator_sequence",
    "as_trial_generators",
]


def as_generator(random_state: RandomState = None) -> np.random.Generator:
    """Coerce ``random_state`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        already-constructed ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator suitable for simulation use.
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(random_state)
    raise TypeError(
        "random_state must be None, an int, a SeedSequence, or a Generator; "
        f"got {type(random_state).__name__}"
    )


def spawn_generators(
    count: int, random_state: RandomState = None
) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators.

    The generators are derived from a single :class:`numpy.random.SeedSequence`
    so that a fixed ``random_state`` yields a fixed family of streams, which is
    what repeated-trial experiments need for reproducibility.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.SeedSequence):
        seed_seq = random_state
    elif isinstance(random_state, np.random.Generator):
        # Derive a sequence from the generator without perturbing shared state
        # more than one draw.
        seed_seq = np.random.SeedSequence(int(random_state.integers(0, 2**63 - 1)))
    else:
        seed_seq = np.random.SeedSequence(random_state)
    return [np.random.default_rng(child) for child in seed_seq.spawn(count)]


def is_generator_sequence(random_state) -> bool:
    """``True`` if ``random_state`` is a per-trial sequence of RNG sources.

    How :func:`as_trial_generators` tells one source from one source per
    trial (strings and arrays are not treated as sequences); the counts
    sweep's opt-in shared-stream draw order uses it to tell a list of
    per-row generators from its one shared generator.
    """
    return isinstance(random_state, (list, tuple))


def as_trial_generators(
    random_state: "EnsembleRandomState", num_trials: int
) -> List[np.random.Generator]:
    """Coerce ``random_state`` into exactly ``num_trials`` generators.

    A list/tuple is validated (length must match) and coerced element-wise,
    so callers can pin per-trial seeds; any other :data:`RandomState` is
    expanded via :func:`spawn_generators` into independent child streams.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    if is_generator_sequence(random_state):
        if len(random_state) != num_trials:
            raise ValueError(
                f"expected {num_trials} per-trial random states, "
                f"got {len(random_state)}"
            )
        return [as_generator(entry) for entry in random_state]
    return spawn_generators(num_trials, random_state)


def derive_seed(random_state: RandomState, index: int) -> int:
    """Derive a stable integer seed for trial ``index`` of an experiment.

    This is used by experiment runners that want to record, per trial, an
    integer seed that can later reproduce that trial in isolation.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    if isinstance(random_state, np.random.Generator):
        base = int(random_state.integers(0, 2**31 - 1))
    elif isinstance(random_state, np.random.SeedSequence):
        base = int(random_state.generate_state(1)[0])
    elif random_state is None:
        base = 0
    else:
        base = int(random_state)
    mix = np.random.SeedSequence(entropy=base, spawn_key=(index,))
    return int(mix.generate_state(1)[0])
