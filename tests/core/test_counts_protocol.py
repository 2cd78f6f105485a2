"""Tests for the counts-tier protocol engine.

Covers the counts delivery model's laws and samplers, the merged
heterogeneous batch run one stage at a time (records, conservation), the
per-point fault hook, the :class:`CountsProtocol` one-task front end (state
coercion, schedules, result API, reproducibility, validation), and the
rejection of the per-node-only ablation knobs.  Cross-engine statistical
agreement lives in ``tests/integration/test_engine_agreement.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.protocol
from repro.core.protocol import (
    CountsProtocol,
    CountsProtocolTask,
    EnsembleResult,
    run_heterogeneous_counts_protocol,
)
from repro.core.schedule import ProtocolSchedule, Stage1Schedule, Stage2Schedule
from repro.core.stage1 import EnsembleStage1PhaseRecord
from repro.core.stage2 import EnsembleStage2PhaseRecord
from repro.core.state import CountsState, EnsembleCountsState, PopulationState
from repro.experiments.runner import stage2_trial_trajectories
from repro.faults import FaultedPhaseSampler, FaultModel
from repro.network.balls_bins import (
    HeterogeneousCountsDeliveryModel,
    poisson_tail_probability,
)
from repro.noise.families import identity_matrix, uniform_noise_matrix
from repro.sim import Scenario, ScenarioError, simulate

NUM_NODES = 800
EPSILON = 0.3


@pytest.fixture
def noise():
    return uniform_noise_matrix(3, EPSILON)


def one_block(noise, rows=1, num_nodes=NUM_NODES):
    """A delivery model whose ``rows`` rows all belong to one block."""
    return HeterogeneousCountsDeliveryModel(
        [slice(0, rows)], [num_nodes], [noise]
    )


def run_one(task):
    (result,) = run_heterogeneous_counts_protocol([task])
    return result


class TestPoissonTail:
    def test_threshold_zero_is_certain(self):
        assert np.all(poisson_tail_probability(0, np.array([0.0, 5.0])) == 1.0)

    def test_zero_rate_never_reaches_positive_threshold(self):
        assert poisson_tail_probability(3, np.array([0.0]))[0] == 0.0

    def test_matches_direct_sum_at_moderate_rate(self):
        import math

        lam = 7.5
        threshold = 10
        direct = 1.0 - sum(
            math.exp(-lam) * lam**i / math.factorial(i)
            for i in range(threshold)
        )
        computed = poisson_tail_probability(threshold, np.array([lam]))[0]
        assert computed == pytest.approx(direct, rel=1e-12)

    def test_stable_at_huge_rates(self):
        # exp(-1500) underflows; the log-space path must not.
        tail = poisson_tail_probability(700, np.array([1500.0]))[0]
        assert tail == pytest.approx(1.0)
        near_half = poisson_tail_probability(1500, np.array([1500.0]))[0]
        assert 0.4 < near_half < 0.6


class TestCountsDelivery:
    def test_recolor_preserves_totals(self, noise, rng):
        histograms = np.array([[100, 50, 0], [0, 0, 0]], dtype=np.int64)
        noisy = one_block(noise, rows=2).recolor(histograms, rng)
        assert noisy.dtype == np.int64
        assert np.array_equal(noisy.sum(axis=1), histograms.sum(axis=1))

    def test_identity_recolor_is_exact(self, rng):
        histograms = np.array([[7, 3, 2]], dtype=np.int64)
        delivery = one_block(identity_matrix(3))
        assert np.array_equal(delivery.recolor(histograms, rng), histograms)

    def test_adoption_probabilities_sum_to_one(self, noise):
        noisy = np.array([[400, 100, 0], [0, 0, 0]], dtype=np.int64)
        probabilities = one_block(noise, rows=2).adoption_probabilities(noisy)
        assert probabilities.shape == (2, 4)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        # An empty phase leaves everyone undecided with certainty.
        assert probabilities[1, 0] == 1.0
        # Adoption splits proportionally to the noisy histogram.
        assert probabilities[0, 1] / probabilities[0, 2] == pytest.approx(4.0)

    def test_sample_adoptions_accounts_for_every_undecided_node(
        self, noise, rng
    ):
        noisy = np.array([[4000, 1000, 500]], dtype=np.int64)
        adopted = one_block(noise).sample_adoptions(noisy, np.array([300]), rng)
        assert adopted.shape == (1, 4)
        assert adopted.sum() == 300

    def test_sample_vote_counts_tractable_and_chunked_agree_in_mean(
        self, noise
    ):
        """The dense-law and chunked vote samplers draw from the same law;
        with a strongly biased histogram both concentrate on the plurality
        color."""
        from repro.network.pull_model import vote_table_is_tractable

        noisy = np.array([[9000, 500, 500]], dtype=np.int64)
        voters = np.array([4000])
        tractable, _ = one_block(noise).sample_vote_counts(
            noisy, voters, [5], np.random.default_rng(0)
        )
        chunked_model = one_block(uniform_noise_matrix(6, EPSILON))
        chunked_model.VOTE_CHUNK = 256
        # L = 201 with k = 6 is beyond both table budgets, and this bias is
        # too weak for the point-law certificate -> chunk sampler.
        chunked_noisy = np.array([[4000, 1200, 1200, 1200, 1200, 1200]])
        assert chunked_model.vote_paths(chunked_noisy, voters, [201]) == [
            "chunk"
        ]
        chunked, _ = chunked_model.sample_vote_counts(
            chunked_noisy,
            voters,
            [201],
            np.random.default_rng(1),
        )
        for votes in (tractable, chunked):
            assert votes.sum() == 4000
            assert votes[0, 0] > 3500
        assert vote_table_is_tractable(5, 3)

    @pytest.mark.parametrize("bias,final_path", [(0.1, "point"), (0.0, "dense")])
    def test_a_run_builds_exactly_the_tables_it_uses(self, bias, final_path):
        """Each table is built on its phase's first use: a run's LRU misses
        are the distinct Stage-2 sample sizes whose phases took that path.
        The dominated run's certified final phase builds no dense table."""
        from repro.network.pull_model import clear_vote_law_cache
        from repro.sim import Scenario, simulate

        scenario = Scenario(
            workload="plurality", num_nodes=10**6, num_opinions=3,
            engine="counts", num_trials=64, seed=0, bias=bias,
        )
        clear_vote_law_cache()
        provenance = simulate(scenario).provenance
        sample_sizes = ProtocolSchedule.for_population(
            scenario.num_nodes, scenario.epsilon
        ).stage2.sample_sizes
        paths = provenance["stage2_vote_paths"]
        assert len(paths) == len(sample_sizes)
        assert paths[-1] == final_path
        misses = provenance["vote_law_cache"]
        for path, counter in (("table", "table_misses"), ("dense", "dense_table_misses")):
            used = {size for size, taken in zip(sample_sizes, paths) if taken == path}
            assert misses[counter] == len(used)


class TestSingleStageRuns:
    """The merged batch with one stage of the schedule left empty."""

    def test_stage1_grows_opinionated_set(self, noise):
        schedule = Stage1Schedule.for_population(NUM_NODES, EPSILON)
        result = run_one(
            CountsProtocolTask(
                num_nodes=NUM_NODES,
                noise=noise,
                initial_state=CountsState.single_source(NUM_NODES, 3, 1),
                num_trials=4,
                schedule=ProtocolSchedule(
                    schedule, Stage2Schedule([], [], EPSILON)
                ),
                random_state=0,
            )
        )
        records = result.stage1_records
        final = result.final_states
        assert len(records) == schedule.num_phases
        assert result.stage2_records == []
        assert np.all(final.opinionated_counts() >= 1)
        assert np.all(
            records[-1].opinionated_after >= records[0].opinionated_before
        )
        assert np.all(final.counts.sum(axis=1) <= NUM_NODES)
        # Phase records carry per-trial arrays and the Claim-1 ball count.
        assert records[0].messages_sent.shape == (4,)
        assert records[0].messages_sent[0] == schedule.phase_lengths[0]

    def test_stage2_amplifies_bias(self, noise):
        schedule = Stage2Schedule.for_population(NUM_NODES, EPSILON)
        biased = EnsembleCountsState(
            np.tile([360, 240, 200], (6, 1)), NUM_NODES
        )
        result = run_one(
            CountsProtocolTask(
                num_nodes=NUM_NODES,
                noise=noise,
                initial_state=biased,
                schedule=ProtocolSchedule(Stage1Schedule([], EPSILON), schedule),
                target_opinion=1,
                random_state=0,
            )
        )
        final = result.final_states
        assert len(result.stage2_records) == schedule.num_phases
        assert float(final.bias_toward(1).mean()) > float(
            biased.bias_toward(1).mean()
        )
        assert np.all(final.counts.sum(axis=1) == NUM_NODES)
        assert result.stage2_records[-1].consensus_after.shape == (6,)

    def test_stage2_trajectories_reject_ablation_knobs(self, noise):
        initial = PopulationState.from_counts(
            NUM_NODES, {1: 360, 2: 240, 3: 200}, 3, random_state=0
        )
        with pytest.raises(ValueError, match="with_replacement"):
            stage2_trial_trajectories(
                initial, noise, EPSILON, 2, 0, trial_engine="counts",
                sampling_method="with_replacement",
            )
        with pytest.raises(ValueError, match="full_multiset"):
            stage2_trial_trajectories(
                initial, noise, EPSILON, 2, 0, trial_engine="counts",
                use_full_multiset=True,
            )


class TestFaultHook:
    """A task's fault sampler adds its balls to every phase histogram."""

    def task(self, noise, faults, num_faulty=80):
        honest = CountsState.single_source(NUM_NODES - num_faulty, 3, 1)
        sampler = FaultedPhaseSampler(
            faults, num_faulty, np.array([num_faulty, 0, 0]), 3
        )
        return CountsProtocolTask(
            num_nodes=honest.num_nodes,
            noise=noise,
            initial_state=honest,
            num_trials=3,
            epsilon=EPSILON,
            target_opinion=1,
            random_state=0,
            fault_sampler=sampler,
        )

    def test_bins_span_the_faulty_nodes_too(self, noise):
        task = self.task(noise, FaultModel(kind="liar", fraction=0.1))
        assert task.num_bins == NUM_NODES
        assert task.num_nodes == NUM_NODES - 80

    def test_liar_balls_join_every_phase(self, noise):
        result = run_one(self.task(noise, FaultModel(kind="liar", fraction=0.1)))
        first = result.stage1_records[0]
        expected = (first.opinionated_before + 80) * first.num_rounds
        assert np.array_equal(first.messages_sent, expected)
        assert result.final_states.num_nodes == NUM_NODES - 80
        assert np.all(result.final_states.counts.sum(axis=1) <= NUM_NODES - 80)

    def test_silent_crash_adds_no_balls(self, noise):
        result = run_one(self.task(noise, FaultModel(kind="crash", fraction=0.1)))
        for record in result.stage1_records:
            assert np.array_equal(
                record.messages_sent,
                record.opinionated_before * record.num_rounds,
            )

    def test_faulted_point_matches_its_run_alone_inside_a_batch(self, noise):
        faults = FaultModel(kind="omission", fraction=0.1)
        alone = run_one(self.task(noise, faults))
        clean = CountsProtocolTask(
            num_nodes=NUM_NODES,
            noise=noise,
            initial_state=CountsState.single_source(NUM_NODES, 3, 1),
            num_trials=2,
            epsilon=EPSILON,
            random_state=9,
        )
        _, merged = run_heterogeneous_counts_protocol(
            [clean, self.task(noise, faults)]
        )
        assert np.array_equal(
            merged.final_states.counts, alone.final_states.counts
        )
        for left, right in zip(
            merged.stage2_records, alone.stage2_records
        ):
            assert np.array_equal(
                left.opinion_distributions, right.opinion_distributions
            )


def _block_bias(distributions, target):
    """Per-trial Definition-1 bias of one block toward its own target, the
    per-point expression the merged phase records replaced."""
    if distributions.shape[1] == 1:
        return distributions[:, 0]
    rivals = distributions.copy()
    rivals[:, target - 1] = -np.inf
    return distributions[:, target - 1] - rivals.max(axis=1)


def _reference_records(stage, step, parts, before, after, calls):
    """Each point's phase record, built block by block as the per-point
    loop built it, from one merged substep's counts and draws."""
    histograms = calls["recolor"][0][0]
    records = []
    offset = 0
    for block, point in enumerate(parts):
        lsl = slice(offset, offset + point.slice.stop - point.slice.start)
        offset = lsl.stop
        target = point.target_opinion
        distributions = after[lsl] / point.task.num_nodes
        messages_sent = histograms[lsl].sum(axis=1, dtype=np.int64)
        if stage == "s1":
            adopted = calls["sample_adoptions"][1]
            _, phase_index, phase_rounds = point.plan[step]
            records.append(
                EnsembleStage1PhaseRecord(
                    phase_index=phase_index,
                    num_rounds=phase_rounds,
                    opinionated_before=before[lsl].sum(axis=1, dtype=np.int64),
                    opinionated_after=after[lsl].sum(axis=1, dtype=np.int64),
                    newly_opinionated=adopted[lsl, 1:].sum(
                        axis=1, dtype=np.int64
                    ),
                    opinion_distributions=distributions,
                    bias=_block_bias(distributions, target),
                    messages_sent=messages_sent,
                )
            )
            continue
        updaters = calls["sample_updaters"][1]
        _, phase_index, phase_rounds, sample_size = point.plan[step]
        records.append(
            EnsembleStage2PhaseRecord(
                phase_index=phase_index,
                num_rounds=phase_rounds,
                sample_size=sample_size,
                updated_nodes=updaters[lsl].sum(axis=1, dtype=np.int64),
                opinion_distributions=distributions,
                bias_before=_block_bias(
                    before[lsl] / point.task.num_nodes, target
                ),
                bias_after=_block_bias(distributions, target),
                messages_sent=messages_sent,
                consensus_after=after[lsl, target - 1] == point.task.num_nodes,
                vote_path=calls["sample_vote_counts"][1][1][block],
            )
        )
    return records


def _assert_same_record(record, reference):
    """Field by field: equal bytes, dtype and shape for every array."""
    assert type(record) is type(reference)
    for field in dataclasses.fields(reference):
        mine = getattr(record, field.name)
        theirs = getattr(reference, field.name)
        if isinstance(theirs, np.ndarray):
            assert isinstance(mine, np.ndarray), field.name
            assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), (
                field.name
            )
            assert mine.tobytes() == theirs.tobytes(), field.name
        else:
            assert (type(mine), mine) == (type(theirs), theirs), field.name


class TestMergedPhaseRecords:
    """A merged substep computes every phase-record field once over all of
    its rows; each point's record must equal, field by field and dtype by
    dtype, the one the per-point loop builds from the same substep."""

    def tasks(self, noise):
        """k = 3 points with targets 1, 2 and 3 and schedules of different
        lengths, plus an omission-faulted rumor point."""
        plurality = [
            (800, [300, 200, 100], 1, 3),
            (5000, [100, 400, 200], 2, 2),
            (40000, [0, 50, 1000], 3, 2),
        ]
        tasks = [
            CountsProtocolTask(
                num_nodes=num_nodes,
                noise=noise,
                initial_state=CountsState(counts, num_nodes),
                num_trials=num_trials,
                epsilon=EPSILON,
                target_opinion=target,
                random_state=target,
            )
            for num_nodes, counts, target, num_trials in plurality
        ]
        honest = CountsState.single_source(NUM_NODES - 80, 3, 1)
        tasks.append(
            CountsProtocolTask(
                num_nodes=honest.num_nodes,
                noise=noise,
                initial_state=honest,
                num_trials=3,
                epsilon=EPSILON,
                target_opinion=1,
                random_state=4,
                fault_sampler=FaultedPhaseSampler(
                    FaultModel(kind="omission", fraction=0.1),
                    80,
                    np.array([80, 0, 0]),
                    3,
                ),
            )
        )
        return tasks

    def test_records_match_the_per_point_reference(self, noise, monkeypatch):
        calls = {}
        for name in (
            "recolor", "sample_adoptions", "sample_updaters",
            "sample_vote_counts",
        ):
            original = getattr(HeterogeneousCountsDeliveryModel, name)

            def recorded(model, *args, _name=name, _original=original):
                result = _original(model, *args)
                calls[_name] = (args, result)
                return result

            monkeypatch.setattr(HeterogeneousCountsDeliveryModel, name, recorded)
        checked = []

        def checking(stage, substep):
            def run(counts, generators, parts, step, cache):
                rows = np.concatenate(
                    [np.arange(p.slice.start, p.slice.stop) for p in parts]
                )
                before = counts[rows].copy()
                calls.clear()
                substep(counts, generators, parts, step, cache)
                references = _reference_records(
                    stage, step, parts, before, counts[rows], calls
                )
                for point, reference in zip(parts, references):
                    records = getattr(point, f"stage{stage[1]}_records")
                    _assert_same_record(records[-1], reference)
                checked.append((stage, [p.target_opinion for p in parts]))

            return run

        monkeypatch.setattr(
            repro.core.protocol, "_run_stage1_substep",
            checking("s1", repro.core.protocol._run_stage1_substep),
        )
        monkeypatch.setattr(
            repro.core.protocol, "_run_stage2_substep",
            checking("s2", repro.core.protocol._run_stage2_substep),
        )
        results = run_heterogeneous_counts_protocol(self.tasks(noise))
        phases = [
            len(result.stage1_records) + len(result.stage2_records)
            for result in results
        ]
        assert len(set(phases)) > 1
        assert sum(len(targets) for _, targets in checked) == sum(phases)
        assert any(len(set(targets)) == 3 for _, targets in checked)
        assert {stage for stage, _ in checked} == {"s1", "s2"}


class TestCountsProtocol:
    def test_rumor_spreading_succeeds(self, noise):
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        result = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 16, target_opinion=1)
        assert isinstance(result, EnsembleResult)
        assert result.num_trials == 16
        assert result.success_rate > 0.8
        assert result.total_rounds > 0
        assert result.biases_after_stage1 is not None
        assert result.correct_fractions().shape == (16,)
        assert isinstance(result.final_states, EnsembleCountsState)

    def test_matches_schedule_of_batched_protocol(self, noise):
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        counts_result = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 2, target_opinion=1)
        from repro.core.protocol import EnsembleProtocol
        batched_result = EnsembleProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 2, target_opinion=1)
        assert counts_result.total_rounds == batched_result.total_rounds
        assert len(counts_result.stage1_records) == len(
            batched_result.stage1_records
        )
        assert len(counts_result.stage2_records) == len(
            batched_result.stage2_records
        )

    def test_accepts_counts_state_types(self, noise):
        protocol = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=0
        )
        single = CountsState.single_source(NUM_NODES, 3, 1)
        tiled = EnsembleCountsState.from_counts_state(single, 3)
        assert protocol.run(single, 3, target_opinion=1).num_trials == 3
        assert protocol.run(tiled, target_opinion=1).num_trials == 3
        with pytest.raises(ValueError):
            protocol.run(single)  # num_trials required

    def test_reproducible_with_fixed_seed(self, noise):
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        first = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=5
        ).run(initial, 4, target_opinion=1)
        second = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON, random_state=5
        ).run(initial, 4, target_opinion=1)
        assert np.array_equal(
            first.final_states.counts, second.final_states.counts
        )

    def test_batch_matches_batch_size_one_runs(self, noise):
        """Per-trial sources make a counts protocol batch bitwise identical
        to batch-size-1 runs with the same sources."""
        initial = PopulationState.single_source(NUM_NODES, 3, 1)
        seeds = [41, 42]
        batched = CountsProtocol(
            NUM_NODES, noise, epsilon=EPSILON,
            random_state=[np.random.default_rng(seed) for seed in seeds],
        ).run(initial, len(seeds), target_opinion=1)
        for trial, seed in enumerate(seeds):
            single = CountsProtocol(
                NUM_NODES, noise, epsilon=EPSILON,
                random_state=[np.random.default_rng(seed)],
            ).run(initial, 1, target_opinion=1)
            assert np.array_equal(
                batched.final_states.counts[trial],
                single.final_states.counts[0],
            )

    def test_validation(self, noise):
        with pytest.raises(TypeError):
            CountsProtocol(NUM_NODES, noise)  # epsilon required
        with pytest.raises(ValueError, match="schedule or epsilon"):
            run_one(
                CountsProtocolTask(
                    num_nodes=NUM_NODES,
                    noise=noise,
                    initial_state=CountsState.single_source(NUM_NODES, 3, 1),
                    num_trials=2,
                )
            )
        protocol = CountsProtocol(NUM_NODES, noise, epsilon=EPSILON)
        with pytest.raises(ValueError):
            protocol.run(
                CountsState.single_source(NUM_NODES + 1, 3, 1), 2
            )
        with pytest.raises(ValueError):
            protocol.run(CountsState([0, 0, 0], NUM_NODES), 2)

    def test_out_of_range_target_is_rejected(self, noise):
        protocol = CountsProtocol(NUM_NODES, noise, epsilon=EPSILON)
        initial = CountsState.single_source(NUM_NODES, 3, 1)
        with pytest.raises(ValueError, match=r"opinion must be in \[1, 3\], got 4"):
            protocol.run(initial, 2, target_opinion=4)

    def test_out_of_range_target_is_rejected_in_a_batch(self, noise):
        def task(target):
            return CountsProtocolTask(
                num_nodes=NUM_NODES,
                noise=noise,
                initial_state=CountsState.single_source(NUM_NODES, 3, 1),
                num_trials=2,
                epsilon=EPSILON,
                target_opinion=target,
                random_state=0,
            )

        with pytest.raises(ValueError, match=r"opinion must be in \[1, 3\], got 4"):
            run_heterogeneous_counts_protocol([task(1), task(4)])
        with pytest.raises(ValueError, match=r"opinion must be in \[1, 3\], got 0"):
            run_heterogeneous_counts_protocol([task(0)])

    def test_million_node_protocol_runs_fast(self, noise):
        """The tier's point for the protocol: n = 10^6 trials in seconds."""
        initial = CountsState.single_source(1_000_000, 3, 1)
        result = CountsProtocol(
            1_000_000, noise, epsilon=EPSILON, random_state=0
        ).run(initial, 3, target_opinion=1)
        assert result.success_rate == 1.0


class TestInt64HistogramBound:
    """A phase of ``r`` rounds throws up to ``n * r`` balls into int64
    histograms, so the counts tier accepts ``n`` only while ``n`` times its
    schedule's longest phase stays within ``2^63 - 1``, and rejects larger
    populations before any draw, naming the largest one that fits."""

    #: The largest n at epsilon = 0.3, round_scale = 1: its longest phase
    #: (the final Stage-2 phase) runs 3418 rounds.
    LARGEST = 2_698_470_461_338_436

    @staticmethod
    def scenario(workload, num_nodes, **overrides):
        return Scenario(
            workload=workload, num_nodes=num_nodes,
            num_opinions=3 if workload == "plurality" else 2, epsilon=0.3,
            engine="counts", num_trials=2, seed=0, **overrides,
        )

    @pytest.mark.parametrize("workload", ["plurality", "rumor"])
    def test_the_largest_population_runs_and_the_next_is_rejected(
        self, workload, monkeypatch
    ):
        with pytest.raises(ScenarioError) as rejected:
            simulate(self.scenario(workload, 10**16))
        assert f"the largest num_nodes that fits is {self.LARGEST}" in str(
            rejected.value
        )
        result = simulate(self.scenario(workload, self.LARGEST))
        assert (
            np.asarray(result.final_opinion_counts).sum(axis=1) == self.LARGEST
        ).all()
        assert result.successes.all()

        def no_draws(*args, **kwargs):
            raise AssertionError("a rejected point drew")

        monkeypatch.setattr(
            repro.core.protocol, "as_trial_generators", no_draws
        )
        with pytest.raises(ScenarioError, match=f"{self.LARGEST + 1} is too"):
            simulate(self.scenario(workload, self.LARGEST + 1))

    def test_faulty_nodes_count_toward_the_bound(self):
        """The schedule follows the honest n_h, but every one of the n
        nodes throws balls: n_h times the longest phase fits here, n times
        it does not."""
        scenario = self.scenario(
            "rumor", 35 * 10**14, faults=FaultModel(kind="crash", fraction=0.4)
        )
        honest = scenario.fault_split()[0].num_nodes
        schedule = ProtocolSchedule.for_population(honest, 0.3)
        longest = max(
            schedule.stage1.phase_lengths + schedule.stage2.phase_lengths
        )
        assert honest * longest <= 2**63 - 1 < scenario.num_nodes * longest
        with pytest.raises(ScenarioError, match="without faults"):
            simulate(scenario)

    def test_a_given_schedule_bounds_n_by_its_own_longest_phase(self, noise):
        schedule = ProtocolSchedule.for_population(10**6, EPSILON)
        longest = max(
            schedule.stage1.phase_lengths + schedule.stage2.phase_lengths
        )
        largest = (2**63 - 1) // longest
        with pytest.raises(ScenarioError, match=f"fits is {largest}$"):
            run_heterogeneous_counts_protocol([
                CountsProtocolTask(
                    num_nodes=largest + 1, noise=noise, schedule=schedule,
                    initial_state=CountsState([1, 0, 0], largest + 1),
                    num_trials=1, random_state=0,
                )
            ])
