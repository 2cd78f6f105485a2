"""Property-based tests for :class:`repro.sim.Scenario`.

Hypothesis generates random *valid* scenarios across the full
workload x engine x knob space and asserts the serialization contract
(``to_dict``/``from_dict`` is an exact identity and the dictionary is
plain JSON), then perturbs valid scenarios into every documented
rejection path and asserts the validation fires with an option-naming
message.  The example-based suite in ``test_scenario.py`` pins the
individual messages; this suite pins the *closure* of the contract under
random combinations.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamics import DYNAMICS_RULES
from repro.faults import FAULT_KINDS, FaultModel
from repro.network.delivery import DELIVERY_PROCESSES
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario
from repro.sim.scenario import ENGINE_POLICIES, TOPOLOGIES, WORKLOADS

# Keep k and sample_size inside the closed-form maj() table budget so
# h-majority combinations stay valid on every engine policy.
OPINIONS = st.integers(min_value=2, max_value=5)
SEEDS = st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1))


@st.composite
def fault_models(draw) -> FaultModel:
    """A valid :class:`FaultModel` (every kind runs on every sampling tier)."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    knobs = {
        "kind": kind,
        # Capped below 1/2 so at least one honest node always survives
        # the rounded split at every population size.
        "fraction": draw(
            st.floats(min_value=0.05, max_value=0.45, allow_nan=False)
        ),
    }
    if kind == "crash":
        knobs["crash_round"] = draw(st.integers(min_value=0, max_value=30))
    if kind == "omission":
        knobs["drop_rate"] = draw(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
        )
    return FaultModel(**knobs)


@st.composite
def valid_scenarios(draw) -> Scenario:
    workload = draw(st.sampled_from(WORKLOADS))
    num_opinions = draw(OPINIONS)
    num_nodes = draw(st.integers(min_value=num_opinions, max_value=3000))
    engine = draw(st.sampled_from(ENGINE_POLICIES))
    # The canonical channel needs eps <= 1 - 1/k for non-negative entries.
    epsilon = draw(
        st.floats(
            min_value=0.05,
            max_value=1.0 - 1.0 / num_opinions - 0.01,
            allow_nan=False,
        )
    )

    knobs = {
        "workload": workload,
        "num_nodes": num_nodes,
        "num_opinions": num_opinions,
        "epsilon": epsilon,
        "engine": engine,
        "num_trials": draw(st.integers(min_value=1, max_value=8)),
        "seed": draw(SEEDS),
        "correct_opinion": draw(
            st.integers(min_value=1, max_value=num_opinions)
        ),
        "bias": draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False)),
        "record_trajectories": draw(st.booleans()),
    }
    if draw(st.booleans()):
        knobs["noise"] = uniform_noise_matrix(num_opinions, epsilon)
    if engine == "auto" and draw(st.booleans()):
        knobs["counts_threshold"] = draw(
            st.integers(min_value=1, max_value=5000)
        )

    if workload == "dynamics":
        rules = DYNAMICS_RULES
        if engine == "analytic":
            # The phase-tagged approximate-consensus rule has no analytic
            # kernel; the pair is a documented rejection, not a scenario.
            rules = tuple(
                rule for rule in rules if rule != "approximate-consensus"
            )
        rule = draw(st.sampled_from(rules))
        knobs["rule"] = rule
        if rule == "h-majority":
            knobs["sample_size"] = draw(st.integers(min_value=3, max_value=20))
        knobs["max_rounds"] = draw(st.integers(min_value=1, max_value=500))
        knobs["stop_at_consensus"] = draw(st.booleans())
    else:
        knobs["round_scale"] = draw(st.sampled_from([0.5, 1.0, 2.0]))
        if engine in ("batched", "sequential"):
            knobs["process"] = draw(st.sampled_from(DELIVERY_PROCESSES))
            if draw(st.booleans()):
                knobs["sampling_method"] = draw(
                    st.sampled_from(["without_replacement", "with_replacement"])
                )
                knobs["use_full_multiset"] = draw(st.booleans())
        if engine == "sequential" and workload != "dynamics" and draw(
            st.booleans()
        ):
            knobs["topology"] = "random_regular"
            knobs["degree"] = draw(
                st.integers(min_value=1, max_value=max(1, num_nodes - 1))
            )
        if (
            engine != "analytic"
            and knobs.get("process", "push") == "push"
            and "topology" not in knobs
            and draw(st.booleans())
        ):
            knobs["faults"] = draw(fault_models())

    if workload in ("plurality", "dynamics"):
        if draw(st.booleans()):
            knobs["support_size"] = draw(
                st.integers(min_value=1, max_value=num_nodes)
            )
        if draw(st.booleans()):
            raw = draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=num_opinions,
                    max_size=num_opinions,
                )
            )
            total = sum(raw)
            knobs["shares"] = tuple(value / total for value in raw)
    return Scenario(**knobs)


class TestRoundTripProperties:
    @settings(max_examples=80, deadline=None)
    @given(scenario=valid_scenarios())
    def test_to_dict_from_dict_is_identity(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @settings(max_examples=80, deadline=None)
    @given(scenario=valid_scenarios())
    def test_to_dict_is_plain_json(self, scenario):
        document = scenario.to_dict()
        restored = Scenario.from_dict(json.loads(json.dumps(document)))
        # JSON forces tuples into lists; equality must survive the trip.
        assert restored == scenario

    @settings(max_examples=40, deadline=None)
    @given(scenario=valid_scenarios(), extra=st.text(min_size=1, max_size=12))
    def test_from_dict_rejects_unknown_fields(self, scenario, extra):
        document = scenario.to_dict()
        if extra in document:
            return
        document[extra] = 1
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict(document)


class TestOptionNamingProperties:
    """Every bad option name is rejected with the supported options named."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=valid_scenarios(), bogus=st.text(min_size=1, max_size=12))
    def test_bad_workload_names_the_options(self, scenario, bogus):
        if bogus in WORKLOADS:
            return
        document = {**scenario.to_dict(), "workload": bogus}
        document.update(
            rule=None, sample_size=None, max_rounds=300,
            stop_at_consensus=True, process="push", round_scale=1.0,
        )
        with pytest.raises(ValueError, match="workload must be one of"):
            Scenario.from_dict(document)

    @settings(max_examples=40, deadline=None)
    @given(scenario=valid_scenarios(), bogus=st.text(min_size=1, max_size=12))
    def test_bad_engine_names_the_options(self, scenario, bogus):
        if bogus in ENGINE_POLICIES:
            return
        with pytest.raises(ValueError, match="engine must be one of"):
            Scenario.from_dict({**scenario.to_dict(), "engine": bogus})

    @settings(max_examples=40, deadline=None)
    @given(scenario=valid_scenarios(), bogus=st.text(min_size=1, max_size=12))
    def test_bad_topology_names_the_options(self, scenario, bogus):
        if bogus in TOPOLOGIES:
            return
        with pytest.raises(ValueError, match="topology must be one of"):
            Scenario.from_dict({**scenario.to_dict(), "topology": bogus})


class TestCrossWorkloadKnobRejection:
    """Knobs of one workload family are rejected on the other."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=valid_scenarios(), rule=st.sampled_from(DYNAMICS_RULES))
    def test_rule_is_rejected_on_protocol_workloads(self, scenario, rule):
        if scenario.workload == "dynamics":
            return
        with pytest.raises(ValueError, match="rule only applies"):
            Scenario.from_dict({**scenario.to_dict(), "rule": rule})

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        max_rounds=st.integers(min_value=1, max_value=500).filter(
            lambda value: value != 300
        ),
    )
    def test_max_rounds_is_rejected_on_protocol_workloads(
        self, scenario, max_rounds
    ):
        if scenario.workload == "dynamics":
            return
        with pytest.raises(ValueError, match="max_rounds only applies"):
            Scenario.from_dict({**scenario.to_dict(), "max_rounds": max_rounds})

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        process=st.sampled_from(DELIVERY_PROCESSES).filter(
            lambda name: name != "push"
        ),
    )
    def test_process_is_rejected_on_dynamics(self, scenario, process):
        if scenario.workload != "dynamics":
            return
        with pytest.raises(ValueError, match="process only applies"):
            Scenario.from_dict({**scenario.to_dict(), "process": process})

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        round_scale=st.sampled_from([0.5, 2.0, 3.0]),
    )
    def test_round_scale_is_rejected_on_dynamics(self, scenario, round_scale):
        if scenario.workload != "dynamics":
            return
        with pytest.raises(ValueError, match="round_scale only applies"):
            Scenario.from_dict(
                {**scenario.to_dict(), "round_scale": round_scale}
            )

    @settings(max_examples=40, deadline=None)
    @given(scenario=valid_scenarios(), kind=st.sampled_from(FAULT_KINDS))
    def test_faults_are_rejected_on_dynamics(self, scenario, kind):
        if scenario.workload != "dynamics":
            return
        document = {
            **scenario.to_dict(),
            "faults": {"kind": kind, "fraction": 0.1},
        }
        with pytest.raises(ValueError, match="faults only apply"):
            Scenario.from_dict(document)

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        support=st.integers(min_value=1, max_value=100),
    )
    def test_support_size_is_rejected_on_rumor(self, scenario, support):
        if scenario.workload != "rumor":
            return
        with pytest.raises(ValueError, match="support_size only applies"):
            Scenario.from_dict({**scenario.to_dict(), "support_size": support})


class TestEngineKnobRejection:
    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        engine=st.sampled_from(["counts", "auto", "analytic"]),
    )
    def test_ablations_are_rejected_off_the_sampling_engines(
        self, scenario, engine
    ):
        if scenario.workload == "dynamics":
            return
        document = {
            **scenario.to_dict(),
            "engine": engine,
            "use_full_multiset": True,
            "topology": "complete",
            "degree": None,
        }
        document.pop("counts_threshold", None)
        with pytest.raises(ValueError, match="sampling ablations"):
            Scenario.from_dict(document)

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        engine=st.sampled_from(["counts", "auto"]),
    )
    def test_adaptive_is_valid_on_counts(self, scenario, engine):
        if scenario.workload == "dynamics":
            return
        document = {
            **scenario.to_dict(),
            "engine": engine,
            "faults": {"kind": "adaptive", "fraction": 0.1},
        }
        document.update(
            sampling_method="without_replacement", use_full_multiset=False,
            topology="complete", degree=None, process="push",
        )
        if engine != "auto":
            document.pop("counts_threshold", None)
        assert Scenario.from_dict(document).faults.kind == "adaptive"

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=valid_scenarios(),
        engine=st.sampled_from(
            ["sequential", "batched", "counts", "analytic"]
        ),
        threshold=st.integers(min_value=1, max_value=1000),
    )
    def test_counts_threshold_requires_auto(self, scenario, engine, threshold):
        document = {
            **scenario.to_dict(),
            "engine": engine,
            "counts_threshold": threshold,
        }
        document.update(
            sampling_method="without_replacement",
            use_full_multiset=False,
            topology="complete",
            degree=None,
        )
        with pytest.raises(ValueError, match="counts_threshold only applies"):
            Scenario.from_dict(document)
