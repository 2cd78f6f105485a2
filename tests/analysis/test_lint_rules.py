"""Fixture-driven tests: every reprolint rule catches its violating
fixture at the exact location and stays silent on the conforming one."""

from pathlib import Path
from typing import List, Tuple

import pytest

from repro.analysis.lint import Finding, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint(*names: str) -> List[Finding]:
    findings, files_scanned = run_lint([str(FIXTURES / name) for name in names])
    assert files_scanned >= len(names)
    return findings


def locations(findings: List[Finding]) -> List[Tuple[str, int]]:
    return [(finding.rule, finding.line) for finding in findings]


# --------------------------------------------------------------------- #
# One violating + one conforming fixture per rule
# --------------------------------------------------------------------- #

RULE_CASES = [
    pytest.param(
        "bad_rng.py",
        "good_rng.py",
        [("no-global-rng", 3), ("no-global-rng", 9), ("no-global-rng", 10)],
        id="no-global-rng",
    ),
    pytest.param(
        "bad_counts_tier.py",
        "good_counts_tier.py",
        [("counts-tier-n-free", 8)],
        id="counts-tier-n-free",
    ),
    pytest.param(
        "bad_dtype.py",
        "good_dtype.py",
        [("int64-dtype-pin", 7), ("int64-dtype-pin", 12)],
        id="int64-dtype-pin",
    ),
    pytest.param(
        "bad_wallclock.py",
        "benchmarks/good_wallclock.py",
        [
            ("no-wallclock-nondeterminism", 8),
            ("no-wallclock-nondeterminism", 9),
        ],
        id="no-wallclock-nondeterminism",
    ),
    pytest.param(
        "bad_serialization.py",
        "good_serialization.py",
        [("serialization-contract", 10), ("serialization-contract", 27)],
        id="serialization-contract",
    ),
]


@pytest.mark.parametrize("bad_name, good_name, expected", RULE_CASES)
def test_rule_catches_violating_fixture(bad_name, good_name, expected):
    findings = lint(bad_name)
    assert locations(findings) == expected
    for finding in findings:
        assert finding.file.endswith(bad_name)
        assert finding.message


@pytest.mark.parametrize("bad_name, good_name, expected", RULE_CASES)
def test_rule_passes_conforming_fixture(bad_name, good_name, expected):
    assert lint(good_name) == []


def test_counts_tier_rule_covers_merged_dynamics_loop(tmp_path):
    """The merged counts-dynamics round loop carries the counts-tier marker:
    an n-sized allocation injected into it is flagged."""
    import repro.dynamics.base as dynamics_base

    source = Path(dynamics_base.__file__).read_text()
    anchor = source.index(
        "    live = list(range(len(tasks)))\n",
        source.index("def _run_merged_counts_group("),
    )
    injected = (
        source[:anchor] + "    np.zeros(num_nodes)\n" + source[anchor:]
    )
    target = tmp_path / "base.py"
    target.write_text(injected)
    findings, _ = run_lint([str(target)], select=["counts-tier-n-free"])
    assert locations(findings) == [
        ("counts-tier-n-free", source.count("\n", 0, anchor) + 1)
    ]


# --------------------------------------------------------------------- #
# The cross-file rule needs its package fixture directories
# --------------------------------------------------------------------- #

def test_registry_rule_catches_missing_import():
    findings, _ = run_lint([str(FIXTURES / "registry_bad")])
    assert locations(findings) == [("experiment-registry-completeness", 1)]
    (finding,) = findings
    assert finding.file.endswith("registry_bad/experiments/__init__.py")
    assert "exp_missing" in finding.message


def test_registry_rule_passes_complete_package():
    findings, _ = run_lint([str(FIXTURES / "registry_good")])
    assert findings == []


def test_registry_rule_scopes_packages_independently():
    # Linting both packages in one run must only flag the bad one.
    findings, _ = run_lint(
        [str(FIXTURES / "registry_bad"), str(FIXTURES / "registry_good")]
    )
    assert [finding.file for finding in findings] == [
        str(FIXTURES / "registry_bad" / "experiments" / "__init__.py")
    ]


# --------------------------------------------------------------------- #
# Suppressions are honored, line-scoped
# --------------------------------------------------------------------- #

def test_suppression_silences_only_its_line():
    findings = lint("suppressed.py")
    assert locations(findings) == [("int64-dtype-pin", 13)]


def test_select_restricts_to_named_rules():
    findings, _ = run_lint(
        [str(FIXTURES / "bad_rng.py"), str(FIXTURES / "bad_dtype.py")],
        select=["no-global-rng"],
    )
    assert {finding.rule for finding in findings} == {"no-global-rng"}


# --------------------------------------------------------------------- #
# Whole-tree sweep: the fixture set is the rule-by-rule ground truth
# --------------------------------------------------------------------- #

def test_fixture_tree_totals():
    findings, _ = run_lint([str(FIXTURES)])
    by_rule: dict = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    assert by_rule == {
        "no-global-rng": 3,
        "counts-tier-n-free": 1,
        "int64-dtype-pin": 3,  # bad_dtype (2) + suppressed.py line 13
        "no-wallclock-nondeterminism": 2,
        "serialization-contract": 2,
        "experiment-registry-completeness": 1,
    }
