"""CLI contract: exit codes, --select, --list-rules, report selection."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import rule_ids
from repro.analysis.lint.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"


def test_exit_zero_on_clean_tree(capsys):
    code = main([str(FIXTURES / "good_rng.py")])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 findings in 1 files" in out


def test_exit_one_on_findings(capsys):
    code = main([str(FIXTURES / "bad_rng.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "no-global-rng" in out
    assert out.strip().endswith("3 findings in 1 files")


def test_exit_two_on_missing_path(capsys):
    code = main([str(FIXTURES / "does_not_exist.py")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_unknown_rule(capsys):
    code = main([str(FIXTURES / "good_rng.py"), "--select", "no-such-rule"])
    assert code == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_exit_two_on_no_paths(capsys):
    assert main([]) == 2


def test_exit_two_on_unparsable_source(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n")
    assert main([str(broken)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_select_filters_rules(capsys):
    code = main(
        [
            str(FIXTURES / "bad_rng.py"),
            str(FIXTURES / "bad_dtype.py"),
            "--select",
            "int64-dtype-pin",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "int64-dtype-pin" in out
    assert "no-global-rng" not in out


def test_json_format(capsys):
    code = main([str(FIXTURES / "bad_dtype.py"), "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert [f["rule"] for f in document["findings"]] == [
        "int64-dtype-pin",
        "int64-dtype-pin",
    ]


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in rule_ids():
        assert rule_id in out
    # At least the six repo-specific rules ship.
    assert len(rule_ids()) >= 6


@pytest.mark.parametrize(
    "expected_rule",
    [
        "no-global-rng",
        "counts-tier-n-free",
        "int64-dtype-pin",
        "no-wallclock-nondeterminism",
        "serialization-contract",
        "experiment-registry-completeness",
    ],
)
def test_required_rules_registered(expected_rule):
    assert expected_rule in rule_ids()
