"""Meta-test: no registered rule can land half-tested.

Every rule in the registry must ship with both a firing and a clean
fixture under ``tests/statcheck/fixtures/`` (named ``<id>_fires.py`` /
``<id>_clean.py``) and must be discoverable through ``--list-rules``.
The pseudo-rules E001 (parse errors) and SUP001 (unjustified
suppressions) are emitted by the engine itself, not registered, so they
are exempt by construction.
"""

import os

import pytest

from repro.statcheck.cli import EXIT_CLEAN, main
from repro.statcheck.registry import all_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

RULE_IDS = sorted(cls.id for cls in all_rules())


def test_registry_is_the_expected_size():
    # bump deliberately when adding a rule -- with its fixtures and docs
    assert len(RULE_IDS) == 14


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_rule_has_a_firing_fixture(rule_id):
    path = os.path.join(FIXTURES, f"{rule_id.lower()}_fires.py")
    assert os.path.isfile(path), (
        f"{rule_id} has no firing fixture {os.path.basename(path)}"
    )


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_rule_has_a_clean_fixture(rule_id):
    path = os.path.join(FIXTURES, f"{rule_id.lower()}_clean.py")
    assert os.path.isfile(path), (
        f"{rule_id} has no clean fixture {os.path.basename(path)}"
    )


def test_every_rule_appears_in_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    listed = {
        line.split()[0] for line in out.splitlines() if line[:1].strip()
    }
    missing = set(RULE_IDS) - listed
    assert not missing, f"rules absent from --list-rules: {sorted(missing)}"


def test_rule_ids_are_unique_and_well_formed():
    assert len(RULE_IDS) == len(set(RULE_IDS))
    for rule_id in RULE_IDS:
        prefix = rule_id.rstrip("0123456789")
        assert prefix and prefix.isupper(), rule_id
        assert rule_id[len(prefix):].isdigit(), rule_id
