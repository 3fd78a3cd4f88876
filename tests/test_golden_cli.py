"""The golden CLI fixture, one test per case; `golden.py` holds the cases
and replays or records them without pytest."""

import json

import pytest

from golden import CASES, GOLDEN, record


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_golden_fixture(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    assert record(CASES[name], tmp_path) == golden[name]
