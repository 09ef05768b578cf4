"""The pinned answers of ``tests/cli_cases.py``: ``eval``, ``reproduce``,
``curve`` and ``regularity`` on the catalog masks, ``eval`` and ``curve`` on
one asymmetric mask, ``derive`` and ``verify`` on a slice of the design grid,
and ``sweep`` and ``sweep --bisect`` along three one-parameter families.

Each test runs the cases of one mask, derive chain or family through
``tests/test_cli.py``'s in-process runner.
"""

import pytest

import cli_cases
from test_cli import run_in_process


def _run_group(name, tmp_path, capsys):
    for case in cli_cases.GOLDEN[name]:
        run_in_process(case, tmp_path, capsys)


@pytest.mark.parametrize("name", cli_cases.CATALOG)
def test_outputs_match_the_recorded_bytes(name, tmp_path, capsys):
    _run_group(name, tmp_path, capsys)


def test_asymmetric_outputs_match_the_recorded_bytes(tmp_path, capsys):
    _run_group("asymmetric", tmp_path, capsys)


@pytest.mark.parametrize("name", cli_cases.DERIVE_CHAINS)
def test_derive_and_verify_match_the_recorded_bytes(name, tmp_path, capsys):
    _run_group(name, tmp_path, capsys)


@pytest.mark.parametrize("name", cli_cases.SWEEPS)
def test_sweeps_match_the_recorded_bytes(name, tmp_path, capsys):
    _run_group(name, tmp_path, capsys)
