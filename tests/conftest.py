"""Prints the acceptance verdict lines after the run, bypassing capture, and
holds the fixture that fails any test that asks an exact oracle."""

import sys

import pytest

from symcol import oracles


@pytest.fixture
def refuse_oracles(monkeypatch):
    """Fail the test at the first exact oracle search it starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle was asked")

    monkeypatch.setattr(oracles, "_solve", refuse)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "VERDICT_LINES", [])
            break
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance gates", sep="-")
    for line in lines:
        terminalreporter.write_line(line)
