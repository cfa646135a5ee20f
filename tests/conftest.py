"""Shared fixtures and the acceptance-criteria reporting hook."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    results: dict[str, bool] = {}
    for key in ("passed", "failed"):
        for report in terminalreporter.stats.get(key, []):
            if getattr(report, "when", None) != "call":
                continue
            if "test_acceptance" not in report.nodeid:
                continue
            results[report.nodeid] = key == "passed"
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(results):
        status = "PASS" if results[nodeid] else "FAIL"
        terminalreporter.write_line(f"{status}  {nodeid.split('::')[-1]}")
