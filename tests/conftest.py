import sys
from dataclasses import replace

import numpy as np
import pytest

from rcadmm.admm import initial_state


@pytest.fixture
def nan_first_run(monkeypatch):
    """Make a Monte Carlo study start run 0 from a NaN theta.

    Every cell of a run shares its start, so each solve of run 0 ends
    "numeric-failure" with no accepted step.  Returns the starts handed
    out, one per run.
    """
    starts = []

    def start(problem):
        state = initial_state(problem)
        if not starts:
            state = replace(state, theta=np.full(problem.l, np.nan))
        starts.append(state)
        return state

    monkeypatch.setattr("rcadmm.simulate.initial_state", start)
    return starts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the test summary.

    The acceptance module collects one line per criterion; repeating them
    here keeps the verdicts visible even when -v scrolls the captured
    stdout away.
    """
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None) if module else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
