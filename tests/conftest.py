import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from rcadmm import driver
from rcadmm.admm import AdmmIterate, initial_state


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


@dataclass
class Sweep:
    """One sweep of `driver.solve` and what the loop made of it.

    ``theta``, ``mu`` and ``beta`` are the sweep's input and ``step`` its
    output.  ``alpha`` holds the Anderson weights formed after an accepted
    sweep and ``extrapolated`` the ``(xi, w)`` point combined from them;
    both stay None when the loop took no Anderson step.
    """

    theta: np.ndarray
    mu: np.ndarray
    beta: float
    step: AdmmIterate
    alpha: np.ndarray | None = None
    extrapolated: tuple | None = None


@pytest.fixture
def loop_spy(monkeypatch):
    """Watch `driver.solve` at the calls its loop already makes.

    Wraps the sweep (`driver.admm_step`), the Anderson weights
    (`driver.anderson_coefficients`) and the extrapolation
    (`AndersonWindow.combine`) without changing a result.  Returns the
    list of `Sweep` entries, one per sweep in call order, appended to as
    solves run.  Each sweep writes one trace row, so the list pairs with
    `SolveResult.records` unless the run ended "numeric-failure".
    """
    sweeps = []
    admm_step = driver.admm_step
    anderson_coefficients = driver.anderson_coefficients
    combine = driver.AndersonWindow.combine

    def sweep(problem, theta, mu, beta):
        step = admm_step(problem, theta, mu, beta)
        sweeps.append(Sweep(theta, mu, beta, step))
        return step

    def weights(diffs, eta):
        sweeps[-1].alpha = anderson_coefficients(diffs, eta)
        return sweeps[-1].alpha

    def extrapolate(window, alpha):
        sweeps[-1].extrapolated = combine(window, alpha)
        return sweeps[-1].extrapolated

    monkeypatch.setattr(driver, "admm_step", sweep)
    monkeypatch.setattr(driver, "anderson_coefficients", weights)
    monkeypatch.setattr(driver.AndersonWindow, "combine", extrapolate)
    return sweeps


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
