import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from rcadmm import driver
from rcadmm.admm import AdmmIterate, initial_state
from rcadmm.penalty import MultiplicativePenalty, SelfAdaptivePenalty
from rcadmm.problem import assemble_problem
from rcadmm.simulate import default_scenario, simulate_relay


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
    sweep and ``extrapolated`` the point combined from them, split into
    ``(xi, w)``; both stay None when the loop took no Anderson step.
    """

    theta: np.ndarray
    mu: np.ndarray
    beta: float
    step: AdmmIterate
    alpha: np.ndarray | None = None
    extrapolated: tuple | None = None


class LoopSpy(list):
    """The `Sweep` entries of `driver.solve`, one per sweep in call order."""

    def per_row(self, records):
        """The sweep behind each row of ``records``, for a spy of one solve.

        A rejected row is followed by the forced row of the plain step
        from the recorded point.  When the rejected sweep did not start
        from an extrapolated point it already is that step, so both rows
        pair with it; otherwise the forced row pairs with the next sweep.
        Asserts that every sweep wrote a row, which a run that ended
        "numeric-failure" need not do.
        """
        paired, j = [], 0
        for i, record in enumerate(records):
            forced = i > 0 and record.accepted and not records[i - 1].accepted
            # The rejected sweep is self[j - 1]; the sweep before it records
            # the extrapolated point it handed on, if any.
            if forced and (j < 2 or self[j - 2].extrapolated is None):
                paired.append(self[j - 1])
            else:
                paired.append(self[j])
                j += 1
        assert j == len(self)
        return paired


@pytest.fixture
def loop_spy(monkeypatch):
    """Watch `driver.solve` at the calls its loop already makes.

    Wraps the sweep (`driver.admm_step`), the Anderson weights
    (`driver.anderson_coefficients`) and the extrapolation
    (`AndersonWindow.combine`) without changing a result.  Returns a
    `LoopSpy`, appended to as solves run; `LoopSpy.per_row` pairs its
    sweeps with the trace rows, of which a reused forced step writes two.
    """
    sweeps = LoopSpy()
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
        x = combine(window, alpha)
        d = sweeps[-1].theta.size + sweeps[-1].mu.size
        sweeps[-1].extrapolated = (x[:d], x[d:])
        return x

    monkeypatch.setattr(driver, "admm_step", sweep)
    monkeypatch.setattr(driver, "anderson_coefficients", weights)
    monkeypatch.setattr(driver.AndersonWindow, "combine", extrapolate)
    return sweeps


@pytest.fixture(scope="session")
def solver_sweeps():
    """The w-sweep inputs ``(problem, theta, lam_mat, beta)`` along solves.

    Every 4th sweep of 100-iteration accelerated self-adaptive and
    multiplicative solves at (l, n, r) = (60, 20, 8) and (120, 40, 8), on
    relay records of scenario seed 1 (200 s for the larger lift, as in
    the benchmark's large-lift workload).
    """
    inputs = []
    for l, n, duration in [(60, 20, 50.0), (120, 40, 200.0)]:
        data = simulate_relay(replace(default_scenario(1), duration=duration)).data
        problem = assemble_problem(data, l, n, 8)
        for strategy in (SelfAdaptivePenalty(), MultiplicativePenalty()):
            sweeps = []

            def sweep(problem, theta, mu, beta, admm_step=driver.admm_step):
                sweeps.append((problem, theta, problem.split_mu(mu)[0], beta))
                return admm_step(problem, theta, mu, beta)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(driver, "admm_step", sweep)
                driver.solve(problem, driver.DriverConfig(strategy=strategy, k_max=100))
            inputs += sweeps[::4]
    return inputs


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
