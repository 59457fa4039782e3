"""Range checks of the configuration types reject NaN, and infinity
where a value sets a sample count, a noise level, the starting penalty,
the stopping tolerance, a penalty factor or the kernel prior.

Each check is written ``not x > bound`` (or ``>=``), which NaN fails,
rather than ``x <= bound``, which NaN passes; Python's ``json`` reads a
bare ``NaN`` or ``Infinity``, so a config file can carry one.  An
infinite duration, sample period or plant delay would overflow the
rounding to whole steps, and an infinite noise variance would write an
infinite output; an infinite beta0 makes the first sweep all NaN, and
an infinite eps_tol stops every run after one iteration.  An infinite
relay amplitude overflows the plant output, and an infinite hysteresis
never lets the relay switch.  An infinite penalty factor sends beta to
its clamp at the first change, and an infinite kernel gamma or scale
zeroes or drops the prior.
"""

from dataclasses import replace

import numpy as np
import pytest

from rcadmm.driver import DriverConfig
from rcadmm.penalty import MultiplicativePenalty, ResidualBasedPenalty, SelfAdaptivePenalty
from rcadmm.problem import KernelConfig, RegressionData
from rcadmm.simulate import RelayConfig, default_scenario

NAN = float("nan")
INF = float("inf")
SCENARIO = default_scenario()

CASES = [
    (DriverConfig(), "beta0", NAN),
    (DriverConfig(), "eps_tol", NAN),
    (MultiplicativePenalty(), "rho", NAN),
    (MultiplicativePenalty(), "beta_max", NAN),
    (ResidualBasedPenalty(), "kappa", NAN),
    (ResidualBasedPenalty(), "rho_inc", NAN),
    (ResidualBasedPenalty(), "rho_dec", NAN),
    (SelfAdaptivePenalty(), "rho_inc", NAN),
    (SelfAdaptivePenalty(), "rho_dec", NAN),
    (KernelConfig(), "gamma", NAN),
    (KernelConfig(), "scale", NAN),
    (RelayConfig(), "amplitude", NAN),
    (RelayConfig(), "hysteresis", NAN),
    (SCENARIO, "noise_var", NAN),
    # min() of a tuple with NaN in the middle ignores it.
    (SCENARIO.plant, "den", (1.5, NAN, 1.0)),
    (SCENARIO.plant, "delay", NAN),
    (SCENARIO, "duration", INF),
    (SCENARIO, "dt", INF),
    (SCENARIO, "noise_var", INF),
    (SCENARIO.plant, "delay", INF),
    (DriverConfig(), "beta0", INF),
    (DriverConfig(), "eps_tol", INF),
    (RelayConfig(), "amplitude", INF),
    (RelayConfig(), "hysteresis", INF),
    (MultiplicativePenalty(), "rho", INF),
    (MultiplicativePenalty(), "beta_max", INF),
    (ResidualBasedPenalty(), "kappa", INF),
    (ResidualBasedPenalty(), "rho_inc", INF),
    (ResidualBasedPenalty(), "rho_dec", INF),
    (SelfAdaptivePenalty(), "rho_inc", INF),
    (KernelConfig(), "gamma", INF),
    (KernelConfig(), "scale", INF),
]


@pytest.mark.parametrize(
    "default, key, value",
    CASES,
    ids=[
        f"{type(default).__name__}.{key}" + ("-inf" if value == INF else "")
        for default, key, value in CASES
    ],
)
def test_nan_rejected(default, key, value):
    with pytest.raises(ValueError):
        replace(default, **{key: value})


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_scenario_seed_rejected(seed):
    # numpy's generator would reject it later, without naming the key.
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        replace(SCENARIO, seed=seed)


def test_empty_record_rejected():
    # A 0 x l regressor would give an all-zero kernel start, and least
    # squares would fail as "normal matrix is singular".
    with pytest.raises(ValueError, match="empty data record"):
        RegressionData(np.zeros(0), np.zeros(0))
