"""Shared exception types."""


class IllConditionedError(RuntimeError):
    """Matrix too close to rank deficiency for a reliable solve."""


class SensitivityUnavailable(RuntimeError):
    """No gap between sigma_r and sigma_{r+1}: the rank-r truncation is not
    differentiable there."""


class NumericFailure(RuntimeError):
    """The relay simulation diverged; only the simulator raises this.

    A solve never raises it: numerical breakdown ends the run with
    ``termination == "numeric-failure"``.
    """


class ConfigError(ValueError):
    """Invalid or incomplete run configuration; message names the offending key."""
