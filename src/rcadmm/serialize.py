"""File formats: trace/averages/data CSV schemas and JSON config parsing.

Each CSV file is its fixed header row, then one row per entry, written
by `_write_rows`.  Floats are written with repr() so `float()` reads
every value back exactly and reruns can be compared byte for byte; flags
are `true`/`false`.  The trace schema is fixed: changing it breaks
downstream plotting, so the header is asserted in tests.

JSON configs: the keys of a section are the fields of the type it builds
(DriverConfig and the strategy classes for `solver`, and the scenario,
plant and relay types of default_scenario()); absent keys take that
type's defaults, and a bad value raises ConfigError naming it.
"""

import csv
import json
from dataclasses import fields, replace

import numpy as np

from .driver import DriverConfig
from .errors import ConfigError
from .penalty import (
    ConstantPenalty,
    MultiplicativePenalty,
    ResidualBasedPenalty,
    SelfAdaptivePenalty,
)
from .simulate import ExperimentCell, default_scenario

TRACE_HEADER = [
    "run_id",
    "iter",
    "beta",
    "primal_sq",
    "dual_sq",
    "combined",
    "objective",
    "accepted",
    "dldbeta",
]

AVERAGES_HEADER = ["iter", "mean_primal_sq", "mean_dual_sq", "mean_beta"]

DATA_HEADER = ["t", "u", "y"]


def _fmt(value):
    return repr(float(value))


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value):
    return ("true" if value else "false") if isinstance(value, bool) else _fmt(value)


def _trace_row(run_id, rec):
    # Each column after run_id and iter is the IterationRecord field it names.
    return [run_id, rec.iteration, *(_cell(getattr(rec, name)) for name in TRACE_HEADER[2:])]


def write_trace_csv(path, records, run_id=0):
    _write_rows(path, TRACE_HEADER, (_trace_row(run_id, rec) for rec in records))


def write_data_csv(path, sim):
    _write_rows(path, DATA_HEADER, (map(_fmt, row) for row in zip(sim.t, sim.u, sim.y)))


def write_averages_csv(path, averages):
    """Average trajectory for one cell; rows without any run are dropped."""
    means = (averages.primal_sq, averages.dual_sq, averages.beta)
    rows = ([j + 1, *(_fmt(m[j]) for m in means)] for j in np.flatnonzero(averages.counts))
    _write_rows(path, AVERAGES_HEADER, rows)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


# Keys whose JSON type the constructors would not catch: a float or a
# boolean passes as a count, and any non-empty string passes as a switch.
INTEGER_KEYS = {"k_max", "m_max", "runs", "base_seed", "seed", "l", "n", "rank"}
BOOLEAN_KEYS = {"acceleration"}

STRATEGIES = {
    "constant": ConstantPenalty,
    "multiplicative": MultiplicativePenalty,
    "residual": ResidualBasedPenalty,
    "self-adaptive": SelfAdaptivePenalty,
}


def _label(path, key):
    return f"{path}.{key}" if path else key


def _value(section, key, path):
    """section[key], type-checked for typed keys; JSON arrays become tuples."""
    value = section[key]
    if key in INTEGER_KEYS and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{_label(path, key)} must be an integer: got {value!r}")
    if key in BOOLEAN_KEYS and not isinstance(value, bool):
        raise ConfigError(f"{_label(path, key)} must be true or false: got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _require(section, key, path):
    if key not in section:
        raise ConfigError(f"missing key: {_label(path, key)}")
    return _value(section, key, path)


def _section(cfg, key, path=""):
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {_label(path, key)} must be an object")
    return value


def _settings(section, keys, path):
    return {key: _value(section, key, path) for key in keys if key in section}


def _build(default, section, path, **fixed):
    """`default` with its fields present in section, then `fixed`, replaced.

    Every field name of the type built is a key; absent keys keep its
    defaults, and a value it rejects becomes a ConfigError naming path.
    """
    keys = [f.name for f in fields(default)]
    settings = {**_settings(section, keys, path), **fixed}
    try:
        return replace(default, **settings)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {path} settings: {exc}") from exc


def strategy_from_config(solver, path="solver"):
    name = _require(solver, "strategy", path)
    cls = STRATEGIES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(
            f"{path}.strategy must be one of {', '.join(STRATEGIES)}: got {name!r}"
        )
    return _build(cls(), solver, path)


def driver_config_from(solver, path="solver"):
    strategy = strategy_from_config(solver, path)
    return _build(DriverConfig(), solver, path, strategy=strategy)


def scenario_from_config(cfg, seed=None):
    section = _section(cfg, "scenario")
    base = default_scenario()
    plant = _build(base.plant, _section(section, "plant", "scenario"), "scenario.plant")
    relay = _build(base.relay, _section(section, "relay", "scenario"), "scenario.relay")
    fixed = {"plant": plant, "relay": relay}
    if seed is not None:
        fixed["seed"] = seed
    return _build(base, section, "scenario", **fixed)


def solver_from_config(cfg):
    return driver_config_from(_section(cfg, "solver"))


def study_from_config(spec):
    """The `monte_carlo` keywords of a bench spec: `runs`, and `base_seed` if set."""
    return {"runs": _require(spec, "runs", ""), **_settings(spec, ("base_seed",), "")}


def problem_dims_from_config(cfg):
    section = _section(cfg, "problem")
    return tuple(_require(section, key, "problem") for key in ("l", "n", "rank"))


def cells_from_config(cfg, path="cells"):
    raw = cfg.get("cells")
    if not raw:
        raise ConfigError(f"missing key: {path}")
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ConfigError(f"{path} must be a list of objects")
    cells = []
    for idx, entry in enumerate(raw):
        name = _require(entry, "name", f"{path}[{idx}]")
        if not isinstance(name, str):
            raise ConfigError(f"{path}[{idx}].name must be a string: got {name!r}")
        solver = _section(entry, "solver", f"{path}[{idx}]")
        cells.append(
            ExperimentCell(
                name=name,
                config=driver_config_from(solver, f"{path}[{idx}].solver"),
            )
        )
    names = [cell.name for cell in cells]
    if len(set(names)) != len(names):
        raise ConfigError("cell names must be unique")
    return cells
