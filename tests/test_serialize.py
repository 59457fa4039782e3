"""CSV schemas and JSON config parsing."""

import csv
import json
import struct
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rcadmm.admm import REPORT_FIELDS
from rcadmm.driver import DriverConfig, IterationRecord
from rcadmm.errors import ConfigError
from rcadmm.penalty import (
    ConstantPenalty,
    MultiplicativePenalty,
    ResidualBasedPenalty,
    SelfAdaptivePenalty,
)
from rcadmm.serialize import (
    AVERAGES_HEADER,
    DATA_HEADER,
    STRATEGIES,
    TRACE_HEADER,
    cells_from_config,
    driver_config_from,
    problem_dims_from_config,
    scenario_from_config,
    solver_from_config,
    strategy_from_config,
    write_averages_csv,
    write_data_csv,
    write_trace_csv,
)
from rcadmm.simulate import (
    BenchmarkScenario,
    CellAverages,
    RelayConfig,
    SotdPlant,
    default_scenario,
    simulate_relay,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def sample_records():
    nan = float("nan")
    return [
        IterationRecord(
            iteration=1, beta=1.0, primal_sq=0.25, dual_sq=0.125, combined=0.375,
            objective=2.0, accepted=True, dldbeta=-0.0078125,
        ),
        IterationRecord(
            iteration=2, beta=1.05, primal_sq=0.2, dual_sq=0.1, combined=0.31,
            objective=1.9, accepted=False, dldbeta=nan,
        ),
        IterationRecord(
            iteration=2, beta=1.05, primal_sq=1e-17, dual_sq=3e-19,
            combined=1.0300000000000001e-17, objective=1.9, accepted=True, dldbeta=nan,
        ),
    ]


def sample_averages():
    return CellAverages(
        sums=np.array(
            [
                [2.0, 4.0, 0.0, 0.5],
                [6.0, 8.0, 0.0, 0.25],
                [1.0, 1.0, 0.0, 1.0],
                [2.0, 2.0, 0.0, 3.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        ),
        counts=np.array([2.0, 2.0, 0.0, 1.0]),
    )


class TestTraceCsv:
    def test_header_is_exact(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, sample_records(), run_id=7)
        first = path.read_text().splitlines()[0]
        assert first == "run_id,iter,beta,primal_sq,dual_sq,combined,objective,accepted,dldbeta"
        assert ",".join(TRACE_HEADER) == first

    def test_record_extends_report(self):
        names = tuple(f.name for f in fields(IterationRecord))
        assert names == REPORT_FIELDS + ("iteration", "accepted", "dldbeta")

    def test_record_fields_follow_header(self):
        # Each column after run_id and iter is written from the field it names.
        names = {f.name for f in fields(IterationRecord)}
        assert TRACE_HEADER[:2] == ["run_id", "iter"]
        assert all(column in names for column in TRACE_HEADER[2:])


SAMPLE_SIM = SimpleNamespace(
    t=np.array([0.0, 0.5]), u=np.array([1.0, -1.0]), y=np.array([0.1, -0.0078125])
)


@pytest.mark.parametrize(
    "write, text",
    [
        (
            lambda path: write_trace_csv(path, sample_records(), run_id=7),
            "run_id,iter,beta,primal_sq,dual_sq,combined,objective,accepted,dldbeta\n"
            "7,1,1.0,0.25,0.125,0.375,2.0,true,-0.0078125\n"
            "7,2,1.05,0.2,0.1,0.31,1.9,false,nan\n"
            "7,2,1.05,1e-17,3e-19,1.03e-17,1.9,true,nan\n",
        ),
        (
            lambda path: write_data_csv(path, SAMPLE_SIM),
            "t,u,y\n0.0,1.0,0.1\n0.5,-1.0,-0.0078125\n",
        ),
        (
            lambda path: write_averages_csv(path, sample_averages()),
            "iter,mean_primal_sq,mean_dual_sq,mean_beta\n"
            "1,1.0,3.0,1.0\n2,2.0,4.0,1.0\n4,0.5,0.25,3.0\n",
        ),
    ],
    ids=["trace", "data", "averages"],
)
def test_writers_golden_bytes(tmp_path, write, text):
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == text.encode()


def bits(value):
    return struct.pack("<d", value)


RECORDS = sample_records()
SIM = simulate_relay(replace(default_scenario(), duration=5.0, fine_step=0.05))
AVERAGES = sample_averages()


@pytest.mark.parametrize(
    "write, header, rows",
    [
        (
            lambda path: write_trace_csv(path, RECORDS, run_id=7),
            TRACE_HEADER,
            [
                (7, rec.iteration, rec.beta, rec.primal_sq, rec.dual_sq,
                 rec.combined, rec.objective, rec.accepted, rec.dldbeta)
                for rec in RECORDS
            ],
        ),
        (
            lambda path: write_data_csv(path, SIM),
            DATA_HEADER,
            list(zip(SIM.t, SIM.u, SIM.y)),
        ),
        (
            lambda path: write_averages_csv(path, AVERAGES),
            AVERAGES_HEADER,
            # Iteration 3 has no run, so it has no row.
            [
                (j + 1, AVERAGES.primal_sq[j], AVERAGES.dual_sq[j], AVERAGES.beta[j])
                for j in (0, 1, 3)
            ],
        ),
    ],
    ids=["trace", "data", "averages"],
)
def test_figures_read_back_exactly(tmp_path, write, header, rows):
    # float() of every written figure is the value written, bit for bit.
    path = tmp_path / "out.csv"
    write(path)
    with open(path, newline="") as fh:
        found_header, *found = csv.reader(fh)
    assert found_header == header
    assert len(found) == len(rows)
    for got_row, want_row in zip(found, rows):
        assert len(got_row) == len(want_row)
        for got, want in zip(got_row, want_row):
            if isinstance(want, bool):
                assert got == ("true" if want else "false")
            elif isinstance(want, int):
                assert int(got) == want
            else:
                assert bits(float(got)) == bits(want)


class TestStrategyConfig:
    def test_each_name_builds_right_type(self):
        assert isinstance(strategy_from_config({"strategy": "constant"}), ConstantPenalty)
        mult = strategy_from_config(
            {"strategy": "multiplicative", "rho": 1.1, "beta_max": 10.0}
        )
        assert isinstance(mult, MultiplicativePenalty)
        assert mult.rho == 1.1
        assert mult.beta_max == 10.0
        res = strategy_from_config({"strategy": "residual", "kappa": 5.0})
        assert isinstance(res, ResidualBasedPenalty)
        assert res.kappa == 5.0
        assert res.rho_inc == 1.02
        ada = strategy_from_config({"strategy": "self-adaptive"})
        assert isinstance(ada, SelfAdaptivePenalty)
        assert ada.rho_inc == 1.05

    def test_missing_strategy_names_key(self):
        with pytest.raises(ConfigError, match="solver.strategy"):
            strategy_from_config({})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="newton"):
            strategy_from_config({"strategy": "newton"})

    def test_invalid_solver_settings(self):
        with pytest.raises(ConfigError):
            driver_config_from({"strategy": "constant", "k_max": 0})

    def test_defaults_fill_in(self):
        assert driver_config_from({"strategy": "constant"}) == DriverConfig()

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_absent_keys_take_class_defaults(self, name):
        assert strategy_from_config({"strategy": name}) == STRATEGIES[name]()

    def test_unknown_keys_ignored(self):
        solver = {"strategy": "constant", "collect_states": True, "colour": "red"}
        assert driver_config_from(solver) == DriverConfig()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_acceleration_must_be_boolean(self, value):
        with pytest.raises(ConfigError, match="solver.acceleration"):
            driver_config_from({"strategy": "constant", "acceleration": value})

    @pytest.mark.parametrize(
        "key, value", [("k_max", 2.5), ("k_max", "50"), ("m_max", True), ("m_max", 5.0)]
    )
    def test_counts_must_be_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"solver.{key}"):
            driver_config_from({"strategy": "constant", key: value})


class TestScenarioConfig:
    def test_empty_config_gives_benchmark(self):
        assert scenario_from_config({}) == default_scenario()

    def test_overrides(self):
        scn = scenario_from_config(
            {
                "scenario": {
                    "duration": 10.0,
                    "fine_step": 0.05,
                    "seed": 4,
                    "relay": {"hysteresis": 0.0},
                }
            }
        )
        assert scn.duration == 10.0
        assert scn.seed == 4
        assert scn.relay.hysteresis == 0.0
        assert scn.plant == default_scenario().plant

    def test_seed_argument_wins(self):
        scn = scenario_from_config({"scenario": {"seed": 4}}, seed=9)
        assert scn.seed == 9

    def test_invalid_scenario_wrapped(self):
        with pytest.raises(ConfigError):
            scenario_from_config({"scenario": {"duration": -1.0}})

    def test_plant_arrays_become_tuples(self):
        scn = scenario_from_config({"scenario": {"plant": {"num": [0.3, 1.0]}}})
        assert scn.plant.num == (0.3, 1.0)
        assert scn.plant.den == default_scenario().plant.den
        with pytest.raises(ConfigError, match="scenario.plant"):
            scenario_from_config({"scenario": {"plant": {"den": None}}})

    @pytest.mark.parametrize("value", [1.5, "4", False])
    def test_seed_must_be_integer(self, value):
        with pytest.raises(ConfigError, match="scenario.seed"):
            scenario_from_config({"scenario": {"seed": value}})


class TestProblemAndCells:
    def test_missing_rank_names_key(self):
        with pytest.raises(ConfigError, match="problem.rank"):
            problem_dims_from_config({"problem": {"l": 60, "n": 20}})

    @pytest.mark.parametrize(
        "key, value", [("rank", 7.9), ("l", None), ("n", "20"), ("rank", True)]
    )
    def test_dims_must_be_integers(self, key, value):
        section = {"l": 60, "n": 20, "rank": 8, key: value}
        with pytest.raises(ConfigError, match=f"problem.{key}"):
            problem_dims_from_config({"problem": section})

    def test_dims_parsed(self):
        assert problem_dims_from_config(
            {"problem": {"l": 60, "n": 20, "rank": 8}}
        ) == (60, 20, 8)

    def test_cells_require_name_and_list(self):
        with pytest.raises(ConfigError, match="cells"):
            cells_from_config({})
        with pytest.raises(ConfigError, match=r"cells\[0\].name"):
            cells_from_config({"cells": [{"solver": {"strategy": "constant"}}]})

    @pytest.mark.parametrize("raw", [5, True, {"name": "a"}, [5], ["name"]])
    def test_cells_must_be_list_of_objects(self, raw):
        with pytest.raises(ConfigError, match="list of objects"):
            cells_from_config({"cells": raw})

    @pytest.mark.parametrize("name", [["a"], None, 3, {"a": 1}])
    def test_cell_name_must_be_string(self, name):
        cell = {"name": name, "solver": {"strategy": "constant"}}
        with pytest.raises(ConfigError, match=r"cells\[0\].name must be a string"):
            cells_from_config({"cells": [cell]})

    def test_duplicate_cell_names(self):
        cell = {"name": "a", "solver": {"strategy": "constant"}}
        with pytest.raises(ConfigError, match="unique"):
            cells_from_config({"cells": [cell, dict(cell)]})

    def test_cells_built(self):
        cells = cells_from_config(
            {
                "cells": [
                    {"name": "a", "solver": {"strategy": "constant", "beta0": 10.0}},
                    {"name": "b", "solver": {"strategy": "self-adaptive"}},
                ]
            }
        )
        assert [c.name for c in cells] == ["a", "b"]
        assert cells[0].config.beta0 == 10.0
        assert isinstance(cells[1].config.strategy, SelfAdaptivePenalty)


BAD_SECTIONS = [
    ("scenario", scenario_from_config, {"scenario": 3}),
    ("scenario.plant", scenario_from_config, {"scenario": {"plant": 3}}),
    ("scenario.relay", scenario_from_config, {"scenario": {"relay": [1.0]}}),
    ("solver", solver_from_config, {"solver": "constant"}),
    ("problem", problem_dims_from_config, {"problem": [60, 20, 8]}),
    ("cells[0].solver", cells_from_config, {"cells": [{"name": "a", "solver": [1]}]}),
]


@pytest.mark.parametrize("label, parse, cfg", BAD_SECTIONS, ids=[c[0] for c in BAD_SECTIONS])
def test_bad_section_named_by_path(label, parse, cfg):
    with pytest.raises(ConfigError) as info:
        parse(cfg)
    assert str(info.value) == f"section {label} must be an object"


def field_names(*types):
    return {f.name for t in types for f in fields(t)}


def unread_keys(cfg):
    """The keys of a config or bench spec that no parser reads, as dotted paths."""
    scenario = cfg.get("scenario", {})
    sections = [
        ("", cfg, {"scenario", "problem", "solver", "runs", "base_seed", "cells"}),
        ("scenario", scenario, field_names(BenchmarkScenario)),
        ("scenario.plant", scenario.get("plant", {}), field_names(SotdPlant)),
        ("scenario.relay", scenario.get("relay", {}), field_names(RelayConfig)),
        ("problem", cfg.get("problem", {}), {"l", "n", "rank"}),
    ]
    solvers = [("solver", cfg.get("solver", {}))]
    for idx, cell in enumerate(cfg.get("cells", [])):
        sections.append((f"cells[{idx}]", cell, {"name", "solver"}))
        solvers.append((f"cells[{idx}].solver", cell.get("solver", {})))
    for path, solver in solvers:
        strategy = STRATEGIES.get(solver.get("strategy"), ConstantPenalty)
        sections.append((path, solver, field_names(DriverConfig, strategy)))
    return {
        f"{path}.{key}" if path else key
        for path, section, known in sections
        for key in set(section) - known
    }


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda path: path.name
)
def test_bundled_configs_name_only_read_keys(path):
    # Unknown keys are ignored, so a key left behind by a renamed field
    # would silently fall back to its default.
    assert unread_keys(json.loads(path.read_text())) == set()


def test_misspelled_key_is_unread():
    cfg = json.loads((CONFIG_DIR / "bench_residual.json").read_text())
    cfg["cells"][2]["solver"]["rho_decr"] = cfg["cells"][2]["solver"].pop("rho_dec")
    cfg["scenario"]["relay"] = {"hysteresys": 0.0}
    assert unread_keys(cfg) == {"cells[2].solver.rho_decr", "scenario.relay.hysteresys"}
