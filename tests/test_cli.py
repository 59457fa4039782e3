"""End-to-end command-line behavior: exit codes, files, determinism."""

import csv
import json

import numpy as np
import pytest

from rcadmm.cli import main
from rcadmm.simulate import monte_carlo
import rcadmm.serialize as serialize


TINY_SCENARIO = {"duration": 10.0, "fine_step": 0.05, "seed": 3}
TINY_PROBLEM = {"l": 8, "n": 3, "rank": 2}
FINAL_NAMES = ("primal_sq", "dual_sq", "combined", "beta", "objective")


def read_rows(path):
    """The rows of a CSV output as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def solve_config(tmp_path, **solver):
    solver.setdefault("strategy", "self-adaptive")
    solver.setdefault("beta0", 1.0)
    solver.setdefault("eps_tol", 1e-300)
    solver.setdefault("k_max", 15)
    cfg = {"problem": dict(TINY_PROBLEM), "solver": solver, "scenario": dict(TINY_SCENARIO)}
    return write_config(tmp_path / "solve.json", cfg)


class TestSolveCommand:
    def test_budget_exhaustion_exits_2(self, tmp_path):
        cfg = solve_config(tmp_path)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        rows = read_rows(tmp_path / "out" / "trace.csv")
        accepted = [row for row in rows if row["accepted"] == "true"]
        assert len(accepted) == 16
        assert {row["run_id"] for row in rows} == {"3"}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["termination"] == "max_iterations"
        assert len(summary["theta"]) == 8
        assert summary["wall_time_s"] > 0.0
        assert summary["final_combined"] == float(accepted[-1]["combined"])
        assert set(summary) == {"termination", "iterations", "wall_time_s", "theta"} | {
            f"final_{name}" for name in FINAL_NAMES
        }

    def test_tolerance_exits_0(self, tmp_path):
        cfg = solve_config(
            tmp_path,
            strategy="multiplicative",
            rho=1.1,
            beta_max=100.0,
            eps_tol=1e-8,
            k_max=200,
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["termination"] == "tolerance"
        assert summary["final_combined"] < 1e-8

    def test_missing_rank_exits_1_naming_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.json",
            {"problem": {"l": 8, "n": 3}, "solver": {"strategy": "constant"}},
        )
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "problem.rank" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "oops.json"
        path.write_text("{not json")
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver", "beta0", "1"),
            ("solver", "rho_inc", "1.1"),
            ("solver", "m_max", None),
            ("problem", "l", None),
        ],
    )
    def test_mistyped_value_exits_1(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(open(solve_config(tmp_path)).read())
        cfg[section][key] = value
        path = write_config(tmp_path / "typo.json", cfg)
        rc = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_nan_tolerance_exits_1(self, tmp_path, capsys):
        # json reads a bare NaN; the range check must not let it through.
        cfg = solve_config(tmp_path, eps_tol=float("nan"))
        assert "NaN" in (tmp_path / "solve.json").read_text()
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid solver settings")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["beta0", "eps_tol"])
    def test_infinite_solver_value_exits_1(self, tmp_path, capsys, key):
        # An infinite beta0 wrote an all-NaN row; an infinite eps_tol
        # stopped after one iteration and exited 0.
        cfg = solve_config(tmp_path, **{key: float("inf")})
        assert "Infinity" in (tmp_path / "solve.json").read_text()
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: invalid solver settings: {key} must be positive and finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "strategy, key",
        [("self-adaptive", "rho_inc"), ("multiplicative", "rho"), ("residual", "kappa")],
    )
    def test_infinite_penalty_factor_exits_1(self, tmp_path, capsys, strategy, key):
        # An infinite factor sent beta to its clamp at the first change
        # and the run ended by its budget, with no error.
        cfg = solve_config(tmp_path, strategy=strategy, **{key: float("inf")})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid solver settings: ")
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        cfg = solve_config(tmp_path)
        rc = main(["solve", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid scenario settings: seed must be nonnegative")
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "list.json", [TINY_PROBLEM])
        rc = main(["solve", "--config", path, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_override_is_byte_identical(self, tmp_path):
        cfg = solve_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["solve", "--config", cfg, "--seed", "7", "--out", str(out)])
            assert rc == 2
            outs.append(out)
        first = (outs[0] / "trace.csv").read_bytes()
        second = (outs[1] / "trace.csv").read_bytes()
        assert first == second
        # The summary differs only in measured wall time.
        summaries = []
        for out in outs:
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("wall_time_s")
            summaries.append(summary)
        assert summaries[0] == summaries[1]

    def test_seed_changes_data(self, tmp_path):
        cfg = solve_config(tmp_path)
        out_a, out_b = tmp_path / "s7", tmp_path / "s8"
        main(["solve", "--config", cfg, "--seed", "7", "--out", str(out_a)])
        main(["solve", "--config", cfg, "--seed", "8", "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


def bench_spec(tmp_path, runs=2):
    spec = {
        "scenario": dict(TINY_SCENARIO),
        "problem": dict(TINY_PROBLEM),
        "runs": runs,
        "base_seed": 11,
        "cells": [
            {
                "name": "const-beta1",
                "solver": {"strategy": "constant", "eps_tol": 1e-300, "k_max": 6},
            },
            {
                "name": "self-adaptive",
                "solver": {"strategy": "self-adaptive", "eps_tol": 1e-300, "k_max": 6},
            },
        ],
    }
    return write_config(tmp_path / "bench.json", spec)


class TestBenchCommand:
    def test_writes_averages_and_summary(self, tmp_path):
        spec = bench_spec(tmp_path)
        out = tmp_path / "results"
        rc = main(["bench", "--spec", spec, "--jobs", "1", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"const-beta1", "self-adaptive"}
        for cell in summary.values():
            assert set(cell) == {"runs", "failures", "mean_theta_error"} | {
                f"mean_final_{name}" for name in FINAL_NAMES
            }
            assert cell["runs"] == 2
            assert cell["failures"] == 0
            assert cell["mean_final_combined"] > 0.0
            assert np.isfinite(cell["mean_theta_error"])
        rows = read_rows(out / "const-beta1_mean.csv")
        assert [row["iter"] for row in rows] == [str(j) for j in range(1, 8)]

    def test_failed_run_left_out_of_final_means(self, tmp_path, nan_first_run):
        spec_path = bench_spec(tmp_path, runs=3)
        spec = json.loads(open(spec_path).read())
        scn = serialize.scenario_from_config(spec)
        cells = serialize.cells_from_config(spec)
        out = tmp_path / "results"
        assert main(["bench", "--spec", spec_path, "--jobs", "1", "--out", str(out)]) == 0
        # Only the first study's run 0 starts from NaN, so this reference
        # study has the command's runs 1 and 2.
        mc = monte_carlo(scn, cells, 3, l=8, n=3, r=2, base_seed=11, keep_traces=True)
        summary = json.loads((out / "summary.json").read_text())
        kept = (1, 2)
        for cell in ("const-beta1", "self-adaptive"):
            assert summary[cell]["runs"] == 3
            assert summary[cell]["failures"] == 1
            errors = [
                s.theta_error for s in mc.summaries if s.cell == cell and s.run in kept
            ]
            assert summary[cell]["mean_theta_error"] == pytest.approx(
                np.mean(errors), rel=1e-12
            )
            accepted = [
                [rec for rec in mc.traces[(cell, run)] if rec.accepted] for run in kept
            ]
            for name in FINAL_NAMES:
                want = np.mean([getattr(recs[-1], name) for recs in accepted])
                assert summary[cell][f"mean_final_{name}"] == pytest.approx(want, rel=1e-12)
            # Each averages row is the mean over the two runs that did not fail.
            rows = read_rows(out / f"{cell}_mean.csv")
            assert [row["iter"] for row in rows] == [str(j) for j in range(1, 8)]
            for j, row in enumerate(rows):
                at_j = [recs[j] for recs in accepted]
                for name in ("primal_sq", "dual_sq", "beta"):
                    want = np.mean([getattr(rec, name) for rec in at_j])
                    assert float(row[f"mean_{name}"]) == pytest.approx(want, rel=1e-12)

    def test_averages_match_in_process_study(self, tmp_path):
        spec_path = bench_spec(tmp_path)
        out = tmp_path / "results"
        assert main(["bench", "--spec", spec_path, "--jobs", "1", "--out", str(out)]) == 0
        spec = json.loads(open(spec_path).read())
        scn = serialize.scenario_from_config(spec)
        cells = serialize.cells_from_config(spec)
        mc = monte_carlo(scn, cells, 2, l=8, n=3, r=2, base_seed=11)
        for cell in cells:
            avg = mc.cells[cell.name]
            for row in read_rows(out / f"{cell.name}_mean.csv"):
                j = int(row["iter"]) - 1
                assert float(row["mean_primal_sq"]) == avg.primal_sq[j]
                assert float(row["mean_dual_sq"]) == avg.dual_sq[j]
                assert float(row["mean_beta"]) == avg.beta[j]

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = bench_spec(tmp_path)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["bench", "--spec", spec, "--jobs", "1", "--out", str(out)]) == 0
            blobs.append(
                (out / "const-beta1_mean.csv").read_bytes()
                + (out / "self-adaptive_mean.csv").read_bytes()
                + (out / "summary.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_missing_runs_exits_1(self, tmp_path, capsys):
        spec = json.loads(open(bench_spec(tmp_path)).read())
        del spec["runs"]
        path = write_config(tmp_path / "norun.json", spec)
        rc = main(["bench", "--spec", path, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "runs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("runs", None), ("runs", 2.5), ("base_seed", "11"), ("base_seed", True)]
    )
    def test_study_counts_must_be_integers(self, tmp_path, capsys, key, value):
        spec = json.loads(open(bench_spec(tmp_path)).read())
        spec[key] = value
        path = write_config(tmp_path / "typo.json", spec)
        rc = main(["bench", "--spec", path, "--jobs", "1", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {key} must be an integer")

    def test_negative_base_seed_exits_1(self, tmp_path, capsys):
        spec = json.loads(open(bench_spec(tmp_path)).read())
        spec["base_seed"] = -1
        path = write_config(tmp_path / "negative.json", spec)
        rc = main(["bench", "--spec", path, "--jobs", "1", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "base_seed must be nonnegative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        rc = main(["bench", "--spec", bench_spec(tmp_path), "--jobs", jobs, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ValueError: jobs must be at least 1")

    @pytest.mark.parametrize("name", [["a"], None])
    def test_cell_name_must_be_string(self, tmp_path, capsys, name):
        spec = json.loads(open(bench_spec(tmp_path)).read())
        spec["cells"][1]["name"] = name
        path = write_config(tmp_path / "badname.json", spec)
        out = tmp_path / "x"
        rc = main(["bench", "--spec", path, "--jobs", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: cells[1].name must be a string")
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_data_csv(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {"scenario": dict(TINY_SCENARIO)})
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 20
        assert float(rows[0]["t"]) == 0.0
        assert {float(row["u"]) for row in rows} <= {1.0, -1.0}

    def test_zero_fine_step_exits_1(self, tmp_path, capsys):
        scenario = dict(TINY_SCENARIO, fine_step=0)
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid scenario settings")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "plant",
        [
            {"num": [float("nan"), 1.0]},
            {"den": [float("inf"), 0.6, 1.0]},
            {"delay": float("inf")},
        ],
        ids=["nan-num", "inf-den", "inf-delay"],
    )
    def test_non_finite_plant_exits_1(self, tmp_path, capsys, plant):
        scenario = dict(TINY_SCENARIO, plant=plant)
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid scenario.plant settings")
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario",
        [{"duration": float("inf")}, {"noise_var": float("inf")}],
        ids=["duration", "noise_var"],
    )
    def test_infinite_scenario_value_exits_1(self, tmp_path, capsys, scenario):
        # json reads a bare Infinity; it must not reach the rounding to
        # whole samples (an OverflowError) or the noise draw.
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})
        assert "Infinity" in (tmp_path / "sim.json").read_text()
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid scenario settings")
        assert "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["amplitude", "hysteresis"])
    def test_infinite_relay_value_exits_1(self, tmp_path, capsys, key):
        # An infinite amplitude overflowed the plant output (reported as a
        # NumericFailure); an infinite hysteresis never let the relay switch.
        scenario = dict(TINY_SCENARIO, relay={key: float("inf")})
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})
        assert "Infinity" in (tmp_path / "sim.json").read_text()
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: invalid scenario.relay settings: relay {key} must be")
        assert "finite" in err
        assert not out.exists()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        scenario = dict(TINY_SCENARIO, seed=-1)
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: invalid scenario settings: seed must be nonnegative")
        assert not out.exists()

    def test_overflowing_plant_output_exits_1(self, tmp_path, capsys):
        # A finite numerator so large that the sampled output overflows.
        scenario = dict(TINY_SCENARIO, plant={"num": [1e308, 1e308]})
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: NumericFailure: plant output is not finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sim.json", {"scenario": dict(TINY_SCENARIO)})
        out = tmp_path / "missing" / "dir" / "data.csv"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: FileNotFoundError")
        assert str(out) in err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {"scenario": dict(TINY_SCENARIO)})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
