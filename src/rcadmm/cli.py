"""Command-line front end: single solves, Monte Carlo studies, data export.

Exit codes for `solve`: 0 when the combined residual reached tolerance,
2 when the iteration budget ran out first, 1 on configuration or numeric
errors.  `bench` and `simulate` return 0 on success, 1 on error.
"""

import argparse
import os
import re
import sys
import time

import numpy as np

from .admm import REPORT_FIELDS, initial_state
from .driver import solve
from .errors import ConfigError
from .problem import assemble_problem
from .serialize import (
    cells_from_config,
    load_json,
    problem_dims_from_config,
    scenario_from_config,
    solver_from_config,
    study_from_config,
    write_averages_csv,
    write_data_csv,
    write_json,
    write_trace_csv,
)
from .simulate import monte_carlo, simulate_relay

EXIT_BY_TERMINATION = {"tolerance": 0, "max_iterations": 2}


def _out_dir(args):
    path = args.out or "."
    os.makedirs(path, exist_ok=True)
    return path


def _safe_name(name):
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name)


def cmd_solve(args):
    cfg = load_json(args.config)
    scenario = scenario_from_config(cfg, seed=args.seed)
    l, n, r = problem_dims_from_config(cfg)
    config = solver_from_config(cfg)

    sim = simulate_relay(scenario)
    problem = assemble_problem(sim.data, l=l, n=n, r=r)
    start = time.perf_counter()
    result = solve(problem, config, init=initial_state(problem))
    wall = time.perf_counter() - start

    out = _out_dir(args)
    trace_path = os.path.join(out, "trace.csv")
    write_trace_csv(trace_path, result.records, run_id=scenario.seed)
    final = result.final
    summary = {
        "termination": result.termination,
        "iterations": result.iterations,
        "wall_time_s": wall,
        "theta": [float(v) for v in result.theta],
    }
    for name in REPORT_FIELDS:
        summary[f"final_{name}"] = getattr(final, name) if final else None
    summary_path = os.path.join(out, "summary.json")
    write_json(summary_path, summary)
    print(
        f"{result.termination} after {result.iterations} iterations; "
        f"wrote {trace_path} and {summary_path}"
    )
    return EXIT_BY_TERMINATION.get(result.termination, 1)


def _finite_mean(values):
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else None


def cmd_bench(args):
    spec = load_json(args.spec)
    scenario = scenario_from_config(spec)
    l, n, r = problem_dims_from_config(spec)
    cells = cells_from_config(spec)
    study = study_from_config(spec)

    names = {_safe_name(cell.name) for cell in cells}
    if len(names) != len(cells):
        raise ConfigError("cell names collide after filename sanitization")

    out = _out_dir(args)
    mc = monte_carlo(scenario, cells, l=l, n=n, r=r, jobs=args.jobs, **study)

    report = {}
    for cell in cells:
        avg = mc.cells[cell.name]
        csv_path = os.path.join(out, f"{_safe_name(cell.name)}_mean.csv")
        write_averages_csv(csv_path, avg)
        rows = [s for s in mc.summaries if s.cell == cell.name]
        finals = [s.final for s in rows if s.final is not None]
        entry = report[cell.name] = {
            "runs": avg.runs,
            "failures": avg.failures,
            "mean_theta_error": _finite_mean([s.theta_error for s in rows]),
        }
        for name in REPORT_FIELDS:
            entry[f"mean_final_{name}"] = _finite_mean([f[name] for f in finals])
        print(
            f"{cell.name}: runs={avg.runs} failures={avg.failures} "
            f"mean final combined={entry['mean_final_combined']}"
        )
    write_json(os.path.join(out, "summary.json"), report)
    return 0


def cmd_simulate(args):
    cfg = load_json(args.config)
    scenario = scenario_from_config(cfg)
    sim = simulate_relay(scenario)
    write_data_csv(args.out, sim)
    print(f"wrote {len(sim.t)} samples to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rcadmm",
        description="Rank-constrained FIR identification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one identification solve")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a Monte Carlo strategy study")
    p_bench.add_argument("--spec", required=True)
    p_bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_sim = sub.add_parser("simulate", help="export benchmark data as CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
