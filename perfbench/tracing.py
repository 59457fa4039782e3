"""Spans around the public functions of each `rcadmm` module.

`Tracer.install` replaces each traced function with a wrapper in every
`rcadmm` module namespace that holds it, so a call is seen wherever the
caller looks the function up (for example `rcadmm.driver.admm_step` or
`rcadmm.admm.truncated_svd_projection`), nested calls included.
`uninstall` puts the originals back, so untraced rounds run the program
unchanged.  Spans are kept in memory and turned into per-layer figures
when the run ends: a span's self time is its duration minus that of the
spans it directly caused.
"""
import concurrent.futures
import csv
import functools
import gzip
import os
import sys
import time

# (module, function, layer).  The layer is the module whose work the
# function does; `initial_state` lives in `admm` but builds the start of
# a problem, so it is counted with `problem`.
TRACED = [
    ("rcadmm.hankel", "truncated_svd_projection", "hankel"),
    ("rcadmm.problem", "assemble_problem", "problem"),
    ("rcadmm.admm", "initial_state", "problem"),
    ("rcadmm.admm", "admm_step", "admm"),
    ("rcadmm.admm", "update_w", "admm"),
    ("rcadmm.admm", "update_theta", "admm"),
    ("rcadmm.admm", "update_duals", "admm"),
    ("rcadmm.admm", "residuals", "admm"),
    ("rcadmm.svd_calc", "w_derivative", "svd_calc"),
    ("rcadmm.penalty", "increment_diagnostics", "penalty"),
    ("rcadmm.penalty", "lagrangian_increment", "penalty"),
    ("rcadmm.penalty", "increment_slope", "penalty"),
    ("rcadmm.penalty", "update_penalty", "penalty"),
    ("rcadmm.driver", "solve", "driver"),
    ("rcadmm.driver", "anderson_coefficients", "driver"),
    ("rcadmm.simulate", "simulate_relay", "simulate"),
    ("rcadmm.simulate", "true_impulse_response", "simulate"),
    ("rcadmm.simulate", "monte_carlo", "simulate"),
    ("rcadmm.serialize", "load_json", "serialize"),
    ("rcadmm.serialize", "scenario_from_config", "serialize"),
    ("rcadmm.serialize", "problem_dims_from_config", "serialize"),
    ("rcadmm.serialize", "cells_from_config", "serialize"),
    ("rcadmm.serialize", "write_averages_csv", "serialize"),
    ("rcadmm.serialize", "write_json", "serialize"),
    ("rcadmm.cli", "main", "cli"),
]
POOL_SPAN = "ProcessPoolExecutor"
LAYER_OF = {name: layer for _, name, layer in TRACED}
LAYER_OF[POOL_SPAN] = "simulate"


class Tracer:
    """Collects spans (name, start, end, parent) and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.phase = 0
        self._stack = []
        self._active = True
        self._patched = []

    def count(self, key, amount=1):
        self.counters[(self.phase, key)] = self.counters.get((self.phase, key), 0) + amount

    def peak(self, key, value):
        self.counters[(0, key)] = max(self.counters.get((0, key), 0), value)

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, name, index, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.phase)

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index, start = self._open()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.count(f"raised.{name}.{type(exc).__name__}")
                raise
            finally:
                self._close(name, index, start)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every traced function at each place `rcadmm` binds it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rcadmm"]
        for module_name, name, _ in TRACED:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(name, original, AFTER.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        tracer = self
        base = concurrent.futures.ProcessPoolExecutor

        class TracedPool(base):
            """The pool's life as one span, seen from the parent; workers run untraced."""

            def __init__(self, *args, **kwargs):
                kwargs.setdefault("initializer", _untraced_worker)
                super().__init__(*args, **kwargs)

            def __enter__(self):
                self._span = tracer._open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(POOL_SPAN, *self._span)

        self._patched.append((concurrent.futures, "ProcessPoolExecutor", base))
        concurrent.futures.ProcessPoolExecutor = TracedPool
        global _WORKER_TRACER
        _WORKER_TRACER = self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """All spans as gzip CSV: id, parent, phase, name, start and end in us."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "parent", "phase", "name", "start_us", "end_us"])
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                out.writerow(
                    [i, parent, phase, name, f"{(start - t0) * 1e6:.1f}", f"{(end - t0) * 1e6:.1f}"]
                )

    def layer_metrics(self, rounds):
        """Per-layer figures per traced round, with the set-up (phase 0) counted once."""
        weight = {0: 1.0}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own, self_time, busy = {}, {}, {}, {}, {}
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            w = weight.get(phase, 1.0 / rounds)
            dur = end - start
            calls[name] = calls.get(name, 0.0) + w
            total[name] = total.get(name, 0.0) + w * dur
            own[name] = own.get(name, 0.0) + w * (dur - child[i])
            layer = LAYER_OF[name]
            self_time[layer] = self_time.get(layer, 0.0) + w * (dur - child[i])
            busy.setdefault(name, []).append(dur)

        def counter(key):
            return sum(v * weight.get(p, 1.0 / rounds) for (p, k), v in self.counters.items() if k == key)

        def per_call_us(name):
            durations = busy.get(name, [])
            return 1e6 * sum(durations) / len(durations) if durations else 0.0

        rows = counter("driver.rows")
        accepted = counter("driver.accepted")
        return {
            "hankel.svd_calls": calls.get("truncated_svd_projection", 0.0),
            "hankel.svd_us": per_call_us("truncated_svd_projection"),
            "hankel.svd_s": total.get("truncated_svd_projection", 0.0),
            "admm.sweeps": calls.get("admm_step", 0.0),
            "admm.sweep_us": per_call_us("admm_step"),
            "admm.update_theta_us": per_call_us("update_theta"),
            "admm.update_duals_us": per_call_us("update_duals"),
            "admm.residuals_us": per_call_us("residuals"),
            "admm.self_s": self_time.get("admm", 0.0),
            "svd_calc.w_derivative_calls": calls.get("w_derivative", 0.0),
            "svd_calc.w_derivative_us": per_call_us("w_derivative"),
            "svd_calc.unavailable": counter("raised.w_derivative.SensitivityUnavailable"),
            "penalty.increment_calls": calls.get("increment_diagnostics", 0.0),
            "penalty.increment_us": per_call_us("increment_diagnostics"),
            "penalty.lagrangian_increment_us": per_call_us("lagrangian_increment"),
            "penalty.increment_slope_us": per_call_us("increment_slope"),
            "penalty.beta_max_rows": counter("penalty.beta_max_rows"),
            "driver.solves": calls.get("solve", 0.0),
            "driver.rows": rows,
            "driver.rejected": rows - accepted,
            "driver.sweeps_per_iter": rows / accepted if accepted else 0.0,
            "driver.anderson_calls": calls.get("anderson_coefficients", 0.0),
            "driver.anderson_us": per_call_us("anderson_coefficients"),
            "driver.self_s": self_time.get("driver", 0.0),
            "problem.assemble_s": total.get("assemble_problem", 0.0),
            "problem.initial_state_s": total.get("initial_state", 0.0),
            "problem.q_bytes": float(self.counters.get((0, "problem.q_bytes"), 0)),
            "simulate.relay_s": total.get("simulate_relay", 0.0),
            "simulate.truth_s": total.get("true_impulse_response", 0.0),
            "simulate.mc_self_s": own.get("monte_carlo", 0.0),
            "simulate.pool_s": total.get(POOL_SPAN, 0.0),
            "serialize.write_s": total.get("write_averages_csv", 0.0) + total.get("write_json", 0.0),
            "serialize.bytes": counter("serialize.bytes"),
            "cli.self_s": self_time.get("cli", 0.0),
        }


_WORKER_TRACER = None


def _untraced_worker():
    # Pool workers inherit the installed wrappers through fork; their spans
    # would die with them, so they run with tracing switched off.
    if _WORKER_TRACER is not None:
        _WORKER_TRACER._active = False


def _after_solve(tracer, args, kwargs, result):
    from rcadmm.penalty import BETA_MAX

    accepted = [rec for rec in result.records if rec.accepted]
    tracer.count("driver.rows", len(result.records))
    tracer.count("driver.accepted", len(accepted))
    tracer.count("penalty.beta_max_rows", sum(rec.beta >= BETA_MAX for rec in accepted))


def _after_assemble(tracer, args, kwargs, problem):
    factors = (problem.q, problem.qfac.orth, problem.qfac.r_factor)
    tracer.peak("problem.q_bytes", sum(a.size * a.itemsize for a in factors))


def _after_write(tracer, args, kwargs, out):
    tracer.count("serialize.bytes", os.path.getsize(args[0]))


AFTER = {
    "solve": _after_solve,
    "assemble_problem": _after_assemble,
    "write_averages_csv": _after_write,
    "write_json": _after_write,
}
