"""The names that the benchmark's tracer reads from the package still exist.

`perfbench/tracing.py` wraps functions by (module, name) and reads the
factor arrays of an assembled problem; a rename in `rcadmm` would break
traced benchmark runs without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rcadmm.problem import RegressionData, assemble_problem

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    for module_name, name, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), name, None)), (
            f"{module_name}.{name}"
        )


def test_q_bytes_counts_dense_q_and_factors(tracing):
    rng = np.random.default_rng(0)
    problem = assemble_problem(
        RegressionData(rng.normal(size=30), rng.normal(size=30)), l=9, n=4, r=2
    )
    tracer = tracing.Tracer()
    tracing._after_assemble(tracer, (), {}, problem)
    arrays = (problem.q, problem.qfac.orth, problem.qfac.r_factor)
    assert tracer.counters[(0, "problem.q_bytes")] == sum(a.nbytes for a in arrays)
