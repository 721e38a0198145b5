"""Self-contained invariant battery behind the `specmd verify` subcommand.

Each check returns (name, ok, detail); the CLI prints one line per check.
These overlap deliberately with the test suite so a deployed install can be
sanity-checked without pytest.
"""

import tempfile
from pathlib import Path

import numpy as np

from .harness import read_trace, write_trace
from .linalg import (frob_inner, full_spectrum, leading_eigpair, make_rng,
                     mat_power_apply, sym_from, sym_zeros)
from .oracles import (ExactOracleConfig, GradSample, PowerOracleConfig,
                      SmoothingOracleConfig, exact_subgrad, power_grad,
                      smoothing_grad)
from .problem import (BoxSet, gen_instance, make_problem, project_box,
                      prox_step)
from .solvers import StepSchedule, oblivious_acsmd, oblivious_smd


def _zero_oracle(x, rng):
    return GradSample(grad=sym_zeros(x.dim), value=0.0)


def _check_schedule_law():
    for degree in range(4):
        for scale in (0.1, 1.0, 10.0):
            StepSchedule(degree=degree, scale=scale).validate(100_000)
    return "schedule holds for degrees 0..3, scales 0.1/1/10, t <= 1e5"


def _check_leading_eigpair():
    rng = make_rng(11)
    for _ in range(20):
        m = sym_from(rng.standard_normal((12, 12)))
        lam, vec = leading_eigpair(m, rng=rng)
        top = full_spectrum(m.data)[0]
        assert abs(lam - top) <= 1e-6 * max(1.0, abs(top))
        resid = np.linalg.norm(m.data @ vec - lam * vec)
        assert resid <= 1e-8 * max(1.0, abs(lam))
    return "power iteration matches the full spectrum on random matrices"


def _check_power_oracle_bound():
    rng = make_rng(5)
    cfg = PowerOracleConfig(p=9, square_input=False)
    for _ in range(200):
        b = rng.standard_normal((6, 6))
        x = sym_from(b @ b.T + 0.1 * np.eye(6))
        sample = power_grad(x, cfg, rng)
        lam = full_spectrum(x.data)[0]
        assert sample.value <= lam * 6 ** (1.0 / cfg.p) * (1 + 1e-12)
    return "power-oracle values stay below lambda_max * ||u||^(2/p)"


def _check_oracle_norms():
    rng = make_rng(3)
    cfg = SmoothingOracleConfig(k=2, epsilon=1e-2)
    for _ in range(50):
        x = sym_from(rng.standard_normal((8, 8)))
        for sample in (smoothing_grad(x, cfg, rng), exact_subgrad(x)):
            norm = np.linalg.norm(sample.grad.data)
            assert abs(norm - 1.0) <= 1e-8
    return "smoothing and exact subgradients are unit rank-one projectors"


def _check_prox_and_projection():
    rng = make_rng(7)
    box = BoxSet(center=sym_from(rng.standard_normal((3, 3))), radius=0.7)
    prob = make_problem(box, ExactOracleConfig(), mu=0.3)
    for _ in range(100):
        xt = project_box(sym_from(rng.standard_normal((3, 3))).data, box)
        g = sym_from(rng.standard_normal((3, 3))).data
        out = prox_step(xt, g, 0.8, 1.7, prob)
        assert box.contains(out)
        assert np.array_equal(project_box(out, box), out)
    return "prox output is feasible and projection is idempotent"


def _check_zero_oracle_fixed_point():
    box = gen_instance(6, 0.1, seed=1)
    prob = make_problem(box, _zero_oracle, mu=0.5)
    for solver in (oblivious_smd, oblivious_acsmd):
        trace = solver(prob, StepSchedule(degree=1), 50, 0)
        drift = np.max(np.abs(trace.final_point.data - box.center.data))
        assert drift <= 1e-12
    return "zero-gradient stub keeps both oblivious solvers at the start point"


def _check_determinism():
    box = gen_instance(8, 0.2, seed=4)
    prob = make_problem(box, SmoothingOracleConfig(), T=40)
    a = oblivious_acsmd(prob, StepSchedule(degree=1), 40, 9)
    b = oblivious_acsmd(prob, StepSchedule(degree=1), 40, 9)
    assert np.array_equal(a.F_ag, b.F_ag)
    assert np.array_equal(a.final_point.data, b.final_point.data)
    return "identical seeds give bitwise-identical runs"


def _check_trace_round_trip():
    box = gen_instance(5, 0.2, seed=2)
    prob = make_problem(box, SmoothingOracleConfig(), T=20)
    trace = oblivious_smd(prob, StepSchedule(degree=1), 20, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(path, trace)
        back = read_trace(path)
    assert np.array_equal(trace.F_ag, back.F_ag)
    assert np.array_equal(trace.elapsed_s, back.elapsed_s)
    assert np.array_equal(trace.final_point.data, back.final_point.data)
    return "trace files round-trip exactly"


def _check_spectrum_identities():
    rng = make_rng(13)
    for d in (2, 8, 33):
        m = sym_from(rng.standard_normal((d, d)))
        spec = full_spectrum(m.data)
        assert abs(spec.sum() - np.trace(m.data)) <= 1e-9 * max(1.0, abs(np.trace(m.data)))
        fro2 = float(np.tensordot(m.data, m.data))
        assert abs(np.sum(spec ** 2) - fro2) <= 1e-9 * max(1.0, fro2)
        w = mat_power_apply(m, 4, rng.standard_normal(d))
        assert np.allclose(w[4], np.linalg.matrix_power(m.data, 4) @ w[0],
                           rtol=1e-10, atol=0)
    return "spectrum sums match trace and Frobenius norm; powers match"


def _check_frob_inner():
    rng = make_rng(17)
    a = sym_from(rng.standard_normal((5, 5)))
    b = sym_from(rng.standard_normal((5, 5)))
    naive = sum(a.data[i, j] * b.data[i, j] for i in range(5) for j in range(5))
    assert abs(frob_inner(a, b) - naive) <= 1e-12 * max(1.0, abs(naive))
    return "Frobenius inner product matches the elementwise sum"


CHECKS = [
    ("schedule-law", _check_schedule_law),
    ("leading-eigpair", _check_leading_eigpair),
    ("spectrum-identities", _check_spectrum_identities),
    ("frobenius-inner", _check_frob_inner),
    ("oracle-norms", _check_oracle_norms),
    ("power-oracle-bound", _check_power_oracle_bound),
    ("prox-projection", _check_prox_and_projection),
    ("zero-oracle-fixed-point", _check_zero_oracle_fixed_point),
    ("determinism", _check_determinism),
    ("trace-round-trip", _check_trace_round_trip),
]


def run_all(printer=print) -> bool:
    ok_all = True
    for name, fn in CHECKS:
        try:
            detail = fn()
            printer(f"PASS {name}: {detail}")
        except Exception as err:
            ok_all = False
            printer(f"FAIL {name}: {err}")
    return ok_all
