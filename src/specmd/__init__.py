"""Oblivious stochastic mirror descent for box-constrained maximum-eigenvalue
minimization: randomized oracles, parameter-free solvers, baselines, and a
benchmark harness."""

from .linalg import (ConvergenceError, SymMatrix, frob_inner,
                     full_spectrum, leading_eigpair, make_rng,
                     mat_power_apply, sym_from, sym_identity, sym_zeros)
from .oracles import (ExactOracleConfig, GradSample, PowerOracleConfig,
                      SmoothingOracleConfig, exact_subgrad, power_grad,
                      power_value_grad, resolve_oracle, smoothing_grad)
from .problem import (BoxSet, CompositeProblem, eval_F, eval_Psi,
                      gen_instance, load_instance, make_problem, project_box,
                      prox_step, save_instance)
from .solvers import (RunTrace, SolverError, StepSchedule, lan_acsa,
                      levy_adaptive, oblivious_acsmd, oblivious_smd,
                      relative_md, relative_step, schedule_at)
from .harness import (BenchReport, ExperimentConfig, iterations_to_precision,
                      read_trace, reference_run, run_bench,
                      theory_parameters, write_trace)

__version__ = "0.1.0"

__all__ = [
    "BenchReport", "BoxSet", "CompositeProblem", "ConvergenceError",
    "ExactOracleConfig", "ExperimentConfig", "GradSample",
    "PowerOracleConfig", "RunTrace", "SmoothingOracleConfig", "SolverError",
    "StepSchedule", "SymMatrix", "eval_F", "eval_Psi", "exact_subgrad",
    "frob_inner", "full_spectrum", "gen_instance",
    "iterations_to_precision", "lan_acsa", "leading_eigpair", "levy_adaptive",
    "load_instance", "make_problem", "make_rng", "mat_power_apply",
    "oblivious_acsmd", "oblivious_smd", "power_grad", "power_value_grad",
    "project_box", "prox_step", "read_trace", "reference_run",
    "relative_md", "relative_step", "resolve_oracle",
    "run_bench", "save_instance", "schedule_at", "smoothing_grad", "sym_from",
    "sym_identity", "sym_zeros", "theory_parameters", "write_trace",
]
