"""Oblivious stochastic mirror descent for box-constrained maximum-eigenvalue
minimization: randomized oracles, parameter-free solvers, baselines, and a
benchmark harness."""

from .linalg import SymMatrix, full_spectrum, leading_eigpair, make_rng
from .oracles import (ExactOracleConfig, PowerOracleConfig,
                      SmoothingOracleConfig, exact_subgrad, power_grad,
                      smoothing_grad)
from .problem import (BoxSet, CompositeProblem, box_lower_bound, eval_F,
                      gen_instance, load_instance, make_problem, project_box,
                      prox_step, save_instance)
from .solvers import (RunTrace, SolverError, StepSchedule, lan_acsa,
                      levy_adaptive, oblivious_acsmd, oblivious_smd,
                      relative_md)
from .harness import (BenchReport, ExperimentConfig, iterations_to_precision,
                      read_trace, reference_run, run_bench,
                      theory_parameters, write_trace)

__version__ = "0.1.0"

__all__ = [
    "BenchReport", "BoxSet", "CompositeProblem",
    "ExactOracleConfig", "ExperimentConfig", "PowerOracleConfig", "RunTrace",
    "SmoothingOracleConfig", "SolverError", "StepSchedule", "SymMatrix",
    "box_lower_bound", "eval_F", "exact_subgrad", "full_spectrum",
    "gen_instance", "iterations_to_precision", "lan_acsa", "leading_eigpair",
    "levy_adaptive", "load_instance", "make_problem", "make_rng",
    "oblivious_acsmd", "oblivious_smd", "power_grad",
    "project_box", "prox_step", "read_trace", "reference_run", "relative_md",
    "run_bench", "save_instance", "smoothing_grad", "theory_parameters",
    "write_trace",
]
