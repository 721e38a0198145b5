"""Output checks applied to every solver run the benchmark times.

Each check returns a list of problem strings; an empty list means the run
passed. Any problem marks its cell as failed and the command exits non-zero.
"""

import json

import numpy as np

TRACE_COLUMNS = ("t", "F_ag", "Psi_ag", "grad_norm", "elapsed_s")
BOX_TOL = 1e-12          # the package's own FEASIBILITY_TOL
EIG_RTOL = 1e-12         # last F_ag against a fresh eigvalsh of the final point
LB_RTOL = 1e-10          # rounding allowed below the certified lower bound


def check_trace(trace, center, radius, mu, lb, T) -> list:
    """Finite values, final point in the box, F_ag exact, Psi_ag >= LB."""
    problems = []
    for name in TRACE_COLUMNS:
        col = np.asarray(getattr(trace, name), dtype=float)
        if not np.all(np.isfinite(col)):
            problems.append(f"trace column {name} has non-finite values")
    if int(trace.t[-1]) != T:
        problems.append(f"last evaluated iteration is {int(trace.t[-1])}, not T = {T}")
    x = trace.final_point.data
    if not np.all(np.isfinite(x)):
        problems.append("final point has non-finite entries")
    elif np.any(np.abs(x - center) > radius + BOX_TOL):
        excess = float(np.max(np.abs(x - center)) - radius)
        problems.append(f"final point leaves the box by {excess:.3e}")
    else:
        top = float(np.linalg.eigvalsh(x)[-1])
        if abs(float(trace.F_ag[-1]) - top) > EIG_RTOL * max(1.0, abs(top)):
            problems.append(f"last F_ag {float(trace.F_ag[-1])!r} differs from "
                            f"eigvalsh of the final point {top!r}")
    echo_mu = trace.config_echo.get("mu")
    if echo_mu != mu:
        problems.append(f"trace mu {echo_mu!r} differs from the bound's mu {mu!r}")
    floor = lb - LB_RTOL * max(1.0, abs(lb))
    psi = np.asarray(trace.Psi_ag, dtype=float)
    below = np.nonzero(psi < floor)[0]
    if below.size:
        i = int(below[0])
        problems.append(f"Psi_ag {psi[i]!r} at t = {int(trace.t[i])} is below "
                        f"the certified lower bound {lb!r}")
    return problems


def same_trace(a, b) -> list:
    """Field-by-field exact comparison of two RunTrace objects."""
    problems = []
    for name in TRACE_COLUMNS:
        if not np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name))):
            problems.append(f"trace column {name} does not round-trip exactly")
    if not np.array_equal(a.final_point.data, b.final_point.data):
        problems.append("final point does not round-trip exactly")
    if json.dumps(a.config_echo, sort_keys=True) != json.dumps(b.config_echo, sort_keys=True):
        problems.append("config echo does not round-trip")
    for name in ("seed", "total_seconds", "oracle_seconds"):
        if getattr(a, name) != getattr(b, name):
            problems.append(f"{name} does not round-trip exactly")
    return problems


def check_round_trip(trace, path, write_trace, read_trace) -> list:
    """write_trace then read_trace must give back the same trace."""
    write_trace(path, trace)
    return same_trace(trace, read_trace(path))
