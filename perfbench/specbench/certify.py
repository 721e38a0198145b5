"""Certified lower bound on the composite objective, in numpy alone.

For any density matrix W (PSD, trace 1), <W, X> <= lambda_max(X), so

    Psi* >= LB(W) = min over the box of <W, X> + mu ||X - X1||_F^2,

whose minimizer is the entrywise clamp of X1 - W / (2 mu). W is the
alpha-weighted average of the v v^T draws of an accelerated mirror-descent
run with an exact `numpy.linalg.eigh` oracle. Nothing here imports specmd,
so a change to the package under test cannot move its own yardstick.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

METHOD = ("accelerated mirror descent on the composite objective, exact "
          "numpy.linalg.eigh subgradients, alpha_t = t + 1, gamma_t = t^2 / 2; "
          "W = alpha-weighted mean of the v v^T draws; LB = max of LB(W_t) "
          "over checkpoints")
CHECKPOINTS = 20


def bound_of(w, center, radius, mu, x1) -> float:
    """LB(W): the box minimum of <W, X> + mu ||X - X1||^2 (an entrywise clamp)."""
    x = np.clip(x1 - w / (2.0 * mu), center - radius, center + radius)
    diff = x - x1
    return float(np.sum(w * x) + mu * np.sum(diff * diff))


def psi(x, mu, x1) -> float:
    diff = x - x1
    return float(np.linalg.eigvalsh(x)[-1] + mu * np.sum(diff * diff))


def certified_bound(center, radius, mu, x1, iters) -> dict:
    """Run the exact-oracle method and return the best certified bound.

    Also returns psi_upper = Psi(X_ag), so `gap` states how tight the
    bound is on this instance.
    """
    lower, upper = center - radius, center + radius
    x = x1.copy()
    x_ag = x1.copy()
    w = np.zeros_like(x1)
    a_sum = 0.0
    best = -np.inf
    every = max(1, iters // CHECKPOINTS)
    for t in range(1, iters + 1):
        alpha = t + 1.0
        gamma = 0.5 * t * t
        a_new = a_sum + alpha
        x_md = x_ag + (alpha / a_new) * (x - x_ag)
        v = np.linalg.eigh(x_md)[1][:, -1]
        g = np.outer(v, v)
        w += (alpha / a_new) * (g - w)
        stationary = (2.0 * mu * (alpha * x1 + gamma * x) - alpha * g) / (
            2.0 * mu * (alpha + gamma))
        x = np.clip(stationary, lower, upper)
        x_ag += (alpha / a_new) * (x - x_ag)
        a_sum = a_new
        if t % every == 0 or t == iters:
            best = max(best, bound_of(w, center, radius, mu, x1))
    upper_value = psi(x_ag, mu, x1)
    return {"lb": best, "psi_upper": upper_value, "gap": upper_value - best,
            "iters": iters, "method": METHOD}


def cached_bound(cache_dir: Path, center, radius, mu, x1, iters) -> dict:
    """certified_bound, memoized on disk by a hash of every input."""
    h = hashlib.sha256()
    for arr in (center, x1):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(repr((float(radius), float(mu), int(iters))).encode())
    path = Path(cache_dir) / f"lb_{h.hexdigest()[:24]}.json"
    if path.is_file():
        out = json.loads(path.read_text())
        out["cached"] = True
        return out
    out = certified_bound(center, radius, mu, x1, iters)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out))
    out["cached"] = False
    return out
