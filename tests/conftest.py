import numpy as np

from specmd.linalg import SymMatrix
from specmd.problem import gen_instance, save_instance


def zero_oracle(x, rng):
    """Stub oracle: zero value, zero gradient."""
    return 0.0, np.zeros_like(x)


def constant_oracle(matrix, value=0.0):
    """Stub oracle returning a fixed gradient array every draw."""
    def oracle(x, rng):
        return value, matrix
    return oracle


def sym_matrix(raw):
    """SymMatrix of (M + M^T) / 2 for a square array-like M: how tests build
    symmetric data, since the package never symmetrizes its input."""
    a = np.array(raw, dtype=float)
    return SymMatrix((a + a.T) / 2.0)


def asymmetric_instance(path):
    """Write gen_instance(3, 0.2, 0) as an instance file whose entry (0, 1)
    reads 0.123 while (1, 0) keeps -0.4288...: a file that describes no
    symmetric matrix."""
    save_instance(path, gen_instance(3, 0.2, 0), seed=0, noise_sigma=0.2)
    lines = path.read_text().splitlines()
    row = lines[5].split()
    row[1] = "0.123"
    lines[5] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    return path
