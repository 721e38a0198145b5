import numpy as np


def zero_oracle(x, rng):
    """Stub oracle: zero value, zero gradient."""
    return 0.0, np.zeros_like(x)


def constant_oracle(matrix, value=0.0):
    """Stub oracle returning a fixed gradient array every draw."""
    def oracle(x, rng):
        return value, matrix
    return oracle
