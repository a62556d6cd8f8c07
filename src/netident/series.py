"""Floating-point closed loops and their truncated walk series.

The closed loop (I - G)^{-1} is the sum I + G + G^2 + ... over all walks.
This module checks that numerically, on real edge values with the row-sum
norm of G held below 1.  No verdict reads these floats.  It is the one
library module that imports numpy at top level.  A matrix argument may be
an array or the lists ``numeric.network_matrix`` lays out.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .netmodel import NetworkModel
from .numeric import SingularMatrixError, network_matrix

__all__ = ["random_float_values", "float_closed_loop", "neumann_series", "inf_norm"]


def random_float_values(
    net: NetworkModel, rng: np.random.Generator, norm_bound: float = 0.5
) -> list[complex]:
    """Real values, one per edge in edge order, rescaled so the row-sum norm of G stays below ``norm_bound``.

    The row-sum norm dominates the spectral radius, so the bound keeps the
    closed-loop power series convergent without touching the zero pattern.
    """
    values = [complex(rng.standard_normal()) for _ in net.edges]
    norm = inf_norm(network_matrix(net, values))
    while norm > norm_bound:
        # shave a few ulps so rounding in the row sums cannot land back above
        scale = norm_bound / norm * (1.0 - 4e-16)
        values = [v * scale for v in values]
        norm = inf_norm(network_matrix(net, values))
    return values


def float_closed_loop(G) -> NDArray:
    """(I - G)^{-1} to machine precision; SingularMatrixError when I - G is singular or the result not finite."""
    identity = np.eye(len(G), dtype=complex)
    try:
        T = np.linalg.solve(identity - np.asarray(G, dtype=complex), identity)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(T)):
        raise SingularMatrixError("non-finite entries in closed loop")
    return T


def neumann_series(G, terms: int) -> NDArray:
    """I + G + G^2 + ... + G^terms; converges to the closed loop when the spectral radius is below 1."""
    A = np.asarray(G, dtype=complex)
    total = np.eye(len(A), dtype=complex)
    power = np.eye(len(A), dtype=complex)
    for _ in range(terms):
        power = power @ A
        total = total + power
        if not power.any():
            break
    return total


def inf_norm(G) -> float:
    """Row-sum norm; an upper bound on the spectral radius."""
    A = np.asarray(G, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.abs(A).sum(axis=1).max())
