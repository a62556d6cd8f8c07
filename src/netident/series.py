"""Floating-point closed loops and their truncated walk series.

The closed loop (I - G)^{-1} is the sum I + G + G^2 + ... over all walks.
This module checks that numerically, on real edge values with the row-sum
norm of G held below 1.  No verdict reads these floats.  It is the one
library module that imports numpy at top level.  A matrix argument may be
an array or the lists ``network_matrix`` lays out.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .netmodel import NetworkModel
from .numeric import SingularMatrixError

__all__ = ["network_matrix", "random_float_values", "float_closed_loop", "neumann_series", "inf_norm"]


def network_matrix(net: NetworkModel, values) -> list[list]:
    """n x n matrix with entry [i][j] = ``values[k]`` for edge k = j->i, 0 where absent."""
    G = [[0] * net.n for _ in range(net.n)]
    for e, v in zip(net.edges, values):
        G[e.dst][e.src] = v
    return G


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
    """(I - G)^{-1} to machine precision; SingularMatrixError when I - G is singular or the result not finite.

    A failed float solve is checked in exact arithmetic: on an invertible
    I - G a pivot rounded to 0, and the closed loop has no float value.
    """
    A = np.eye(len(G), dtype=complex) - np.asarray(G, dtype=complex)
    try:
        T = np.linalg.solve(A, np.eye(len(A), dtype=complex))
    except np.linalg.LinAlgError as exc:
        if not np.all(np.isfinite(A)) or _exactly_singular(A):
            raise SingularMatrixError(str(exc)) from exc
        raise SingularMatrixError("non-finite entries in closed loop") from exc
    if not np.all(np.isfinite(T)):
        raise SingularMatrixError("non-finite entries in closed loop")
    return T


def _exactly_singular(A: NDArray) -> bool:
    """Whether a finite complex A = B + iC is singular: elimination over the rationals on [[B, -C], [C, B]], of determinant |det A|^2."""
    rows = [[Fraction(x) for x in row] for row in np.block([[A.real, -A.imag], [A.imag, A.real]]).tolist()]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return True
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, len(rows)):
            if f := rows[r][c] / rows[c][c]:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return False


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
