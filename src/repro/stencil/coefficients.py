"""Finite-difference weight generation (Fornberg's algorithm).

Generates the stencil coefficients used throughout the DSL and the hand-tuned
NumPy kernels: centred weights of arbitrary derivative and accuracy order, and
staggered-grid weights evaluated at half points (needed by the elastic
velocity--stress scheme).

Reference: B. Fornberg, "Generation of Finite Difference Formulas on
Arbitrarily Spaced Grids", Mathematics of Computation 51 (1988).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "fornberg_weights",
    "central_weights",
    "central_offsets",
    "staggered_weights",
    "second_derivative_weights",
    "stencil_radius",
]


def fornberg_weights(deriv: int, offsets: Sequence[float], x0: float = 0.0) -> np.ndarray:
    """FD weights for the *deriv*-th derivative at *x0* on nodes *offsets*.

    Parameters
    ----------
    deriv:
        Derivative order ``m >= 0`` (0 gives interpolation weights).
    offsets:
        Node positions (in units of the grid spacing), need not be uniform.
    x0:
        Evaluation point (0.0 for grid-aligned, 0.5 for staggered).

    Returns
    -------
    ndarray of float64, one weight per node; the derivative is
    ``sum(w[i] * f(offsets[i])) / h**deriv``.
    """
    alpha = np.asarray(offsets, dtype=np.float64)
    n = len(alpha)
    if deriv < 0:
        raise ValueError("derivative order must be non-negative")
    if n <= deriv:
        raise ValueError(
            f"need at least {deriv + 1} nodes for derivative order {deriv}, got {n}"
        )
    if len(set(alpha.tolist())) != n:
        raise ValueError("stencil nodes must be distinct")

    m = deriv
    delta = np.zeros((m + 1, n, n), dtype=np.float64)
    delta[0, 0, 0] = 1.0
    c1 = 1.0
    for j in range(1, n):
        c2 = 1.0
        for k in range(j):
            c3 = alpha[j] - alpha[k]
            c2 *= c3
            for mu in range(min(j, m) + 1):
                delta[mu, j, k] = (
                    (alpha[j] - x0) * delta[mu, j - 1, k]
                    - (mu * delta[mu - 1, j - 1, k] if mu > 0 else 0.0)
                ) / c3
        for mu in range(min(j, m) + 1):
            delta[mu, j, j] = (c1 / c2) * (
                (mu * delta[mu - 1, j - 1, j - 1] if mu > 0 else 0.0)
                - (alpha[j - 1] - x0) * delta[mu, j - 1, j - 1]
            )
        c1 = c2
    return delta[m, n - 1, :].copy()


def central_offsets(space_order: int) -> Tuple[int, ...]:
    """Symmetric integer node offsets for an order-*space_order* stencil."""
    if space_order < 2 or space_order % 2:
        raise ValueError(f"space order must be a positive even integer, got {space_order}")
    r = space_order // 2
    return tuple(range(-r, r + 1))


def _symmetrised(w: np.ndarray, deriv: int) -> Tuple[float, ...]:
    """Weights on nodes symmetric about the evaluation point, made exactly
    symmetric (even *deriv*) or antisymmetric (odd *deriv*).

    Fornberg's recurrence leaves mirrored weights one ulp apart
    (``1.3333333333333333`` vs ``...335``); equal bit for bit, the
    factorisation pass can collect them under one multiply.
    """
    sign = 1.0 if deriv % 2 == 0 else -1.0
    w = 0.5 * (w + sign * w[::-1])
    w[np.abs(w) < 1e-12] = 0.0
    return tuple(float(x) for x in w)


@lru_cache(maxsize=None)
def central_weights(deriv: int, space_order: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Centred weights of accuracy *space_order* for the *deriv*-th derivative.

    Returns ``(offsets, weights)``; the weights are exactly (anti)symmetric and
    tiny round-off residues are snapped to 0 so the symbolic layer drops them.
    """
    offsets = central_offsets(space_order)
    return offsets, _symmetrised(fornberg_weights(deriv, offsets, 0.0), deriv)


@lru_cache(maxsize=None)
def staggered_weights(deriv: int, space_order: int, side: int = 1) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Weights for the *deriv*-th derivative evaluated at a half point.

    ``side=+1`` evaluates at ``x + 1/2`` using nodes symmetric about the half
    point (``-r+1 .. r`` for radius ``r = space_order//2``); ``side=-1``
    evaluates at ``x - 1/2`` (nodes ``-r .. r-1``).  This is the first-order
    staggered-grid operator of the velocity--stress elastic scheme.
    """
    if space_order < 2 or space_order % 2:
        raise ValueError(f"space order must be a positive even integer, got {space_order}")
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    r = space_order // 2
    if side == 1:
        offsets = tuple(range(-r + 1, r + 1))
        x0 = 0.5
    else:
        offsets = tuple(range(-r, r))
        x0 = -0.5
    return offsets, _symmetrised(fornberg_weights(deriv, offsets, x0), deriv)


def second_derivative_weights(space_order: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Convenience wrapper: centred second-derivative weights."""
    return central_weights(2, space_order)


def stencil_radius(space_order: int) -> int:
    """Half-width of a centred stencil of the given accuracy order."""
    if space_order < 2 or space_order % 2:
        raise ValueError(f"space order must be a positive even integer, got {space_order}")
    return space_order // 2
