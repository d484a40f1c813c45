"""Unit tests for Fornberg finite-difference weight generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.coefficients import (
    central_offsets,
    central_weights,
    fornberg_weights,
    second_derivative_weights,
    staggered_weights,
    stencil_radius,
)


# -- known closed-form weights ----------------------------------------------------
def test_second_order_second_derivative():
    offs, w = central_weights(2, 2)
    assert offs == (-1, 0, 1)
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0])


def test_second_order_first_derivative():
    offs, w = central_weights(1, 2)
    np.testing.assert_allclose(w, [-0.5, 0.0, 0.5])


def test_fourth_order_second_derivative():
    _, w = central_weights(2, 4)
    np.testing.assert_allclose(w, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], rtol=1e-12)


def test_interpolation_weights_deriv0():
    w = fornberg_weights(0, [0, 1], 0.5)
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_staggered_second_order():
    offs, w = staggered_weights(1, 2, side=1)
    assert offs == (0, 1)
    np.testing.assert_allclose(w, [-1.0, 1.0])
    offs, w = staggered_weights(1, 2, side=-1)
    assert offs == (-1, 0)
    np.testing.assert_allclose(w, [-1.0, 1.0])


def test_staggered_fourth_order_antisymmetry():
    _, wp = staggered_weights(1, 4, side=1)
    _, wm = staggered_weights(1, 4, side=-1)
    np.testing.assert_allclose(wp, wm, rtol=1e-12)  # same weights, shifted nodes


# -- algebraic properties -----------------------------------------------------------
@pytest.mark.parametrize("so", [2, 4, 8, 12])
def test_second_derivative_weights_sum_zero(so):
    _, w = second_derivative_weights(so)
    assert sum(w) == pytest.approx(0.0, abs=1e-10)


# mirrored weights are equal bit for bit, not merely close: the factorisation
# pass collects terms by exact coefficient magnitude
@pytest.mark.parametrize("so", [2, 4, 8, 12, 16])
def test_second_derivative_weights_symmetric(so):
    _, w = central_weights(2, so)
    assert w == w[::-1]


@pytest.mark.parametrize("so", [2, 4, 8, 12, 16])
def test_first_derivative_weights_antisymmetric(so):
    _, w = central_weights(1, so)
    assert w == tuple(-x for x in w[::-1])
    assert w[so // 2] == 0.0


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("so", [2, 4, 8, 12, 16])
def test_staggered_weights_antisymmetric_pairs(so, side):
    _, w = staggered_weights(1, so, side)
    assert w == tuple(-x for x in w[::-1])


@pytest.mark.parametrize("deriv", [1, 2])
@pytest.mark.parametrize("so", [2, 4, 8, 12, 16])
def test_symmetrised_weights_stay_consistent(deriv, so):
    """Symmetrising must not cost accuracy: the weights still annihilate
    constants and differentiate ``x**deriv`` exactly, and every polynomial
    up to the stated order to round-off of its largest term."""
    offs, w = central_weights(deriv, so)
    assert sum(w) == pytest.approx(0.0, abs=1e-12)
    for degree in range(so + deriv):
        terms = [wi * float(o) ** degree for wi, o in zip(w, offs)]
        expected = float(math.factorial(deriv)) if degree == deriv else 0.0
        scale = max(abs(t) for t in terms) or 1.0
        assert sum(terms) == pytest.approx(expected, abs=1e-12 * max(scale, 1.0))


@pytest.mark.parametrize("deriv,so", [(1, 4), (2, 4), (1, 8), (2, 8)])
def test_polynomial_exactness(deriv, so):
    """Order-so weights differentiate polynomials up to degree so+deriv-1 exactly."""
    offs, w = central_weights(deriv, so)
    for degree in range(so + deriv):
        vals = np.array([float(o) ** degree for o in offs])
        got = float(np.dot(w, vals))
        if degree == deriv:
            expected = float(math.factorial(deriv))
        else:
            expected = 0.0
        assert got == pytest.approx(expected, abs=1e-7), (degree, deriv, so)


@pytest.mark.parametrize("so", [4, 8])
def test_convergence_order(so):
    """Error of the so-order second derivative scales like h^so."""
    errs = []
    # larger steps for higher orders keep the error above round-off
    hs = (0.1, 0.05) if so == 4 else (0.5, 0.25)
    for h in hs:
        offs, w = central_weights(2, so)
        x0 = 0.7
        approx = sum(wi * np.sin(x0 + o * h) for o, wi in zip(offs, w)) / h**2
        errs.append(abs(approx - (-np.sin(x0))))
    order = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
    assert order == pytest.approx(so, abs=1.0)


# -- validation ------------------------------------------------------------------------
def test_invalid_orders():
    for bad in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            central_offsets(bad)
        with pytest.raises(ValueError):
            stencil_radius(bad)
    with pytest.raises(ValueError):
        staggered_weights(1, 4, side=2)
    with pytest.raises(ValueError):
        fornberg_weights(-1, [0, 1])
    with pytest.raises(ValueError):
        fornberg_weights(2, [0, 1])  # too few nodes
    with pytest.raises(ValueError):
        fornberg_weights(1, [0, 0, 1])  # duplicate nodes


def test_stencil_radius():
    assert stencil_radius(4) == 2
    assert stencil_radius(12) == 6


@given(so=st.sampled_from([2, 4, 6, 8, 10, 12]), deriv=st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_weights_cached_and_consistent(so, deriv):
    a = central_weights(deriv, so)
    b = central_weights(deriv, so)
    assert a is b  # lru_cache
    assert len(a[0]) == so + 1
