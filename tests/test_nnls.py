"""Constrained least squares against a projected-gradient oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertime.nnls import kkt_residual, nnls


def pg_oracle(A, y, iters=6000):
    """Independent long-run projected gradient descent (no acceleration)."""
    gram = A.T @ A
    aty = A.T @ y
    lipschitz = np.linalg.eigvalsh(gram).max()
    if lipschitz <= 0:
        return np.zeros(A.shape[1])
    step = 1.0 / lipschitz
    x = np.zeros(A.shape[1])
    for _ in range(iters):
        x = np.maximum(x - step * (gram @ x - aty), 0.0)
    return x


def loss(A, y, x):
    r = A @ x - y
    return float(r @ r)


def random_instance(rng):
    m = int(rng.integers(3, 201))
    n = int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    # mix of consistent and inconsistent targets, some pushing weights negative
    x_true = rng.normal(size=n)
    y = A @ x_true + rng.normal(scale=rng.uniform(0.0, 2.0), size=m)
    return A, y


def test_exact_positive_line():
    A = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    y = np.array([3.0, 5.0, 7.0])
    x = nnls(A, y)
    assert x == pytest.approx([2.0, 1.0], abs=1e-9)
    assert loss(A, y, x) < 1e-18


def test_negative_slope_pins_weight_to_zero():
    A = np.array([[x, 1.0] for x in range(1, 6)])
    y = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
    x = nnls(A, y)
    assert x[0] == 0.0
    assert x[1] == pytest.approx(2.0, abs=1e-12)
    # at (0, 2) the sum-of-squares gradient with respect to the slope is +20,
    # pointing into the forbidden region
    grad_slope = 2 * sum(t * (2.0 - yt) for t, yt in zip(range(1, 6), y))
    assert grad_slope == pytest.approx(20.0)


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        A, y = random_instance(rng)
        x = nnls(A, y)
        assert x.min() >= 0.0
        assert kkt_residual(A, y, x) <= 1e-8
        x_pg = pg_oracle(A, y)
        assert loss(A, y, x) <= loss(A, y, x_pg) + 1e-8 * max(1.0, loss(A, y, x_pg))


def test_zero_column_stays_at_zero():
    rng = np.random.default_rng(0)
    A = np.hstack([rng.normal(size=(20, 2)), np.zeros((20, 1))])
    y = rng.normal(size=20)
    x = nnls(A, y)
    assert x[2] == 0.0
    assert kkt_residual(A, y, x) <= 1e-8


def test_badly_scaled_columns():
    # columns spanning eleven orders of magnitude, like raw operation counts
    rng = np.random.default_rng(3)
    n = 200
    flops = rng.uniform(1e8, 1e11, size=n)
    mem = rng.uniform(1e5, 1e8, size=n)
    A = np.column_stack([flops, mem, np.ones(n)])
    y = 3.4e-8 * flops + 4.0e-6 * mem + 8.11
    x = nnls(A, y)
    assert x == pytest.approx([3.4e-8, 4.0e-6, 8.11], rel=1e-6)
    assert kkt_residual(A, y, x) <= 1e-10


def test_shape_validation():
    with pytest.raises(ValueError):
        nnls(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        nnls(np.ones(3), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nonnegative_and_dominates_trivial_fit(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(2, 40))
    n = data.draw(st.integers(1, 4))
    X = rng.uniform(0.0, 10.0, size=(m, n))
    y = rng.uniform(0.1, 10.0, size=m)
    A = np.hstack([X, np.ones((m, 1))])
    x = nnls(A, y)
    assert x.min() >= 0.0
    # feasible comparison point: zero weights, intercept at the mean
    baseline = np.zeros(n + 1)
    baseline[-1] = y.mean()
    assert loss(A, y, x) <= loss(A, y, baseline) + 1e-9 * max(1.0, loss(A, y, baseline))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-12, 12))
def test_time_unit_scales_the_solution_and_keeps_its_support(seed, exponent):
    # the unit of y (seconds, milliseconds, cycles) must not decide which
    # coefficients are zero
    A, y = random_instance(np.random.default_rng(seed))
    unit = 10.0**exponent
    x = nnls(A, y)
    scaled = nnls(A, y * unit)
    assert (scaled > 0).tolist() == (x > 0).tolist()
    assert scaled == pytest.approx(x * unit, rel=1e-9, abs=1e-9 * unit * x.max(initial=0.0))
