"""The column-wise split search and routing match the per-feature and per-node code they replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_config, random_tree_model
from layertime import tree
from layertime.layers import LayerKind, derive_features, feature_names
from layertime.tree import (
    ConditionKind,
    Dataset,
    FitParams,
    TimeModel,
    _candidates,
    _holds,
    _multiple_masks,
)
from test_fit_path import fit_params, reference_conditions
from test_tree import feature_split_tree

MULTIPLE = ConditionKind.MULTIPLE

# integers a float holds exactly, negative ones and zero included
exact = st.one_of(st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-300, 300))
# floats the int64 path must leave to _holds: fractions, and integers at or above 2**53
inexact = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != int(v)),
    st.sampled_from([2.0**53, -(2.0**53), 2.0**53 + 2, 2.0**60, 2.0**63, 2.0**64, 1e20, -1e300]),
)


@st.composite
def columns(draw, n_columns=st.integers(1, 6), n_rows=st.integers(1, 30)):
    """(features, rows) columns, each all exact integers or holding some inexact values."""
    n, width = draw(n_rows), draw(n_columns)
    out = []
    for _ in range(width):
        column = draw(st.lists(exact.map(float), min_size=n, max_size=n))
        if draw(st.booleans()):
            column[draw(st.integers(0, n - 1))] = draw(inexact)
        out.append(column)
    return np.array(out, dtype=float)


moduli = st.lists(
    st.one_of(st.integers(2, 300), st.sampled_from([2**31, 2**53 - 1, 2**53 + 1, 2**70])),
    max_size=9,
).map(lambda taus: np.array(taus, dtype=float))


@settings(max_examples=300, deadline=None)
@given(values=columns(), taus=moduli)
def test_integer_masks_match_holds(values, taus):
    expected = _holds(MULTIPLE, taus[:, None, None], values)
    got = _multiple_masks(values, taus)
    assert got.dtype == bool and got.shape == expected.shape
    assert np.array_equal(got, expected)


@settings(max_examples=100, deadline=None)
@given(values=columns(), taus=moduli)
def test_values_at_or_above_two_to_the_53_go_through_holds(values, taus):
    seen = []
    holds = tree._holds

    def spy(kind, tau, value):
        seen.append(value.copy())
        return holds(kind, tau, value)

    tree._holds = spy
    try:
        _multiple_masks(values, taus)
    finally:
        tree._holds = holds
    [passed] = seen
    # each column reaches _holds unless it is exact integers under exact moduli
    exact_columns = (values == np.trunc(values)) & (np.abs(values) < 2.0**53)
    integral = exact_columns.all(axis=1) & (taus.size > 0 and taus.max() < 2.0**53)
    assert np.array_equal(passed, values[~integral])


@st.composite
def mixed_datasets(draw):
    """Datasets whose feature columns may be negative, fractional or beyond 2**53."""
    values = draw(columns(n_columns=st.integers(1, 4), n_rows=st.integers(4, 60)))
    n = values.shape[1]
    return Dataset(kind=LayerKind.FC, features=values.T, explanatory=np.ones((n, 1)),
                   times=np.ones(n))


@settings(max_examples=150, deadline=None)
@given(dataset=mixed_datasets(), params=fit_params)
def test_candidates_on_mixed_columns_match_the_per_tau_loop(dataset, params):
    conditions, masks = _candidates(dataset, params)
    assert conditions == reference_conditions(dataset, params)
    assert masks.shape == (len(conditions), len(dataset))
    for i, condition in enumerate(reference_conditions(dataset, params)):
        assert np.array_equal(masks[i], condition.holds(dataset.features))


def test_candidates_build_only_the_conditions_that_are_read(monkeypatch):
    built = []
    condition = tree.Condition
    monkeypatch.setattr(tree, "Condition", lambda *a: built.append(a) or condition(*a))
    features = np.arange(1, 201, dtype=float).reshape(-1, 2)
    dataset = Dataset(kind=LayerKind.FC, features=features, explanatory=np.ones((100, 1)),
                      times=np.ones(100))
    conditions, _ = _candidates(dataset, FitParams())
    assert len(conditions) > 10 and built == []
    conditions[3]
    assert len(built) == 1


def holds_walk(model: TimeModel, features: np.ndarray):
    """``route_features`` as it once walked: ``Condition.holds`` on the array row, node by node."""
    node = model.root
    while not node.is_leaf:
        node = node.left if bool(node.condition.holds(features)) else node.right
    return node


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_route_features_reaches_the_leaf_of_the_holds_walk(kind, seed):
    rng = np.random.default_rng(seed)
    n = len(feature_names(kind))
    for _ in range(10):
        row = derive_features(random_config(rng, kind)).as_array()
        # a row of any floats too: zeros, fractions and negative values
        noise = rng.choice([0.0, -1.5, 2.5, 1e17], size=n) * (rng.random(n) < 0.3)
        for features in (row, row + noise):
            for model in (
                random_tree_model(rng, kind),
                TimeModel(kind=kind, root=feature_split_tree(rng, kind, features.tolist())),
            ):
                assert model.route_features(features) is holds_walk(model, features)
