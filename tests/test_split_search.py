"""The batched split search picks exactly what scoring every candidate picks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layertime import tree
from layertime.layers import LayerKind
from layertime.tree import (
    Dataset,
    FitParams,
    _best_split,
    _Split,
    _tie_break_key,
    _weighted_impurity,
    enumerate_conditions,
    fit_tree,
    nnls_fit,
    save_model,
)
from test_tree import planted_cnn_dataset, planted_depth2_model


def reference_best_split(dataset: Dataset, params: FitParams) -> _Split | None:
    """Fit both sides of every candidate row-exact and keep the best."""
    candidates = enumerate_conditions(dataset, params)
    if not candidates:
        return None
    splits = []
    for condition in candidates:
        mask = condition.holds(dataset.features)
        left_fit = nnls_fit(dataset.subset(mask))
        right_fit = nnls_fit(dataset.subset(~mask))
        splits.append(
            _Split(
                condition=condition,
                mask=mask,
                left_fit=left_fit,
                right_fit=right_fit,
                impurity=_weighted_impurity(
                    left_fit.n, left_fit.mse, right_fit.n, right_fit.mse
                ),
            )
        )
    best = min(split.impurity for split in splits)
    threshold = best + 1e-12 * abs(best)
    eligible = [split for split in splits if split.impurity <= threshold]
    return min(eligible, key=lambda split: _tie_break_key(split.condition))


def assert_same_fit(a, b):
    assert a.w.tobytes() == b.w.tobytes()
    assert (a.b, a.n, a.mape, a.mse) == (b.b, b.n, b.mape, b.mse)


@st.composite
def split_datasets(draw):
    """Small datasets with the degenerate columns that make masks and fits tie.

    Features hold a duplicated column, so identical masks tie exactly.  The
    explanatory columns may add a constant, a duplicated and an all-zero
    column to one or two random ones.  Times follow one law, a planted
    two-regime law, or either with noise.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(12, 120))
    rng = np.random.default_rng(seed)
    base = rng.integers(1, draw(st.sampled_from([8, 40, 300])), size=(n, 2)).astype(float)
    features = np.column_stack([base, base[:, 0]])
    random_cols = rng.uniform(0.0, 10.0, size=(n, draw(st.integers(1, 2))))
    extra = []
    if draw(st.booleans()):
        extra.append(np.full(n, 3.0))
    if draw(st.booleans()):
        extra.append(random_cols[:, 0])
    if draw(st.booleans()):
        extra.append(np.zeros(n))
    explanatory = np.column_stack([random_cols, *extra])
    weights = rng.uniform(0.0, 2.0, size=explanatory.shape[1])
    weights[rng.random(weights.shape[0]) < 0.3] = 0.0
    times = explanatory @ weights + rng.uniform(0.5, 3.0)
    law = draw(st.sampled_from(["single", "planted"]))
    if law == "planted":
        regime = base[:, 0] % draw(st.sampled_from([2, 3, 4])) == 0
        times = np.where(regime, 2.5 * times + 1.0, times)
    noise = draw(st.sampled_from([0.0, 1e-9, 0.05]))
    times = times * (1.0 + noise * rng.standard_normal(n))
    times = np.maximum(times, 1e-3)
    return Dataset(kind=LayerKind.FC, features=features, explanatory=explanatory, times=times)


@settings(max_examples=60, deadline=None)
@given(dataset=split_datasets(), min_leaf=st.integers(2, 10))
def test_batched_split_matches_reference(dataset, min_leaf):
    params = FitParams(min_leaf=min_leaf)
    expected = reference_best_split(dataset, params)
    actual = _best_split(dataset, params)
    if expected is None:
        assert actual is None
        return
    assert actual.condition == expected.condition
    assert np.array_equal(actual.mask, expected.mask)
    assert actual.impurity == expected.impurity
    assert_same_fit(actual.left_fit, expected.left_fit)
    assert_same_fit(actual.right_fit, expected.right_fit)


def test_fitted_tree_bytes_match_reference(monkeypatch):
    rng = np.random.default_rng(3)
    planted = planted_cnn_dataset(planted_depth2_model(), 600, seed=21)
    noisy = Dataset(
        kind=planted.kind,
        features=planted.features,
        explanatory=planted.explanatory,
        times=planted.times * (1.0 + 0.02 * rng.standard_normal(len(planted))),
    )
    params = FitParams(max_depth=4, mape_stop=0.01)
    batched = [save_model(fit_tree(ds, params)) for ds in (planted, noisy)]
    monkeypatch.setattr(tree, "_best_split", reference_best_split)
    reference = [save_model(fit_tree(ds, params)) for ds in (planted, noisy)]
    assert batched == reference
