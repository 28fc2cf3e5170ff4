"""The array fit path matches, bit for bit, the per-record and per-candidate code it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertime.layers import (
    LayerKind,
    Padding,
    cnn,
    derive_explanatory,
    derive_features,
    fc,
    gru,
    lstm,
)
from layertime.tree import (
    _SINGULAR,
    Condition,
    ConditionKind,
    Dataset,
    FitParams,
    _batched_nnls_sse,
    _candidates,
    enumerate_conditions,
)
from test_split_search import split_datasets

# up to 2**20 per field, so the products in param_size and flops pass 2**31
sizes = st.integers(1, 2**20)


@st.composite
def cnn_configs(draw):
    in_height, in_width = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    padding = draw(st.sampled_from(list(Padding)))
    kernel_limit = (in_height, in_width) if padding is Padding.VALID else (9, 9)
    return cnn(
        in_height,
        in_width,
        draw(st.integers(1, kernel_limit[0])),
        draw(st.integers(1, kernel_limit[1])),
        draw(sizes),
        draw(sizes),
        stride=draw(st.sampled_from([1, 2])),
        padding=padding,
    )


configs_by_kind = {
    LayerKind.FC: st.builds(fc, sizes, sizes),
    LayerKind.CNN: cnn_configs(),
    LayerKind.GRU: st.builds(gru, sizes, sizes, st.integers(1, 512)),
    LayerKind.LSTM: st.builds(lstm, sizes, sizes, st.integers(1, 512)),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(LayerKind)))
def test_from_records_matches_stacked_vectors(data, kind):
    configs = data.draw(st.lists(configs_by_kind[kind], min_size=0, max_size=12))
    # products of fields up to 2**20 may reach 2**53, where derivation refuses
    # a config: then so does from_records, and the rest are compared
    inside = []
    for config in configs:
        try:
            derive_features(config)
        except ValueError:
            continue
        inside.append(config)
    if len(inside) < len(configs):
        with pytest.raises(ValueError, match=f"^{kind.value} config has a size too large"):
            Dataset.from_records(kind, configs, [1.0] * len(configs))
    configs = inside
    times = [1.0 + i for i in range(len(configs))]
    dataset = Dataset.from_records(kind, configs, times)
    n_features, n_vars = dataset.features.shape[1], dataset.explanatory.shape[1]
    expected_features = np.array(
        [derive_features(c).as_array() for c in configs], dtype=float
    ).reshape(-1, n_features)
    expected_explanatory = np.array(
        [derive_explanatory(c).as_array() for c in configs], dtype=float
    ).reshape(-1, n_vars)
    assert dataset.features.shape == expected_features.shape
    assert dataset.explanatory.shape == expected_explanatory.shape
    assert dataset.features.tobytes() == expected_features.tobytes()
    assert dataset.explanatory.tobytes() == expected_explanatory.tobytes()


def test_from_records_covers_valid_padding_stride_two_and_large_products():
    configs = [
        cnn(7, 9, 3, 5, 2**18, 2**17, stride=2, padding="valid"),
        cnn(8, 8, 8, 8, 3, 5, stride=2, padding="valid"),
        cnn(31, 17, 4, 2, 2**20, 2**20, stride=2, padding="same"),
    ]
    dataset = Dataset.from_records(LayerKind.CNN, configs, [1.0, 2.0, 3.0])
    for row, config in zip(dataset.features, configs):
        assert row.tobytes() == derive_features(config).as_array().tobytes()
    for row, config in zip(dataset.explanatory, configs):
        assert row.tobytes() == derive_explanatory(config).as_array().tobytes()
    assert dataset.explanatory[:, 0].max() > 2**31


def reference_conditions(dataset: Dataset, params: FitParams) -> list[Condition]:
    """Per-feature, per-tau candidate loop, as the split search once ran it."""
    n = len(dataset)
    conditions: list[Condition] = []
    quantile_levels = np.linspace(0.0, 1.0, params.range_quantiles + 2)[1:-1]
    for j in range(dataset.features.shape[1]):
        column = dataset.features[:, j]
        if n == 0 or column.min() == column.max():
            continue
        for tau in params.multiple_taus:
            n_left = int((column % tau == 0).sum())
            if params.min_leaf <= n_left <= n - params.min_leaf:
                conditions.append(Condition(j, tau, ConditionKind.MULTIPLE))
        for tau in np.unique(np.quantile(column, quantile_levels)):
            if tau <= 0:
                continue
            n_left = int((column <= tau).sum())
            if params.min_leaf <= n_left <= n - params.min_leaf:
                conditions.append(Condition(j, float(tau), ConditionKind.RANGE))
    return conditions


fit_params = st.builds(
    FitParams,
    min_leaf=st.integers(2, 12),
    multiple_taus=st.lists(st.integers(2, 40), max_size=6).map(tuple),
    range_quantiles=st.integers(0, 20),
)


@settings(max_examples=80, deadline=None)
@given(dataset=split_datasets(), params=fit_params)
def test_candidates_match_per_tau_loop_and_holds(dataset, params):
    conditions, masks = _candidates(dataset, params)
    assert conditions == reference_conditions(dataset, params)
    assert enumerate_conditions(dataset, params) == conditions
    assert masks.dtype == bool and masks.shape == (len(conditions), len(dataset))
    for condition, mask in zip(conditions, masks):
        assert np.array_equal(mask, condition.holds(dataset.features))


def test_candidates_of_an_empty_dataset():
    empty = Dataset(kind=LayerKind.FC, features=np.zeros((0, 2)),
                    explanatory=np.zeros((0, 2)), times=np.zeros(0))
    conditions, masks = _candidates(empty, FitParams())
    assert conditions == [] and masks.shape == (0, 0)


def reference_nnls_sse(gram: np.ndarray, aty: np.ndarray, yty: np.ndarray) -> np.ndarray:
    """One batched solve per column support, as the split search once ran it."""
    k = aty.shape[1]
    norm = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    nonzero = norm > 0.0
    norm = np.where(nonzero, norm, 1.0)
    unit = gram / (norm[:, :, None] * norm[:, None, :])
    scaled_aty = aty / norm
    robust = np.linalg.eigvalsh(unit)[:, 0] > _SINGULAR
    best = yty.copy()
    for bits in range(1, 2**k):
        cols = [j for j in range(k) if bits >> j & 1]
        g = unit[:, cols][:, :, cols]
        ok = nonzero[:, cols].all(axis=1)
        check = ok & ~robust
        if check.any():
            ok[check] = np.linalg.eigvalsh(g[check])[:, 0] > _SINGULAR
        g[~ok] = np.eye(len(cols))
        b = scaled_aty[:, cols]
        z = np.linalg.solve(g, b[:, :, None])[:, :, 0]
        ok &= (z > 0.0).all(axis=1)
        sse = yty - 2.0 * (b * z).sum(axis=1) + np.einsum("bi,bij,bj->b", z, g, z)
        best = np.where(ok & (sse < best), sse, best)
    return best


# The split search always passes both sides of at least one candidate, so a
# batch holds two problems or more.  einsum's summation order follows the
# memory layout, and for a lone problem the two layouts can be summed in
# different orders, which changes the last bit.
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(2, 40),
    k=st.integers(1, 5),
    rows=st.integers(1, 30),
    degenerate=st.sampled_from(["none", "zero", "duplicate", "both"]),
)
def test_batched_nnls_sse_matches_per_support_loop(seed, batch, k, rows, degenerate):
    rng = np.random.default_rng(seed)
    design = rng.uniform(0.0, 1.0, size=(batch, rows, k))
    if degenerate in ("zero", "both"):
        design[rng.random(batch) < 0.5, :, rng.integers(k)] = 0.0
    if degenerate in ("duplicate", "both") and k > 1:
        a, b = rng.choice(k, size=2, replace=False)
        design[:, :, b] = design[:, :, a]
    target = design @ rng.normal(0.5, 1.0, size=k) + rng.normal(0.0, 0.3, size=(batch, rows))
    gram = np.einsum("bri,brj->bij", design, design)
    aty = np.einsum("bri,br->bi", design, target)
    yty = np.einsum("br,br->b", target, target)
    expected = reference_nnls_sse(gram, aty, yty)
    assert _batched_nnls_sse(gram, aty, yty).tobytes() == expected.tobytes()


def test_batched_nnls_sse_solves_each_support_size_once(monkeypatch):
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    rng = np.random.default_rng(0)
    design = rng.uniform(size=(6, 20, 5))
    target = rng.uniform(size=(6, 20))
    _batched_nnls_sse(
        np.einsum("bri,brj->bij", design, design),
        np.einsum("bri,br->bi", design, target),
        np.einsum("br,br->b", target, target),
    )
    # one per support size, not one per each of the 31 supports
    assert len(calls) == 5
