"""Condition enumeration, impurity, tree growth, prediction, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    B_FALSE,
    B_TRUE,
    IN_CHANNEL,
    OUT_CHANNEL,
    W_FALSE,
    W_TRUE,
    leaf,
    random_config,
    random_tree_model,
)
from layertime import layers, tree
from layertime.layers import (
    PADDING_CODES,
    RECURRENT_KINDS,
    LayerKind,
    cnn,
    derive_explanatory,
    derive_features,
    fc,
)
from layertime.nnls import NumericError
from layertime.tree import (
    Condition,
    ConditionKind,
    Dataset,
    FitParams,
    LinearFit,
    ModelFormatError,
    Node,
    TimeModel,
    _weighted_impurity,
    enumerate_conditions,
    fit_tree,
    impurity,
    load_model,
    load_models,
    model_to_dict,
    nnls_fit,
    partition,
    save_model,
    save_models,
)

MULTIPLE = ConditionKind.MULTIPLE
RANGE = ConditionKind.RANGE


def synthetic_dataset(features, explanatory, times, kind=LayerKind.FC):
    return Dataset(
        kind=kind,
        features=np.asarray(features, dtype=float),
        explanatory=np.asarray(explanatory, dtype=float),
        times=np.asarray(times, dtype=float),
    )


def random_cnn_configs(rng, n):
    kernels = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 3)]
    configs = []
    for _ in range(n):
        kh, kw = kernels[int(rng.integers(0, len(kernels)))]
        configs.append(
            cnn(
                in_height=int(rng.integers(24, 226)),
                in_width=int(rng.integers(24, 226)),
                kernel_height=kh,
                kernel_width=kw,
                in_channel=int(rng.integers(1, 257)),
                out_channel=int(rng.integers(1, 257)),
                stride=int(rng.choice([1, 2])),
                padding=str(rng.choice(["valid", "same"])),
            )
        )
    return configs


def planted_depth2_model():
    root = Node(
        fit=LinearFit(w=np.array([3.2e-8, 6e-6, 0.0]), b=10.0, n=0, mape=1.0, mse=1.0),
        condition=Condition(IN_CHANNEL, 4, MULTIPLE),
        left=leaf(W_TRUE, B_TRUE),
        right=Node(
            fit=LinearFit(w=np.array([3.1e-8, 7e-6, 0.0]), b=11.5, n=0, mape=1.0, mse=1.0),
            condition=Condition(OUT_CHANNEL, 4, MULTIPLE),
            left=leaf((3.11e-8, 6.0e-6, 0.0), 10.5),
            right=leaf(W_FALSE, B_FALSE),
        ),
    )
    return TimeModel(kind=LayerKind.CNN, root=root)


def planted_cnn_dataset(model, n, seed):
    rng = np.random.default_rng(seed)
    configs = random_cnn_configs(rng, n)
    times = [model.predict(c) for c in configs]
    return Dataset.from_records(LayerKind.CNN, configs, times)


# --- conditions and datasets ---------------------------------------------------


def test_multiple_condition_requires_integer_tau():
    with pytest.raises(ValueError):
        Condition(0, 1, MULTIPLE)
    with pytest.raises(ValueError):
        Condition(0, 2.5, MULTIPLE)
    assert Condition(0, 4.0, MULTIPLE).tau == 4


_VALID_FIELDS = {
    Condition: {"feature_index": 0, "tau": 4, "kind": MULTIPLE},
    LinearFit: {"w": [1e-8, 1e-6, 0.0], "b": 1.0, "n": 0, "mape": 0.0, "mse": 0.0},
    FitParams: {},
}


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (Condition, "feature_index", True),
        (Condition, "feature_index", 2.9),
        (Condition, "tau", "4"),
        (Condition, "tau", True),
        (Condition, "tau", 10**400),
        (LinearFit, "w", [3.3e-8, True, 0]),
        (LinearFit, "w", ["1", 0, 0]),
        (LinearFit, "b", "11"),
        (LinearFit, "b", True),
        (LinearFit, "b", 10**400),
        (LinearFit, "n", 2.7),
        (LinearFit, "n", -1),
        (LinearFit, "mape", "nan"),
        (FitParams, "multiple_taus", {}),
        (FitParams, "multiple_taus", ""),
    ],
    ids=lambda value: getattr(value, "__name__", repr(value)[:20]),
)
def test_value_types_check_their_own_fields(cls, field, value):
    with pytest.raises(ValueError):
        cls(**{**_VALID_FIELDS[cls], field: value})


def test_value_types_store_numpy_numbers_as_python_numbers():
    condition = Condition(np.int64(2), np.float64(4.0), MULTIPLE)
    assert (type(condition.feature_index), type(condition.tau)) == (int, int)
    # a fit's errors need not be finite, so a saved fit always reloads
    fit = LinearFit(w=np.array([1, 2, 0]), b=np.float32(0.5), n=np.int64(3),
                    mape=float("inf"), mse=float("nan"))
    assert fit.w.dtype == float and (type(fit.b), type(fit.n)) == (float, int)


def test_range_condition_requires_positive_tau():
    with pytest.raises(ValueError):
        Condition(0, 0.0, RANGE)


def test_condition_holds_on_rows_and_matrices():
    cond = Condition(1, 4, MULTIPLE)
    features = np.array([[0.0, 8.0], [0.0, 9.0]])
    assert list(cond.holds(features)) == [True, False]
    assert bool(cond.holds(features[0])) is True


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(0, 2**24).map(float), min_size=1, max_size=8),
    kind=st.sampled_from(list(ConditionKind)),
    range_tau=st.floats(1e-3, 2.0**25),
    multiple_tau=st.integers(2, 4096),
)
def test_scalar_predicate_agrees_with_condition_holds(values, kind, range_tau, multiple_tau):
    # the route on Python floats and the masks on arrays share one predicate
    cond = Condition(1, multiple_tau if kind is MULTIPLE else range_tau, kind)
    expected = [tree._holds(cond.kind, cond.tau, v) for v in values]
    assert all(type(h) is bool for h in expected)
    matrix = np.column_stack([np.zeros(len(values)), values])
    assert cond.holds(matrix).tolist() == expected
    assert [bool(cond.holds(row)) for row in matrix] == expected


@pytest.mark.parametrize("kind", ["multiple", "range", None, 0, ConditionKind], ids=repr)
def test_condition_kind_must_be_a_condition_kind(kind):
    # a text kind once built with an unchecked tau, and holds took it as multiple
    with pytest.raises(ValueError, match="condition kind must be a ConditionKind"):
        Condition(0, 4.5, kind)


def test_dataset_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        synthetic_dataset([[1.0]], [[1.0]], [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["features", "explanatory", "times"])
def test_dataset_rejects_non_finite_values(column, bad):
    values = {"features": [[1.0], [2.0]], "explanatory": [[1.0], [2.0]], "times": [1.0, 2.0]}
    values[column] = np.array(values[column], dtype=float)
    values[column].flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        synthetic_dataset(values["features"], values["explanatory"], values["times"])


def test_dataset_rejects_mixed_kinds():
    with pytest.raises(ValueError):
        Dataset.from_records(LayerKind.FC, [fc(1, 2), cnn(24, 24, 3, 3, 1, 1)], [1.0, 2.0])


# --- nnls_fit -------------------------------------------------------------------


def test_fit_records_errors_on_own_data():
    X = np.array([[1.0], [2.0], [3.0]])
    ds = synthetic_dataset(X, X, [3.0, 5.0, 7.0])
    fit = nnls_fit(ds)
    assert fit.w == pytest.approx([2.0], abs=1e-9)
    assert fit.b == pytest.approx(1.0, abs=1e-9)
    assert fit.mse < 1e-18
    assert fit.mape < 1e-9
    assert fit.n == 3


def test_fit_empty_dataset_is_an_error():
    ds = synthetic_dataset(np.zeros((0, 1)), np.zeros((0, 1)), [])
    with pytest.raises(ValueError):
        nnls_fit(ds)


# --- enumerate_conditions --------------------------------------------------------


def test_constant_feature_yields_no_conditions():
    rng = np.random.default_rng(0)
    features = np.column_stack([np.full(40, 7.0), rng.integers(1, 30, size=40)])
    ds = synthetic_dataset(features, features, rng.uniform(1, 2, size=40))
    conditions = enumerate_conditions(ds, FitParams(min_leaf=5))
    assert all(c.feature_index != 0 for c in conditions)
    assert any(c.feature_index == 1 for c in conditions)


def test_multiple_candidate_present_when_both_classes_populated():
    features = np.arange(1, 101, dtype=float).reshape(-1, 1)
    ds = synthetic_dataset(features, features, np.ones(100))
    conditions = enumerate_conditions(ds, FitParams(min_leaf=15))
    assert any(c.kind is MULTIPLE and c.tau == 4 and c.feature_index == 0 for c in conditions)


def test_small_dataset_has_no_candidates():
    features = np.arange(1, 21, dtype=float).reshape(-1, 1)
    ds = synthetic_dataset(features, features, np.ones(20))
    assert enumerate_conditions(ds, FitParams(min_leaf=15)) == []


def test_candidates_respect_min_leaf_on_both_sides():
    features = np.arange(1, 61, dtype=float).reshape(-1, 1)
    ds = synthetic_dataset(features, features, np.ones(60))
    params = FitParams(min_leaf=20)
    for cond in enumerate_conditions(ds, params):
        left, right = partition(ds, cond)
        assert len(left) >= 20 and len(right) >= 20


# --- partition --------------------------------------------------------------------


def test_partition_by_multiple():
    features = np.array([[3.0], [4.0], [8.0], [9.0]])
    ds = synthetic_dataset(features, features, [1.0, 1.0, 1.0, 1.0])
    left, right = partition(ds, Condition(0, 4, MULTIPLE))
    assert list(left.features[:, 0]) == [4.0, 8.0]
    assert list(right.features[:, 0]) == [3.0, 9.0]


def test_partition_range_boundary_keeps_everything_left():
    features = np.array([[1.0], [2.0], [5.0]])
    ds = synthetic_dataset(features, features, [1.0, 1.0, 1.0])
    left, right = partition(ds, Condition(0, 5.0, RANGE))
    assert len(left) == 3 and len(right) == 0


@settings(max_examples=50)
@given(data=st.data())
def test_partition_sizes_always_sum(data):
    seed = data.draw(st.integers(0, 2**31))
    n = data.draw(st.integers(1, 60))
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 40, size=(n, 3)).astype(float)
    ds = synthetic_dataset(features, features, rng.uniform(1, 5, size=n))
    tau = data.draw(st.integers(2, 8))
    j = data.draw(st.integers(0, 2))
    use_range = data.draw(st.booleans())
    cond = Condition(j, float(tau), RANGE) if use_range else Condition(j, tau, MULTIPLE)
    left, right = partition(ds, cond)
    assert len(left) + len(right) == n
    merged = sorted(map(tuple, np.vstack([left.features, right.features])))
    assert merged == sorted(map(tuple, features))


# --- impurity ----------------------------------------------------------------------


def test_impurity_weighting_matches_hand_arithmetic():
    # a singleton side always fits exactly, so the weighting formula is
    # checked directly on stated side errors
    assert _weighted_impurity(3, 2.0, 1, 6.0) == pytest.approx(3.0)


def test_impurity_zero_for_two_exact_laws():
    rng = np.random.default_rng(5)
    f0 = rng.integers(1, 200, size=120).astype(float)
    x = rng.uniform(1, 10, size=(120, 2))
    on_multiple = f0 % 4 == 0
    times = np.where(on_multiple, x @ [2.0, 0.5] + 1.0, x @ [3.0, 1.5] + 4.0)
    ds = synthetic_dataset(np.column_stack([f0, x]), x, times)
    g = impurity(ds, Condition(0, 4, MULTIPLE))
    assert g == pytest.approx(0.0, abs=1e-12)


def test_impurity_never_exceeds_parent_error():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = 60
        features = rng.integers(1, 50, size=(n, 2)).astype(float)
        x = rng.uniform(0.5, 5.0, size=(n, 2))
        times = x @ rng.uniform(0.1, 2.0, size=2) + rng.uniform(0.5, 2.0) + rng.normal(
            scale=0.3, size=n
        )
        times = np.clip(times, 0.05, None)
        ds = synthetic_dataset(features, x, times)
        parent = nnls_fit(ds).mse
        for cond in enumerate_conditions(ds, FitParams(min_leaf=5)):
            assert impurity(ds, cond) <= parent + 1e-9


def test_impurity_rejects_one_sided_partition():
    features = np.array([[4.0], [8.0]])
    ds = synthetic_dataset(features, features, [1.0, 1.0])
    with pytest.raises(ValueError):
        impurity(ds, Condition(0, 4, MULTIPLE))


# --- fit_tree -----------------------------------------------------------------------


def test_exactly_linear_data_fits_a_single_leaf():
    rng = np.random.default_rng(2)
    configs = random_cnn_configs(rng, 80)
    x = np.array([derive_explanatory(c).as_array() for c in configs])
    times = 3.0e-8 * x[:, 0] + 10.0
    ds = Dataset.from_records(LayerKind.CNN, configs, times)
    model = fit_tree(ds)
    assert model.root.is_leaf
    assert model.n_nodes == 1


def test_planted_conditions_recovered_exactly():
    planted = planted_depth2_model()
    ds = planted_cnn_dataset(planted, 700, seed=42)
    model = fit_tree(ds, FitParams())
    assert model.root.condition == Condition(IN_CHANNEL, 4, MULTIPLE)
    assert model.root.left.is_leaf
    assert model.root.right.condition == Condition(OUT_CHANNEL, 4, MULTIPLE)
    predictions = model.predict_rows(ds.features, ds.explanatory)
    assert float(np.mean(np.abs(predictions - ds.times) / ds.times)) < 1e-9


def test_planted_depth1_recovery():
    root = Node(
        fit=LinearFit(w=np.array([1e-8, 1e-6, 0.0]), b=1.0, n=0, mape=1.0, mse=1.0),
        condition=Condition(OUT_CHANNEL, 8, MULTIPLE),
        left=leaf((2.0e-8, 1.0e-6, 0.0), 2.0),
        right=leaf((6.0e-8, 4.0e-6, 0.0), 9.0),
    )
    planted = TimeModel(kind=LayerKind.CNN, root=root)
    ds = planted_cnn_dataset(planted, 500, seed=9)
    model = fit_tree(ds)
    assert model.root.condition == Condition(OUT_CHANNEL, 8, MULTIPLE)


def _support(model):
    return [(node.condition, (node.fit.w > 0).tolist(), node.fit.b > 0) for _, node in model.nodes()]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-12, 12))
def test_time_unit_keeps_the_tree_and_scales_its_predictions(seed, exponent):
    # a profile in seconds, milliseconds or cycles grows the same tree, with
    # the same NNLS support in every node
    from layertime.harness import default_oracle, generate_plan, synth_profile

    unit = 10.0**exponent
    samples = synth_profile(default_oracle(noise=0.02, seed=seed), generate_plan(seed=seed))
    for kind in LayerKind:
        kept = [s for s in samples if s.config.kind is kind]
        ds = Dataset.from_records(kind, [s.config for s in kept], [s.time_ms for s in kept])
        model = fit_tree(ds)
        scaled = fit_tree(Dataset(kind, ds.features, ds.explanatory, ds.times * unit))
        assert _support(scaled) == _support(model)
        assert scaled.predict_rows(ds.features, ds.explanatory) == pytest.approx(
            unit * model.predict_rows(ds.features, ds.explanatory), rel=1e-9
        )


def test_small_dataset_fits_single_leaf():
    planted = planted_depth2_model()
    ds = planted_cnn_dataset(planted, 14, seed=3)
    model = fit_tree(ds, FitParams(min_leaf=15))
    assert model.n_nodes == 1


def test_fit_is_deterministic():
    planted = planted_depth2_model()
    ds = planted_cnn_dataset(planted, 300, seed=8)
    assert save_model(fit_tree(ds)) == save_model(fit_tree(ds))


def test_children_counts_partition_parent():
    planted = planted_depth2_model()
    ds = planted_cnn_dataset(planted, 400, seed=21)
    model = fit_tree(ds)
    internals = 0
    for _, node in model.nodes():
        if not node.is_leaf:
            internals += 1
            assert node.left.fit.n + node.right.fit.n == node.fit.n
            weighted = _weighted_impurity(
                node.left.fit.n, node.left.fit.mse, node.right.fit.n, node.right.fit.mse
            )
            assert weighted <= node.fit.mse + 1e-9
    assert internals >= 2


def test_max_depth_caps_growth():
    rng = np.random.default_rng(12)
    n = 400
    features = rng.integers(1, 100, size=(n, 2)).astype(float)
    x = rng.uniform(0.5, 5.0, size=(n, 2))
    times = np.clip(x @ [1.0, 0.5] + rng.normal(scale=2.0, size=n) + 3.0, 0.01, None)
    ds = synthetic_dataset(features, x, times)
    model = fit_tree(ds, FitParams(mape_stop=1e-9, min_leaf=2, max_depth=2))
    depths = []

    def walk(node, depth):
        if node.is_leaf:
            depths.append(depth)
        else:
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(model.root, 0)
    assert max(depths) <= 2


def test_fit_params_validation():
    with pytest.raises(ValueError):
        FitParams(mape_stop=0.0)
    with pytest.raises(ValueError):
        FitParams(min_leaf=1)


BAD_FIT_PARAMS = [
    {"mape_stop": float("nan")},
    {"mape_stop": float("inf")},
    {"mape_stop": -0.1},
    {"mape_stop": "0.1"},
    {"mape_stop": True},
    {"min_leaf": 1},
    {"min_leaf": 15.0},
    {"min_leaf": True},
    {"max_depth": -5},
    {"max_depth": "x"},
    {"max_depth": 2.5},
    {"multiple_taus": (1,)},
    {"multiple_taus": (2, 4.0)},
    {"multiple_taus": (True,)},
    {"range_quantiles": -1},
    {"range_quantiles": None},
]


@pytest.mark.parametrize("fields", BAD_FIT_PARAMS, ids=repr)
def test_fit_params_reject_every_bad_field(fields):
    with pytest.raises(ValueError):
        FitParams(**fields)


@pytest.mark.parametrize("fields", BAD_FIT_PARAMS, ids=repr)
def test_load_models_rejects_every_bad_fit_param(fields):
    import json

    doc = model_to_dict(planted_depth2_model())
    doc["fit_params"].update({k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()})
    # NaN and Infinity are not JSON, but Python's reader accepts them
    with pytest.raises(ModelFormatError):
        load_models(json.dumps(doc))


def test_fit_params_accept_the_edges_of_their_ranges():
    params = FitParams(mape_stop=1e-300, min_leaf=2, max_depth=0, multiple_taus=(),
                       range_quantiles=0)
    assert (params.max_depth, params.range_quantiles, params.multiple_taus) == (0, 0, ())
    assert FitParams(multiple_taus=[np.int64(2), 3]).multiple_taus == (2, 3)


# --- predict ------------------------------------------------------------------------


def test_single_leaf_prediction():
    model = TimeModel(kind=LayerKind.FC, root=leaf((2.0, 0.0, 0.0), 1.0))
    config = fc(2, 1)  # flops = 5
    assert derive_explanatory(config).flops == 5
    assert model.predict(config) == pytest.approx(11.0)


def test_routing_by_channel_multiplicity(reference_model):
    on = cnn(24, 24, 3, 3, 8, 16)
    off = cnn(24, 24, 3, 3, 9, 16)
    x_on = derive_explanatory(on).as_array()
    x_off = derive_explanatory(off).as_array()
    assert reference_model.predict(on) == pytest.approx(
        float(np.dot(W_TRUE, x_on) + B_TRUE)
    )
    assert reference_model.predict(off) == pytest.approx(
        float(np.dot(W_FALSE, x_off) + B_FALSE)
    )


def test_reference_prediction_at_44_64(reference_model):
    value = reference_model.predict(cnn(24, 24, 3, 3, 44, 64))
    assert value == pytest.approx(10.27, abs=0.05)


def test_predict_rejects_kind_mismatch(reference_model):
    with pytest.raises(ValueError):
        reference_model.predict(fc(3, 5))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_prediction_is_a_numeric_error():
    # finite weights whose product with a real config overflows
    model = TimeModel(kind=LayerKind.CNN, root=leaf((1e303, 0.0, 0.0), 1.0))
    config = cnn(24, 24, 3, 3, 44, 64)
    with pytest.raises(NumericError, match="non-finite"):
        model.predict(config)
    # one finite row, then the overflowing one
    configs = (cnn(8, 8, 1, 1, 1, 1), config)
    features = np.stack([derive_features(c).as_array() for c in configs])
    explanatory = np.stack([derive_explanatory(c).as_array() for c in configs])
    with pytest.raises(NumericError, match="non-finite"):
        model.predict_rows(features, explanatory)


@pytest.mark.parametrize("n_features, n_explanatory", [(3, 5), (5, 3)])
def test_predict_rows_rejects_unequal_row_counts(reference_model, n_features, n_explanatory):
    configs = [cnn(24, 24, 3, 3, c, 64) for c in range(40, 45)]
    features = np.stack([derive_features(c).as_array() for c in configs])
    explanatory = np.stack([derive_explanatory(c).as_array() for c in configs])
    with pytest.raises(ValueError, match="row count"):
        reference_model.predict_rows(features[:n_features], explanatory[:n_explanatory])


def test_prediction_positive_when_fit_contributes():
    rng = np.random.default_rng(6)
    for _ in range(50):
        b = float(rng.uniform(0.01, 5.0))
        w = rng.uniform(0.0, 1e-6, size=3)
        model = TimeModel(kind=LayerKind.CNN, root=leaf(w, b))
        config = random_cnn_configs(rng, 1)[0]
        assert model.predict(config) > 0.0


# The two-derivation predict that deriving once replaced, with the feature
# and explanatory builders it called, kept as the reference.


def reference_feature_values(config):
    values = []
    for name in layers._FIELDS_BY_KIND[config.kind]:
        raw = getattr(config, name)
        values.append(float(PADDING_CODES[raw] if name == "padding" else raw))
    values.extend(map(float, layers._derived(config)[:4]))
    return values


def reference_explanatory_values(config):
    mem_in, mem_out, mem_inter, param_size, flops = layers._derived(config)
    values = [float(flops), float(mem_in + mem_out + mem_inter), float(param_size)]
    if config.kind in RECURRENT_KINDS:
        values.append(float(config.step))
    return values


def reference_predict(model, config):
    features = np.asarray(tuple(reference_feature_values(config)), dtype=float)
    explanatory = np.asarray(reference_explanatory_values(config), dtype=float)
    return float(model.route_features(features).fit.predict(explanatory))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_predict_is_bit_identical_to_the_two_derivation_reference(kind, seed):
    rng = np.random.default_rng(seed)
    model = random_tree_model(rng, kind)
    for _ in range(20):
        config = random_config(rng, kind)
        assert model.predict(config).hex() == reference_predict(model, config).hex()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_split_row_is_bit_identical_to_the_reference_builders(kind, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        config = random_config(rng, kind)
        features, explanatory = layers._split_row(config)
        for got, expected in (
            (features, reference_feature_values(config)),
            (explanatory, reference_explanatory_values(config)),
        ):
            assert type(got) is list and [type(v) for v in got] == [float] * len(expected)
            assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_predict_derives_once(monkeypatch, reference_model):
    calls = []
    derived = layers._derived
    monkeypatch.setattr(layers, "_derived", lambda config: calls.append(config) or derived(config))
    config = cnn(24, 24, 3, 3, 43, 64)
    for n in (1, 2, 3):
        reference_model.predict(config)
        assert len(calls) == n


_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
)
_SIZES = st.one_of(st.integers(0, 2**53), st.integers(0, 2**20)).map(float)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=400, deadline=None)
@given(data=st.data(), k=st.sampled_from([3, 4]), b=_WEIGHTS)
def test_one_row_leaf_law_is_bit_identical_to_the_matrix_law(data, k, b):
    w = data.draw(st.lists(_WEIGHTS, min_size=k, max_size=k), label="w")
    x = data.draw(st.lists(_SIZES, min_size=k, max_size=k), label="x")
    fit = LinearFit(w=np.array(w), b=b, n=0, mape=0.0, mse=0.0)
    expected = float(fit.predict(np.array(x))).hex()
    # the rows the price and the walk pass are lists of Python floats
    assert tree._leaf_time(fit, x).hex() == expected
    assert tree._leaf_time(fit, np.array(x)).hex() == expected


def matrix_law_predict(model, config):
    """``TimeModel.predict`` as it was before its leaf law moved to ``w.dot``: one-row ``@``."""
    if config.kind is not model.kind:
        raise ValueError(f"model fits {model.kind.value} layers, got {config.kind.value}")
    features, explanatory = layers._split_row(config)
    leaf = tree._route(model.root, features)
    time = float(leaf.fit.predict(np.array(explanatory)))
    if not np.isfinite(time):
        raise NumericError(f"{model.kind.value} model predicts a non-finite time ({time})")
    return time


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_predict_is_bit_identical_to_the_matrix_law_predict(kind, seed):
    from layertime.harness import default_oracle

    rng = np.random.default_rng(seed)
    for model in (random_tree_model(rng, kind), default_oracle().models[kind]):
        for _ in range(20):
            config = random_config(rng, kind)
            assert model.predict(config).hex() == matrix_law_predict(model, config).hex()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_predict_rows_is_bit_identical_to_predict(kind, seed):
    from layertime.harness import default_oracle

    rng = np.random.default_rng(seed)
    configs = [random_config(rng, kind) for _ in range(20)]
    rows = [layers._split_row(config) for config in configs]
    features = np.array([f for f, _ in rows])
    explanatory = np.array([x for _, x in rows])
    for model in (random_tree_model(rng, kind), default_oracle().models[kind]):
        expected = [model.predict(config).hex() for config in configs]
        # the sizes are exact integers, so int rows must price as their floats do
        for dtype in (float, np.int64):
            got = model.predict_rows(features.astype(dtype), explanatory.astype(dtype))
            assert [float(t).hex() for t in got] == expected


def feature_split_tree(rng, kind, features, depth=0):
    """A random tree over ``features``: range taus equal to feature values,
    and multiple conditions on every feature, zero-valued ones included."""
    node = Node(fit=leaf((0.0,) * len(layers.explanatory_names(kind)), float(depth)).fit)
    if depth >= 5 or rng.random() < 0.2:
        return node
    j = int(rng.integers(0, len(features)))
    value = features[j]
    if rng.random() < 0.5:
        node.condition = Condition(j, int(rng.choice([2, 3, 4, 6, 8, 16, 32])), MULTIPLE)
    else:
        tau = value if value > 0 else 1.0
        if rng.random() < 0.3:  # one ulp either side of the value
            tau = float(np.nextafter(tau, rng.choice([0.0, np.inf])))
        node.condition = Condition(j, tau, RANGE)
    node.left = feature_split_tree(rng, kind, features, depth + 1)
    node.right = feature_split_tree(rng, kind, features, depth + 1)
    return node


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_float_routing_reaches_the_leaf_of_the_array_routing(kind, seed):
    rng = np.random.default_rng(seed)
    n = len(layers.feature_names(kind))
    for _ in range(10):
        config = random_config(rng, kind)
        values = layers._row_values(config)[:n]
        row = np.array(values)
        for model in (
            random_tree_model(rng, kind),
            TimeModel(kind=kind, root=feature_split_tree(rng, kind, values)),
        ):
            assert tree._route(model.root, values) is model.route_features(row)


def test_float_routing_on_zero_features_and_taus_equal_to_a_feature():
    config = cnn(24, 24, 3, 3, 8, 16, padding="valid")
    names = layers.feature_names(LayerKind.CNN)
    values = layers._row_values(config)[: len(names)]
    padding, channels = names.index("padding"), names.index("out_channel")
    assert values[padding] == 0.0
    for condition in (
        Condition(padding, 2, MULTIPLE),  # 0 is a multiple of every tau
        Condition(channels, 16.0, RANGE),  # <= holds at equality
        Condition(channels, 4, MULTIPLE),
        Condition(channels, 3, MULTIPLE),
        Condition(channels, 15.0, RANGE),
    ):
        model = TimeModel(kind=LayerKind.CNN,
                          root=Node(fit=leaf((0.0,) * 3, 0.0).fit, condition=condition,
                                    left=leaf((0.0,) * 3, 1.0), right=leaf((0.0,) * 3, 2.0)))
        leaf_reached = tree._route(model.root, values)
        assert leaf_reached is model.route_features(np.array(values))
        assert model.predict(config) == (1.0 if bool(condition.holds(np.array(values))) else 2.0)


def test_predict_raises_for_a_feature_index_past_the_features():
    # routing reads only the feature prefix, never an explanatory value
    config = fc(8, 16)
    n = len(layers.feature_names(LayerKind.FC))
    model = TimeModel(kind=LayerKind.FC,
                      root=Node(fit=leaf((0.0,) * 3, 0.0).fit, condition=Condition(n, 1.0, RANGE),
                                left=leaf((0.0,) * 3, 1.0), right=leaf((0.0,) * 3, 2.0)))
    with pytest.raises(IndexError):
        model.route_features(derive_features(config).as_array())
    with pytest.raises(IndexError):
        model.predict(config)


def test_tree_shape_validation():
    bad = Node(fit=leaf((0.0,), 1.0).fit)
    bad.left = leaf((0.0,), 1.0)  # one child only
    with pytest.raises(ValueError):
        TimeModel(kind=LayerKind.FC, root=bad)


# --- serialization --------------------------------------------------------------------


def test_round_trip_predictions_bit_for_bit():
    planted = planted_depth2_model()
    ds = planted_cnn_dataset(planted, 400, seed=17)
    model = fit_tree(ds)
    restored = load_model(save_model(model))
    rng = np.random.default_rng(5)
    for config in random_cnn_configs(rng, 100):
        assert restored.predict(config) == model.predict(config)


def test_serialization_is_stable():
    model = planted_depth2_model()
    payload = save_model(model)
    assert save_model(load_model(payload)) == payload


def test_array_holding_types_compare_and_hash_by_identity():
    model = planted_depth2_model()
    restored = load_model(save_model(model))
    assert model == model
    assert (model == restored) is False
    assert (model.root == restored.root) is False
    assert (model.root.fit == restored.root.fit) is False
    assert hash(model) == hash(model)
    assert len({model, restored, model.root, model.root.fit}) == 4
    dataset = planted_cnn_dataset(model, 20, seed=1)
    assert dataset == dataset and (dataset == dataset.subset(np.ones(20, bool))) is False
    assert restored.fit_params == model.fit_params


def test_truncated_payload_is_a_parse_error():
    payload = save_model(planted_depth2_model())
    with pytest.raises(ModelFormatError):
        load_model(payload[: len(payload) // 2])


def test_older_minor_version_defaults_new_fields():
    doc = model_to_dict(planted_depth2_model())
    doc["format_version"] = "1.0"
    for node in doc["nodes"]:
        node.pop("mape")
        node.pop("mse")
        node.pop("n")
    doc.pop("fit_params")
    import json

    model = load_model(json.dumps(doc))
    assert model.fit_params == FitParams()
    assert model.predict(cnn(24, 24, 3, 3, 44, 64)) == pytest.approx(10.27, abs=0.05)


def test_noise_seed_of_older_files_is_ignored():
    doc = model_to_dict(planted_depth2_model())
    assert "noise_seed" not in doc["fit_params"]
    doc["fit_params"]["noise_seed"] = 5
    import json

    model = load_model(json.dumps(doc))
    assert model.fit_params == FitParams()
    assert save_model(model) == save_model(planted_depth2_model())


def test_wrong_major_version_rejected():
    doc = model_to_dict(planted_depth2_model())
    doc["format_version"] = "2.0"
    import json

    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def test_single_child_document_rejected():
    doc = model_to_dict(planted_depth2_model())
    doc["nodes"][0]["right"] = None
    import json

    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def chain_document(depth: int) -> dict:
    """A valid CNN model whose left spine is ``depth`` internal nodes deep."""
    node = {"w": [1e-8, 1e-6, 0.0], "b": 1.0, "n": 0, "mape": 0.0, "mse": 0.0}
    nodes = []
    for i in range(depth):
        # node i keeps in_channel <= depth - i on the left, its leaf on the right
        nodes.append({**node, "id": i, "left": i + 1, "right": depth + 1 + i,
                      "cond": {"feature": IN_CHANNEL, "tau": float(depth - i), "kind": "range"}})
    nodes.append({**node, "id": depth, "b": 2.0, "left": None, "right": None, "cond": None})
    nodes += [{**node, "id": depth + 1 + i, "left": None, "right": None, "cond": None}
              for i in range(depth)]
    doc = model_to_dict(planted_depth2_model())
    doc["nodes"] = nodes
    return doc


def test_deep_chain_loads_and_predicts():
    import json

    model = load_model(json.dumps(chain_document(5000)))
    assert model.n_nodes == 10001
    # in_channel 1 passes every range condition and reaches the deepest leaf
    config = cnn(8, 8, 3, 3, 1, 4)
    assert model.predict(config) == pytest.approx(
        2.0 + float(derive_explanatory(config).as_array() @ [1e-8, 1e-6, 0.0])
    )
    again = load_model(save_model(model))
    assert again.predict(config) == model.predict(config)


def test_shared_child_is_rejected_fast():
    import json
    import time

    # every internal node points both children at the next id: a 2 KB file
    # that would expand to 2**17 - 1 nodes if ids could be reused
    node = {"w": [1e-8, 1e-6, 0.0], "b": 1.0, "cond": {"feature": 0, "tau": 8, "kind": "range"}}
    nodes = [{**node, "id": i, "left": i + 1, "right": i + 1} for i in range(16)]
    nodes.append({**node, "id": 16, "left": None, "right": None, "cond": None})
    doc = model_to_dict(planted_depth2_model())
    doc["nodes"] = nodes
    start = time.perf_counter()
    with pytest.raises(ModelFormatError, match="reached twice"):
        load_model(json.dumps(doc))
    assert time.perf_counter() - start < 1.0


def test_overflowing_node_id_is_rejected():
    import json

    doc = chain_document(2)
    doc["nodes"][1]["id"] = 1e400  # json.dumps writes Infinity
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def test_cycle_is_rejected():
    import json

    doc = chain_document(3)
    doc["nodes"][2]["left"] = 0
    with pytest.raises(ModelFormatError, match="reached twice"):
        load_model(json.dumps(doc))


def test_model_bundle_round_trip():
    cnn_model = planted_depth2_model()
    fc_model = TimeModel(kind=LayerKind.FC, root=leaf((2.0, 0.0, 0.0), 1.0))
    models = {LayerKind.CNN: cnn_model, LayerKind.FC: fc_model}
    restored = load_models(save_models(models))
    assert set(restored) == {LayerKind.CNN, LayerKind.FC}
    assert restored[LayerKind.FC].predict(fc(2, 1)) == pytest.approx(11.0)


def test_bundle_accepts_single_model_document():
    model = planted_depth2_model()
    restored = load_models(save_model(model))
    assert set(restored) == {LayerKind.CNN}


def row_by_row(model, features, explanatory):
    """``predict_rows`` as first written: each row routed and priced by
    ``predict``'s code, on that row's Python floats."""
    rows = zip(np.asarray(features, dtype=float).tolist(), np.asarray(explanatory, dtype=float).tolist())
    return np.array([model._price_row(f, x) for f, x in rows])


def _rows_outcome(predict_rows, features, explanatory):
    """Each row's time as hex, or the type and text of the error raised."""
    try:
        return [float(t).hex() for t in predict_rows(features, explanatory)]
    except (NumericError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1),
    corrupt=st.sampled_from(["none", "explanatory", "features", "index"]),
)
def test_batched_predict_rows_equals_the_row_by_row_walk(kind, seed, corrupt):
    rng = np.random.default_rng(seed)
    model = random_tree_model(rng, kind, max_depth=4)
    internal = [node for _, node in model.nodes() if node.condition is not None]
    n_features = len(layers.feature_names(kind))
    if internal:
        # rewritten after build, so the batch must read conditions as it walks
        node = internal[int(rng.integers(len(internal)))]
        node.condition = Condition(int(rng.integers(n_features)), int(rng.choice([2, 3])), MULTIPLE)
    configs = [random_config(rng, kind) for _ in range(40)]
    rows = [layers._split_row(config) for config in configs]
    features = np.array([f for f, _ in rows])
    explanatory = np.array([x for _, x in rows])
    if corrupt == "none":
        expected = [model.predict(config).hex() for config in configs]
        for dtype in (float, np.int64):
            got = model.predict_rows(features.astype(dtype), explanatory.astype(dtype))
            assert [float(t).hex() for t in got] == expected
        return
    if corrupt == "index" and internal:
        node = internal[int(rng.integers(len(internal)))]
        node.condition = Condition(n_features + int(rng.integers(3)), 2, MULTIPLE)
    # some rows overflow, some are not numbers; routing sees non-finite features too
    chosen = rng.random(len(configs)) < 0.2
    target = explanatory if corrupt == "explanatory" else features
    target[chosen] = rng.choice([np.inf, np.nan, 1e308], size=(chosen.sum(), 1))
    if corrupt != "explanatory":
        explanatory[rng.random(len(configs)) < 0.2] = np.inf
    with np.errstate(all="ignore"):
        expected = _rows_outcome(lambda f, x: row_by_row(model, f, x), features, explanatory)
    assert _rows_outcome(model.predict_rows, features, explanatory) == expected


def test_an_unreached_out_of_range_index_is_not_read():
    # the right child's feature index is out of range, and no row goes right
    bad = Node(fit=leaf((0.0, 0.0, 0.0), 1.0).fit, condition=Condition(99, 2, MULTIPLE),
               left=leaf((0.0, 0.0, 0.0), 2.0), right=leaf((0.0, 0.0, 0.0), 3.0))
    root = Node(fit=leaf((0.0, 0.0, 0.0), 1.0).fit, condition=Condition(0, 1e9, RANGE),
                left=leaf((1.0, 0.0, 0.0), 0.5), right=bad)
    model = TimeModel(kind=LayerKind.FC, root=root)
    configs = [fc(3, 4), fc(5, 6)]
    rows = [layers._split_row(c) for c in configs]
    features, explanatory = np.array([f for f, _ in rows]), np.array([x for _, x in rows])
    assert model.predict_rows(features, explanatory).tolist() == [model.predict(c) for c in configs]
    # a row that does go right meets it, as predict does
    features[1, 0] = 2e9
    with pytest.raises(IndexError):
        model.predict_rows(features, explanatory)
