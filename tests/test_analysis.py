"""Significance tests, channel polynomials, safe regions, simplified models."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    B_FALSE,
    B_TRUE,
    IN_CHANNEL,
    REFERENCE_GEOMETRY,
    W_FALSE,
    W_TRUE,
    leaf,
    random_config,
    random_tree_model,
)
from layertime.analysis import (
    _regions,
    _t_two_sided_pvalue,
    ChannelPolynomial,
    ConvGeometry,
    ExpansionRegion,
    channel_time_polynomial,
    coefficient_pvalues,
    expansion_benefit,
    SimplifiedTimeModel,
    safe_region,
    simplify_model,
    verify_region,
)
from layertime.harness import default_oracle
from layertime.layers import (
    LayerKind,
    cnn,
    derive_explanatory,
    derive_features,
    fc,
    feature_names,
    width_fields,
)
from layertime.tree import Condition, ConditionKind, Dataset, LinearFit


def true_fit():
    return LinearFit(w=np.asarray(W_TRUE), b=B_TRUE, n=0, mape=0.0, mse=0.0)


def false_fit():
    return LinearFit(w=np.asarray(W_FALSE), b=B_FALSE, n=0, mape=0.0, mse=0.0)


def fc_dataset(rng, n, time_fn, noise=0.0):
    configs = [fc(int(rng.integers(1, 2049)), int(rng.integers(1, 2049))) for _ in range(n)]
    x = np.array([derive_explanatory(c).as_array() for c in configs])
    times = time_fn(x)
    if noise:
        times = times * (1.0 + rng.normal(scale=noise, size=n))
    times = np.clip(times, 1e-9, None)
    return Dataset.from_records(LayerKind.FC, configs, list(times))


# --- coefficient p-values ----------------------------------------------------


def test_strong_signal_is_significant():
    # independent columns: real configs make flops and param_size collinear
    rng = np.random.default_rng(1)
    n = 200
    x = rng.uniform(1.0, 100.0, size=(n, 3))
    times = np.clip(3.0 * x[:, 0] + rng.normal(scale=5.0, size=n) + 1.0, 0.01, None)
    ds = Dataset(kind=LayerKind.FC, features=x, explanatory=x, times=times)
    report = coefficient_pvalues(ds)
    assert report["flops"].p_value < 0.01


def test_unused_variable_gets_high_pvalue_in_exact_fits():
    high = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ds = fc_dataset(rng, 120, lambda x: 3e-8 * x[:, 0] + 1.5e-6 * x[:, 1] + 0.05)
        report = coefficient_pvalues(ds)
        if report["param_size"].p_value > 0.5:
            high += 1
    assert high >= 18  # at least 90 percent of the seeded trials


def test_exact_fit_reproduces_zero_one_pattern():
    rng = np.random.default_rng(3)
    ds = fc_dataset(rng, 150, lambda x: 3e-8 * x[:, 0] + 1.5e-6 * x[:, 1] + 0.05)
    report = coefficient_pvalues(ds)
    assert report["flops"].p_value == pytest.approx(0.0, abs=1e-12)
    assert report["mem"].p_value == pytest.approx(0.0, abs=1e-12)
    assert report["param_size"].p_value == pytest.approx(1.0)


def test_matches_hand_computed_t_test():
    rng = np.random.default_rng(8)
    n = 80
    x = rng.uniform(1.0, 50.0, size=(n, 3))
    times = x @ [0.5, 0.05, 0.2] + 2.0 + rng.normal(scale=1.0, size=n)
    times = np.clip(times, 0.01, None)
    features = x.copy()
    ds = Dataset(kind=LayerKind.FC, features=features, explanatory=x, times=times)
    report = coefficient_pvalues(ds)

    design = np.column_stack([x, np.ones(n)])
    beta = np.linalg.solve(design.T @ design, design.T @ times)
    residual = times - design @ beta
    dof = n - 3 - 1
    sigma2 = residual @ residual / dof
    covariance = sigma2 * np.linalg.inv(design.T @ design)
    for j, name in enumerate(["flops", "mem", "param_size"]):
        t = beta[j] / math.sqrt(covariance[j, j])
        p = 2 * stats.t.sf(abs(t), dof)
        assert report[name].coefficient == pytest.approx(beta[j], rel=1e-8)
        assert report[name].t_statistic == pytest.approx(t, rel=1e-8)
        assert report[name].p_value == pytest.approx(p, rel=1e-8, abs=1e-12)


def test_pvalues_invariant_under_column_rescaling():
    rng = np.random.default_rng(12)
    n = 100
    x = rng.uniform(1.0, 50.0, size=(n, 3))
    times = np.clip(x @ [0.5, 0.05, 0.0] + 2.0 + rng.normal(scale=1.0, size=n), 0.01, None)
    base = Dataset(kind=LayerKind.FC, features=x, explanatory=x, times=times)
    scaled_x = x * np.array([1.0, 1000.0, 1.0])
    scaled = Dataset(kind=LayerKind.FC, features=x, explanatory=scaled_x, times=times)
    for name in ("flops", "mem", "param_size"):
        assert coefficient_pvalues(base)[name].p_value == pytest.approx(
            coefficient_pvalues(scaled)[name].p_value, rel=1e-6, abs=1e-12
        )


@pytest.mark.parametrize("exponent", [-12, -9, -6, 6, 12])
def test_pvalues_invariant_under_time_rescaling(exponent):
    # the unit of time (seconds, milliseconds, cycles) must not decide
    # whether a fit counts as exact
    rng = np.random.default_rng(12)
    n = 100
    x = rng.uniform(1.0, 50.0, size=(n, 3))
    times = np.clip(x @ [0.5, 0.05, 0.0] + 2.0 + rng.normal(scale=1.0, size=n), 0.01, None)
    base = Dataset(kind=LayerKind.FC, features=x, explanatory=x, times=times)
    scaled = Dataset(kind=LayerKind.FC, features=x, explanatory=x, times=times * 10.0**exponent)
    for name in ("flops", "mem", "param_size"):
        assert coefficient_pvalues(scaled)[name].p_value == pytest.approx(
            coefficient_pvalues(base)[name].p_value, rel=1e-6, abs=1e-12
        )


def test_collinear_column_reported_degenerate():
    rng = np.random.default_rng(4)
    n = 60
    col = rng.uniform(1.0, 10.0, size=n)
    x = np.column_stack([col, 2.0 * col, rng.uniform(1.0, 10.0, size=n)])
    times = np.clip(col + rng.normal(scale=0.5, size=n) + 1.0, 0.01, None)
    ds = Dataset(kind=LayerKind.FC, features=x, explanatory=x, times=times)
    report = coefficient_pvalues(ds)
    degenerate = [v for v in report.variables if v.degenerate]
    assert degenerate
    assert all(v.p_value == 1.0 for v in degenerate)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-40.0, 40.0), dof=st.integers(1, 10_000))
def test_t_pvalue_matches_scipy(t, dof):
    if abs(t) < 1e-6:
        # scipy's t.sf is off by up to 3e-9 relative for |t| in (1e-9, 1e-7);
        # here the series 1 - 2|t| f(0) is exact to double precision
        reference = 1.0 - 2.0 * abs(t) * stats.t.pdf(0.0, dof)
    else:
        reference = 2.0 * stats.t.sf(abs(t), dof)
    # both sides underflow to subnormals or zero near the domain's corner
    assert _t_two_sided_pvalue(t, dof) == pytest.approx(reference, rel=1e-9, abs=1e-300)


def test_pvalues_never_import_scipy():
    probe = (
        "import sys; import numpy as np; "
        "from layertime.analysis import coefficient_pvalues; "
        "from layertime.layers import LayerKind; from layertime.tree import Dataset; "
        "rng = np.random.default_rng(2); x = rng.uniform(1.0, 50.0, size=(80, 3)); "
        "y = x @ [0.5, 0.05, 0.0] + 2.0 + rng.normal(size=80); "
        "report = coefficient_pvalues(Dataset(LayerKind.FC, x, x, y)); "
        "print(all(0.0 < v.p_value < 1.0 for v in report.variables), "
        "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.split() == ["True", "False"]


def test_too_few_records_is_an_error():
    rng = np.random.default_rng(0)
    ds = fc_dataset(rng, 5, lambda x: x[:, 0] + 1.0)
    with pytest.raises(ValueError):
        coefficient_pvalues(ds)


# --- channel polynomials -----------------------------------------------------


def poly_oracle(fit, geometry):
    """Solve for the bilinear coefficients from four real-config evaluations."""
    points = [(1, 1), (1, 2), (2, 1), (2, 2)]
    rows, values = [], []
    for u, v in points:
        config = cnn(
            geometry.in_height,
            geometry.in_width,
            geometry.kernel_height,
            geometry.kernel_width,
            u,
            v,
            stride=geometry.stride,
            padding=geometry.padding,
        )
        x = derive_explanatory(config).as_array()
        rows.append([u * v, u, v, 1.0])
        values.append(float(x @ fit.w + fit.b))
    a, b, c, d = np.linalg.solve(np.asarray(rows), np.asarray(values))
    return ChannelPolynomial(a=a, b=b, c=c, d=d)


def test_polynomial_matches_point_evaluation_oracle():
    for fit in (true_fit(), false_fit()):
        got = channel_time_polynomial(fit, REFERENCE_GEOMETRY)
        want = poly_oracle(fit, REFERENCE_GEOMETRY)
        assert got.a == pytest.approx(want.a, rel=1e-9)
        assert got.b == pytest.approx(want.b, rel=1e-9)
        assert got.c == pytest.approx(want.c, rel=1e-9)
        assert got.d == pytest.approx(want.d, rel=1e-9)


def test_polynomial_under_other_geometry():
    geometry = ConvGeometry(50, 40, 2, 3, 2, "valid")
    fit = true_fit()
    got = channel_time_polynomial(fit, geometry)
    want = poly_oracle(fit, geometry)
    for name in "abcd":
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9)


def closed_form_polynomial(fit, setting):
    """The channel polynomial as the analysis once wrote it out from the geometry."""
    out_h, out_w = setting.output_dims()
    kernel = setting.kernel_height * setting.kernel_width
    w = np.asarray(fit.w, dtype=float)
    flops_uv = 2.0 * out_h * out_w * kernel
    mem_u = setting.in_height * setting.in_width + out_h * out_w * kernel
    mem_v = out_h * out_w
    return ChannelPolynomial(
        a=w[0] * flops_uv + w[2] * kernel, b=w[1] * mem_u, c=w[1] * mem_v, d=fit.b + w[2]
    )


@st.composite
def conv_geometries(draw):
    padding = draw(st.sampled_from(["valid", "same"]))
    in_h, in_w = draw(st.integers(1, 4096)), draw(st.integers(1, 4096))
    top_h, top_w = (in_h, in_w) if padding == "valid" else (64, 64)
    return ConvGeometry(
        in_h, in_w, draw(st.integers(1, min(top_h, 64))), draw(st.integers(1, min(top_w, 64))),
        draw(st.sampled_from([1, 2])), padding,
    )


weights = st.floats(0.0, 1e6, allow_subnormal=True)


@settings(max_examples=300)
@given(setting=conv_geometries(), w=st.tuples(weights, weights, weights), b=weights)
def test_polynomial_is_the_closed_form_bit_for_bit(setting, w, b):
    fit = LinearFit(w=np.asarray(w), b=b, n=0, mape=0.0, mse=0.0)
    got = channel_time_polynomial(fit, setting)
    want = closed_form_polynomial(fit, setting)
    for name in "abcd":
        got_bits, want_bits = (np.float64(getattr(p, name)).tobytes() for p in (got, want))
        assert got_bits == want_bits


@pytest.mark.parametrize(
    "call",
    [ConvGeometry.output_dims, lambda setting: channel_time_polynomial(true_fit(), setting)],
    ids=["output_dims", "channel_time_polynomial"],
)
def test_geometry_with_a_stride_no_layer_has_is_rejected(call):
    with pytest.raises(ValueError, match="stride must be 1 or 2, got 3"):
        call(ConvGeometry(24, 24, 3, 3, 3, "same"))


# --- expansion benefit -------------------------------------------------------


def test_identical_leaves_zero_delta_gives_zero_polynomial():
    benefit = expansion_benefit(true_fit(), true_fit(), REFERENCE_GEOMETRY, delta=0)
    assert (benefit.a, benefit.b, benefit.c, benefit.d) == (0.0, 0.0, 0.0, 0.0)


def test_reference_benefit_coefficients():
    benefit = expansion_benefit(true_fit(), false_fit(), REFERENCE_GEOMETRY, delta=3)
    yt = channel_time_polynomial(true_fit(), REFERENCE_GEOMETRY)
    yf = channel_time_polynomial(false_fit(), REFERENCE_GEOMETRY)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v = rng.uniform(1, 300, size=2)
        assert benefit(u, v) == pytest.approx(yt(u + 3, v) - yf(u, v), rel=1e-12)
    assert benefit.a == pytest.approx(3.0e-5, rel=0.05)
    assert benefit.b == pytest.approx(-2.31e-2, rel=0.01)
    assert benefit.d == pytest.approx(-4.64, rel=0.001)


def test_doubling_false_intercept_shifts_only_constant():
    doubled = LinearFit(w=np.asarray(W_FALSE), b=2 * B_FALSE, n=0, mape=0.0, mse=0.0)
    base = expansion_benefit(true_fit(), false_fit(), REFERENCE_GEOMETRY, delta=3)
    shifted = expansion_benefit(true_fit(), doubled, REFERENCE_GEOMETRY, delta=3)
    assert shifted.a == base.a
    assert shifted.b == base.b
    assert shifted.c == base.c
    assert shifted.d == pytest.approx(base.d - B_FALSE)


def test_out_channel_axis_swaps_roles():
    benefit = expansion_benefit(
        true_fit(), false_fit(), REFERENCE_GEOMETRY, delta=3, axis="out_channel"
    )
    yt = channel_time_polynomial(true_fit(), REFERENCE_GEOMETRY)
    yf = channel_time_polynomial(false_fit(), REFERENCE_GEOMETRY)
    for u, v in [(10, 20), (64, 43), (200, 5)]:
        assert benefit(u, v) == pytest.approx(yt(u, v + 3) - yf(u, v), rel=1e-12)


@pytest.mark.parametrize("delta", [-1, 1.5, True, np.float64(2.0)])
def test_negative_delta_rejected(delta):
    with pytest.raises(ValueError):
        expansion_benefit(true_fit(), false_fit(), REFERENCE_GEOMETRY, delta=delta)


# --- safe regions ------------------------------------------------------------


def reference_benefit():
    return expansion_benefit(true_fit(), false_fit(), REFERENCE_GEOMETRY, delta=3)


def test_constant_negative_benefit_is_unbounded():
    region = safe_region(ChannelPolynomial(0.0, 0.0, 0.0, -1.0))
    assert region.bound == math.inf


def test_pure_quadratic_bound():
    region = safe_region(ChannelPolynomial(1.0, 0.5, -0.5, -4.0))
    assert region.bound == pytest.approx(2.0, abs=1e-5)


def test_reference_region_root():
    benefit = reference_benefit()
    assert benefit.a > 0 and benefit.d < 0  # one positive crossing
    region = safe_region(benefit)
    assert region.bound == pytest.approx(939.5, abs=1.0)
    assert 0.7 * 1288 <= region.bound <= 1.4 * 1288


def test_bound_sign_properties():
    benefit = reference_benefit()
    region = safe_region(benefit)
    bound = region.bound
    assert benefit.diagonal(bound) < 0  # reported edge stays safe
    assert abs(benefit.diagonal(bound)) <= 1e-4 * abs(benefit.d)
    assert benefit.diagonal(1.01 * bound) > 0


def test_positive_benefit_at_one_gives_empty_region():
    region = safe_region(ChannelPolynomial(0.0, 0.0, 0.0, 5.0))
    assert region.is_empty


def test_downward_parabola_with_interior_crossing():
    # negative at 1, positive at the vertex: the first crossing bounds the region
    poly = ChannelPolynomial(-1e-4, 0.05, 0.05, -0.4)
    region = safe_region(poly)
    assert 1 < region.bound < -0.1 / (2 * -1e-4)
    assert poly.diagonal(region.bound) < 0
    assert poly.diagonal(region.bound + 1e-3) > 0


def test_verification_accepts_reference_region():
    region = verify_region(safe_region(reference_benefit()))
    assert region.verified and not region.is_empty


def test_verification_demotes_overclaimed_bound():
    benefit = reference_benefit()
    region = safe_region(benefit)
    inflated = ExpansionRegion(
        contour=benefit, bound=region.bound * 4, condition=region.condition,
        setting=region.setting, delta=region.delta,
    )
    assert verify_region(inflated).is_empty


def corners(region):
    bound = region.bound
    return [region.contour(u, v) for u in (1.0, bound) for v in (1.0, bound)]


def test_region_off_the_diagonal_keeps_every_corner_negative():
    # the diagonal crosses zero at 1.6401, but f(1, t) already does at 1.6393
    benefit = ChannelPolynomial(1.0347, -1.6984, 0.00144, -1.0e-4)
    region = verify_region(safe_region(benefit))
    assert region.verified and 1.639 < region.bound < 1.6394
    assert all(value < 0 for value in corners(region))
    assert benefit(1.0, region.bound + 2e-6) > 0


def test_default_oracle_region_bounded_by_its_edge_is_kept():
    # the diagonal bound is not safe here, since f(1, B) > 0; the edge's crossing is
    model = default_oracle().models[LayerKind.CNN]
    setting = ConvGeometry(64, 64, 5, 5, 1, "same")
    cond = model.root.condition
    benefit = expansion_benefit(
        model.root.left.fit, model.root.right.fit, setting, cond.tau - 1, axis="in_channel"
    )
    region = verify_region(safe_region(benefit, condition=cond, setting=setting))
    assert region.verified
    assert region.bound == pytest.approx(257.3, abs=0.05)
    assert all(value < 0 for value in corners(region))


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-6, 1e2), st.floats(1e299, 1e301))
_COEFFICIENTS = st.tuples(_MAGNITUDES, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


@given(st.tuples(_COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS))
@example((1.0347, -1.6984, 0.00144, -1.0e-4))
@example((0.0, 0.0, 1.0, -1.0000001))  # a crossing closer to 1 than the tolerance
@example((1e-24, 0.0, 0.0, -1.0))  # a crossing where the float spacing exceeds the tolerance
@example((1e-40, -1.0, -1.0, -1.0))  # a crossing near 2e40, past any fixed search edge
@example((1e-6, -1e300, -1e300, -1.0))  # a NaN corner, from inf - inf, just past the bound
@settings(max_examples=1000, deadline=None)
def test_every_region_is_certified_by_its_four_corners(coefficients):
    benefit = ChannelPolynomial(*coefficients)
    a, b, c, d = coefficients
    if verify_region(ExpansionRegion(contour=benefit, bound=math.inf)).verified:
        # the unbounded certificate: in exact arithmetic, f never exceeds f(1, 1)
        exact = ChannelPolynomial(*map(Fraction, coefficients))
        far = Fraction(10) ** 300
        assert all(exact(u, v) <= exact(1, 1) for u in (1, far) for v in (1, far))
    region = safe_region(benefit)
    if region.is_empty:
        return
    assert benefit(1.0, 1.0) < 0
    assert verify_region(region) == dataclasses.replace(region, verified=True)
    assert math.isinf(region.bound) == (a <= 0 and a + b <= 0 and a + c <= 0)
    if math.isinf(region.bound):
        return
    assert all(value < 0 for value in corners(region))
    if region.bound >= 2.0**1021:
        return  # the search stopped short of a crossing near the largest floats
    # past the bisection's last bracket, some corner is no longer negative, up
    # to the rounding of two evaluations of the polynomial
    beyond = max(region.bound + 2e-6, region.bound * (1 + 1e-15))
    grown = ExpansionRegion(contour=benefit, bound=beyond)
    slack = 4e-15 * (abs(a) * beyond * beyond + (abs(b) + abs(c)) * beyond + abs(d))
    assert not all(value < -slack for value in corners(grown))
    # the certificate is the sign at the four corners, and a NaN corner fails it
    assert verify_region(grown).verified == all(value < 0 for value in corners(grown))


def _reaches(model, target, config) -> bool:
    features = derive_features(config).as_array()
    node = model.root
    while node is not target and node.condition is not None:
        node = node.left if node.condition.holds(features) else node.right
    return node is target


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_region_between_two_leaves_holds_for_the_models_predictions(seed):
    # the region prices the node's own two fits, which predict prices only
    # when both children are leaves; there, rounding a width inside the
    # verified square never predicts slower
    rng = np.random.default_rng(seed)
    names = feature_names(LayerKind.CNN)
    model = random_tree_model(rng, LayerKind.CNN)
    for _, node in model.nodes():
        if node.condition is not None and node.condition.kind is ConditionKind.MULTIPLE:
            feature = names.index(str(rng.choice(width_fields(LayerKind.CNN))))
            node.condition = Condition(feature, node.condition.tau, ConditionKind.MULTIPLE)
    base = random_config(rng, LayerKind.CNN)
    nodes = dict(model.nodes())
    for node_id, region in _regions(model, ConvGeometry.from_config(base)).items():
        node, cond = nodes[node_id], region.condition
        if not (region.verified and node.left.is_leaf and node.right.is_leaf):
            continue
        field = names[cond.feature_index]
        top = int(min(region.bound, 512))
        for u, v in rng.integers(1, top + 1, size=(50, 2)).tolist():
            config = dataclasses.replace(base, in_channel=u, out_channel=v)
            tau = int(cond.tau)
            rounded = dataclasses.replace(
                config, **{field: tau * math.ceil(getattr(config, field) / tau)}
            )
            if _reaches(model, node, config) and _reaches(model, node, rounded):
                assert model.predict(rounded) <= model.predict(config) * (1 + 1e-12)


# --- simplified models --------------------------------------------------------


def make_region(bound=808.0, tau=4, verified=True):
    return ExpansionRegion(
        contour=reference_benefit(),
        bound=bound,
        condition=Condition(IN_CHANNEL, tau, ConditionKind.MULTIPLE),
        setting=REFERENCE_GEOMETRY,
        delta=tau - 1,
        verified=verified,
    )


def test_snapping_inside_region(reference_model):
    simplified = simplify_model(reference_model, [make_region()])
    inside = cnn(24, 24, 3, 3, 43, 64)
    snapped = cnn(24, 24, 3, 3, 44, 64)
    assert simplified.predict(inside) == reference_model.predict(snapped)


def test_outside_region_matches_base(reference_model):
    simplified = simplify_model(reference_model, [make_region(bound=40.0)])
    outside = cnn(24, 24, 3, 3, 43, 64)  # out_channel exceeds the bound
    assert simplified.predict(outside) == reference_model.predict(outside)
    other_geometry = cnn(30, 30, 3, 3, 11, 12)
    assert simplified.predict(other_geometry) == reference_model.predict(other_geometry)


def test_empty_region_list_is_identity(reference_model):
    simplified = simplify_model(reference_model, [])
    rng = np.random.default_rng(2)
    for _ in range(20):
        config = cnn(24, 24, 3, 3, int(rng.integers(1, 257)), int(rng.integers(1, 257)))
        assert simplified.predict(config) == reference_model.predict(config)


def test_never_increases_inside_region(reference_model):
    simplified = simplify_model(reference_model, [make_region()])
    rng = np.random.default_rng(7)
    for _ in range(100):
        config = cnn(24, 24, 3, 3, int(rng.integers(1, 257)), int(rng.integers(1, 257)))
        assert simplified.predict(config) <= reference_model.predict(config)


def test_a_snap_out_of_the_domain_returns_the_base_prediction():
    model = default_oracle().models[LayerKind.CNN]
    region = _regions(model, ConvGeometry(1, 1, 1, 1, 1, "same"))[2]
    assert region.verified and region.bound == math.inf
    # out_channel snaps up to 2**26, which takes the flops past 2**53
    config = cnn(1, 1, 1, 1, 2**26 + 1, 2**26 - 1)
    assert simplify_model(model, [region]).predict(config) == model.predict(config)


def test_contradictory_regions_rejected(reference_model):
    with pytest.raises(ValueError):
        simplify_model(reference_model, [make_region(tau=4), make_region(tau=3)])


@pytest.mark.parametrize("feature", ["mem_in", "in_height"])
def test_region_off_the_channel_axes_rejected(reference_model, feature):
    region = dataclasses.replace(
        make_region(),
        condition=Condition(feature_names(LayerKind.CNN).index(feature), 4, ConditionKind.MULTIPLE),
    )
    with pytest.raises(ValueError, match="in_channel or out_channel"):
        simplify_model(reference_model, [region])


def test_unverified_region_rejected(reference_model):
    with pytest.raises(ValueError):
        simplify_model(reference_model, [make_region(verified=False)])


def test_demoted_region_is_skipped(reference_model):
    simplified = simplify_model(reference_model, [make_region(bound=0.0, verified=False)])
    config = cnn(24, 24, 3, 3, 43, 64)
    assert simplified.predict(config) == reference_model.predict(config)


def bad_regions(case):
    if case == "unverified":
        return [make_region(verified=False)]
    if case == "contradictory":
        return [make_region(tau=4), make_region(tau=3)]
    condition = {
        "range": Condition(IN_CHANNEL, 37.5, ConditionKind.RANGE),
        "mem_in": Condition(feature_names(LayerKind.CNN).index("mem_in"), 4, ConditionKind.MULTIPLE),
    }[case]
    return [dataclasses.replace(make_region(), condition=condition)]


@pytest.mark.parametrize("case", ["unverified", "range", "mem_in", "contradictory"])
def test_the_constructor_rejects_the_regions_simplify_model_rejects(reference_model, case):
    with pytest.raises(ValueError) as via_simplify:
        simplify_model(reference_model, bad_regions(case))
    with pytest.raises(ValueError) as direct:
        SimplifiedTimeModel(reference_model, bad_regions(case))
    assert str(direct.value) == str(via_simplify.value)
