"""Structure configs, convolution arithmetic, and derived vectors."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from layertime import layers
from layertime.layers import (
    LayerKind,
    Padding,
    StructureConfig,
    _row_values,
    cnn,
    config_from_dict,
    config_to_dict,
    conv_output_dims,
    derive_explanatory,
    derive_features,
    fc,
    feature_names,
    gru,
    lstm,
    width_fields,
)

# --- independent recomputation of every derived quantity ---------------------
# Output extents are counted by enumerating kernel placements instead of by
# closed-form arithmetic, so the two implementations can check each other.


def placements(extent, kernel, stride, padding):
    if padding == "same":
        return len(range(0, extent, stride))
    return len(range(0, extent - kernel + 1, stride))


def oracle_features(config):
    kind = config.kind
    if kind is LayerKind.FC:
        i, o = config.in_dim, config.out_dim
        return {"param_size": i * o + o, "mem_in": i, "mem_out": o, "mem_inter": 0}
    if kind is LayerKind.CNN:
        oh = placements(config.in_height, config.kernel_height, config.stride,
                        config.padding.value)
        ow = placements(config.in_width, config.kernel_width, config.stride,
                        config.padding.value)
        k = config.kernel_height * config.kernel_width
        return {
            "param_size": k * config.in_channel * config.out_channel + 1,
            "mem_in": config.in_height * config.in_width * config.in_channel,
            "mem_out": oh * ow * config.out_channel,
            "mem_inter": oh * ow * k * config.in_channel,
        }
    gates = 3 if kind is LayerKind.GRU else 4
    io_scale = 1 if kind is LayerKind.GRU else 2
    i, o, s = config.in_dim, config.out_dim, config.step
    return {
        "param_size": gates * o * (i + o + 1),
        "mem_in": io_scale * s * i,
        "mem_out": io_scale * s * o,
        "mem_inter": gates * s * o,
    }


def oracle_flops(config):
    if config.kind is LayerKind.FC:
        return 2 * config.in_dim * config.out_dim + config.out_dim
    if config.kind is LayerKind.CNN:
        oh = placements(config.in_height, config.kernel_height, config.stride,
                        config.padding.value)
        ow = placements(config.in_width, config.kernel_width, config.stride,
                        config.padding.value)
        return (2 * oh * ow * config.kernel_height * config.kernel_width
                * config.in_channel * config.out_channel)
    return 2 * config.step * oracle_features(config)["param_size"]


def any_config():
    kernels = st.sampled_from([(2, 2), (3, 3), (4, 4), (5, 5), (2, 3)])
    cnn_configs = st.tuples(
        st.integers(24, 225), st.integers(24, 225), kernels,
        st.integers(1, 256), st.integers(1, 256),
        st.sampled_from([1, 2]), st.sampled_from(["valid", "same"]),
    ).map(lambda t: cnn(t[0], t[1], t[2][0], t[2][1], t[3], t[4], t[5], t[6]))
    return st.one_of(
        st.builds(fc, st.integers(1, 4096), st.integers(1, 4096)),
        cnn_configs,
        st.builds(gru, st.integers(1, 512), st.integers(1, 512), st.sampled_from([8, 10, 15, 20])),
        st.builds(lstm, st.integers(1, 512), st.integers(1, 512), st.sampled_from([8, 10, 15, 20])),
    )


# --- conv_output_dims ---------------------------------------------------------


def test_same_padding_stride_one_preserves_extent():
    assert conv_output_dims(24, 24, 3, 3, 1, "same") == (24, 24)


def test_valid_padding_shrinks_by_kernel():
    assert conv_output_dims(24, 24, 3, 3, 1, "valid") == (22, 22)


def test_same_padding_stride_two_rounds_up():
    assert conv_output_dims(25, 25, 3, 3, 2, "same") == (13, 13)


def test_valid_padding_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        conv_output_dims(4, 4, 5, 5, 1, "valid")


@pytest.mark.parametrize(
    "args",
    [(True, 24, 3, 3, 1, "same"), (24.0, 24, 3, 3, 1, "same"),
     (24, 24, 3, 3, 3, "same"), (24, 24, 3, 3, 1.5, "same"), (4, 4, 5, 5, 1, "valid")],
    ids=["bool extent", "float extent", "stride 3", "float stride", "oversized valid kernel"],
)
def test_output_dims_check_their_arguments_as_a_cnn_layer(args):
    in_h, in_w, k_h, k_w, stride, padding = args
    with pytest.raises(ValueError) as layer_error:
        cnn(in_h, in_w, k_h, k_w, 1, 1, stride, padding)
    with pytest.raises(ValueError) as dims_error:
        conv_output_dims(*args)
    assert str(dims_error.value) == str(layer_error.value)


@given(
    in_h=st.integers(1, 300), in_w=st.integers(1, 300),
    k=st.sampled_from([(2, 2), (3, 3), (5, 5), (2, 3)]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from(["valid", "same"]),
)
def test_output_dims_match_placement_enumeration(in_h, in_w, k, stride, padding):
    if padding == "valid" and (k[0] > in_h or k[1] > in_w):
        with pytest.raises(ValueError):
            conv_output_dims(in_h, in_w, k[0], k[1], stride, padding)
        return
    got = conv_output_dims(in_h, in_w, k[0], k[1], stride, padding)
    assert got == (
        placements(in_h, k[0], stride, padding),
        placements(in_w, k[1], stride, padding),
    )


@given(in_h=st.integers(1, 500), in_w=st.integers(1, 500), k=st.integers(1, 7))
def test_same_stride_one_is_identity(in_h, in_w, k):
    assert conv_output_dims(in_h, in_w, k, k, 1, "same") == (in_h, in_w)


# --- derive_features ----------------------------------------------------------


def test_fc_features():
    f = derive_features(fc(3, 5))
    assert f["param_size"] == 20
    assert f["mem_in"] == 3
    assert f["mem_out"] == 5
    assert f["mem_inter"] == 0


def test_cnn_features():
    f = derive_features(cnn(24, 24, 3, 3, 8, 16, stride=1, padding="same"))
    assert f["mem_in"] == 4608
    assert f["mem_out"] == 9216
    assert f["mem_inter"] == 41472
    assert f["param_size"] == 1153


def test_gru_features():
    f = derive_features(gru(4, 8, 10))
    assert f["param_size"] == 312
    assert f["mem_in"] == 40
    assert f["mem_out"] == 80
    assert f["mem_inter"] == 240


def test_feature_vector_layout():
    config = cnn(24, 24, 2, 3, 7, 9, stride=2, padding="valid")
    f = derive_features(config)
    assert f.names == feature_names(LayerKind.CNN)
    assert f["padding"] == 0  # valid encodes as 0
    assert f["stride"] == 2
    assert f["kernel_width"] == 3


@settings(max_examples=150)
@given(config=any_config())
def test_features_match_independent_recomputation(config):
    f = derive_features(config)
    expected = oracle_features(config)
    for name, value in expected.items():
        assert f[name] == float(value)  # bit-exact integer-valued floats


# --- derive_explanatory ---------------------------------------------------------


def test_fc_explanatory():
    x = derive_explanatory(fc(3, 5))
    assert (x.flops, x.mem, x.param_size, x.step) == (35, 8, 20, None)


def test_cnn_explanatory():
    x = derive_explanatory(cnn(24, 24, 3, 3, 8, 16))
    assert (x.flops, x.mem, x.param_size) == (1_327_104, 55_296, 1153)
    assert x.step is None


def test_gru_explanatory():
    x = derive_explanatory(gru(4, 8, 10))
    assert (x.flops, x.mem, x.param_size, x.step) == (6240, 360, 312, 10)


@settings(max_examples=150)
@given(config=any_config())
def test_explanatory_consistency(config):
    x = derive_explanatory(config)
    f = derive_features(config)
    assert x.mem == f["mem_in"] + f["mem_out"] + f["mem_inter"]
    assert x.param_size == f["param_size"]
    assert x.flops == float(oracle_flops(config))
    assert (x.step is not None) == (config.kind in (LayerKind.GRU, LayerKind.LSTM))


@given(config=any_config())
def test_derivations_are_pure(config):
    assert derive_features(config) == derive_features(config)
    assert derive_explanatory(config) == derive_explanatory(config)


# --- config validation and encoding ------------------------------------------


def test_irrelevant_fields_rejected():
    with pytest.raises(ValueError):
        fc(3, 5).__class__(kind=LayerKind.FC, in_dim=3, out_dim=5, step=7)


def test_missing_fields_rejected():
    with pytest.raises(ValueError):
        gru(4, 8, step=None)  # type: ignore[arg-type]


def test_nonpositive_counts_rejected():
    with pytest.raises(ValueError):
        fc(0, 5)


def test_bad_stride_rejected():
    with pytest.raises(ValueError):
        cnn(24, 24, 3, 3, 4, 4, stride=3)


def test_valid_padding_kernel_must_fit():
    with pytest.raises(ValueError):
        cnn(24, 24, 25, 25, 4, 4, stride=1, padding="valid")
    cnn(25, 25, 25, 25, 4, 4, stride=1, padding="valid")  # boundary is fine


def reference_post_init(kind, fields):
    """The field loop the check plan replaced, run on a dict of field values.

    Returns the fields as stored, or raises as construction did.  The one
    check added since is marked: a required padding must be a ``Padding``.
    """
    values = {name: fields.get(name) for name in layers._ALL_FIELDS}
    if not isinstance(kind, LayerKind):
        raise ValueError(f"unknown layer kind: {kind!r}")
    if isinstance(values["padding"], str):
        values["padding"] = Padding(values["padding"])
    required = layers._FIELDS_BY_KIND[kind]
    for name in layers._ALL_FIELDS:
        value = values[name]
        if name not in required:
            if value is not None:
                raise ValueError(f"{name} is not a field of {kind.value} layers")
            continue
        if value is None:
            raise ValueError(f"{kind.value} layer requires {name}")
        if name == "padding":
            # added: a padding that is not a Padding would fail derivation
            if not isinstance(value, Padding):
                raise ValueError(f"padding must be 'valid' or 'same', got {value!r}")
            continue
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        values[name] = int(value)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if kind is LayerKind.CNN:
        if values["stride"] not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {values['stride']}")
        if values["padding"] is Padding.VALID and (
            values["kernel_height"] > values["in_height"]
            or values["kernel_width"] > values["in_width"]
        ):
            raise ValueError("valid padding requires the kernel to fit inside the input")
    return values


_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.integers(-3, 300).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.sampled_from(["valid", "same", Padding.VALID, Padding.SAME, 2**70]),
)


@st.composite
def field_dicts(draw):
    """A kind, its fields mostly valid, a few replaced or added with odd values."""
    kind = draw(st.sampled_from([*LayerKind, *LayerKind, "FC"]))
    names = layers._FIELDS_BY_KIND[LayerKind(kind) if isinstance(kind, str) else kind]
    fields = {name: draw(st.integers(1, 64)) for name in names}
    if "padding" in fields:
        fields["padding"] = draw(st.sampled_from(["valid", "same", Padding.VALID]))
        fields["stride"] = draw(st.sampled_from([1, 2]))
    odd = draw(st.lists(st.sampled_from(layers._ALL_FIELDS), max_size=3))
    for name in odd:
        fields[name] = draw(_ODD_VALUES)
    return kind, fields


def _outcome(build):
    try:
        return build()
    except Exception as exc:  # compared by type and message below
        return exc


# the first text draw builds hypothesis's unicode table, which a fresh checkout
# has not cached yet, so the generation speed check would fail there
@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(case=field_dicts())
@example(case=(LayerKind.CNN, dict(in_height=24, in_width=24, kernel_height=3, kernel_width=3,
                                   in_channel=8, out_channel=16, padding=5, stride=1)))
def test_post_init_matches_the_previous_field_loop(case):
    kind, fields = case
    expected = _outcome(lambda: reference_post_init(kind, fields))
    got = _outcome(lambda: StructureConfig(kind=kind, **fields))
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, StructureConfig)
    stored = {name: getattr(got, name) for name in layers._ALL_FIELDS}
    assert stored == expected
    assert {name: type(v) for name, v in stored.items()} == {
        name: type(v) for name, v in expected.items()
    }


@pytest.mark.parametrize(
    "config",
    [
        cnn(24, 24, 3, 3, 10**400, 16),
        fc(10**308, 2),
        # each field fits a float, but the derived sizes do not
        fc(10**200, 10**200),
        lstm(10**200, 4, 10**200),
    ],
    ids=["huge field", "huge parameter count", "huge product", "huge step product"],
)
def test_sizes_beyond_a_float_are_value_errors(config):
    for derive in (_row_values, derive_features, derive_explanatory):
        with pytest.raises(ValueError, match="too large for a float"):
            derive(config)


@given(config=any_config())
def test_encoding_round_trip(config):
    assert config_from_dict(config_to_dict(config)) == config


def test_unknown_fields_are_an_error():
    record = config_to_dict(fc(3, 5))
    record["stride"] = 1
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict(record)


def test_unknown_kind_is_an_error():
    with pytest.raises(ValueError, match="kind"):
        config_from_dict({"kind": "POOL"})


def test_padding_round_trips_as_text():
    record = config_to_dict(cnn(24, 24, 3, 3, 1, 1, padding=Padding.VALID))
    assert record["padding"] == "valid"
    assert config_from_dict(record).padding is Padding.VALID


@given(config=any_config())
def test_value_types_are_slotted(config):
    values = (config, derive_features(config), derive_explanatory(config))
    for value in values:
        assert not hasattr(value, "__dict__")
        copy = dataclasses.replace(value)
        assert copy == value and hash(copy) == hash(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)
    decoded = config_from_dict(config_to_dict(config))
    assert decoded == config and hash(decoded) == hash(config)
    # replace still validates and converts, as construction does
    out_field = width_fields(config.kind)[1]
    wider = dataclasses.replace(config, **{out_field: getattr(config, out_field) + 1})
    assert getattr(wider, out_field) == getattr(config, out_field) + 1 and wider != config
    with pytest.raises(ValueError):
        dataclasses.replace(config, **{out_field: 0})
    if config.kind is LayerKind.CNN:
        assert dataclasses.replace(config, padding="same").padding is Padding.SAME


def _built_three_ways(kind, padding):
    """One config built by its factory, decoded from a dict, and replaced into shape."""
    if kind is LayerKind.CNN:
        direct = cnn(24, 24, 3, 3, 8, 16, padding=padding.value)
        other = next(p for p in Padding if p is not padding)
        replaced = dataclasses.replace(
            cnn(24, 24, 3, 3, 8, 32, padding=other), out_channel=16, padding=padding.value
        )
    elif kind is LayerKind.FC:
        direct, replaced = fc(8, 16), dataclasses.replace(fc(8, 32), out_dim=16)
    else:
        factory = gru if kind is LayerKind.GRU else lstm
        direct, replaced = factory(8, 16, 4), dataclasses.replace(factory(8, 32, 4), out_dim=16)
    decoded = config_from_dict(json.loads(json.dumps(config_to_dict(direct))))
    return direct, decoded, replaced


@pytest.mark.parametrize(
    "kind, padding",
    [(LayerKind.CNN, padding) for padding in Padding]
    + [(kind, None) for kind in LayerKind if kind is not LayerKind.CNN],
    ids=str,
)
def test_equal_configs_hash_equal_however_built(kind, padding):
    # layer kinds and paddings hash by identity, which agrees with == only
    # because every route to a member yields the one singleton
    direct, decoded, replaced = _built_three_ways(kind, padding)
    assert direct == decoded == replaced
    assert decoded.kind is replaced.kind is kind and LayerKind(kind.value) is kind
    assert decoded.padding is replaced.padding is padding
    assert padding is None or Padding(padding.value) is padding
    assert hash(direct) == hash(decoded) == hash(replaced)
    prices = {direct: 1.0}
    prices[decoded] = 2.0
    prices[replaced] = 3.0
    assert prices == {direct: 3.0}


# --- the width copy -------------------------------------------------------------------

_ONE_OF_EACH = {
    LayerKind.FC: fc(8, 16),
    LayerKind.CNN: cnn(24, 24, 3, 3, 8, 16, stride=2, padding="valid"),
    LayerKind.GRU: gru(8, 16, 10),
    LayerKind.LSTM: lstm(8, 16, 10),
}


@settings(max_examples=200)
@given(
    config=any_config(),
    which=st.sampled_from(["in", "out", "both"]),
    widths=st.tuples(st.integers(1, 5000), st.integers(1, 5000)),
    as_numpy=st.booleans(),
)
def test_width_copy_equals_replace(config, which, widths, as_numpy):
    in_field, out_field = width_fields(config.kind)
    convert = np.int64 if as_numpy else int
    changes = {}
    if which != "out":
        changes[in_field] = convert(widths[0])
    if which != "in":
        changes[out_field] = convert(widths[1])
    before = dataclasses.astuple(config)
    copy = layers._with_widths(config, **changes)
    expected = dataclasses.replace(config, **changes)
    assert copy == expected and hash(copy) == hash(expected)
    assert type(copy) is StructureConfig and not hasattr(copy, "__dict__")
    # numpy widths are stored as Python ints, as the constructor stores them
    assert [type(v) for v in dataclasses.astuple(copy)] == [
        type(v) for v in dataclasses.astuple(expected)
    ]
    assert _row_values(copy) == _row_values(expected)
    assert dataclasses.astuple(config) == before


@pytest.mark.parametrize("kind", list(LayerKind), ids=str)
@pytest.mark.parametrize("value", [0, -3, True, 2.5, "4", np.float64(4.0)], ids=repr)
def test_width_copy_raises_the_constructors_messages(kind, value):
    config = _ONE_OF_EACH[kind]
    for name in width_fields(kind):
        with pytest.raises(ValueError) as expected:
            dataclasses.replace(config, **{name: value})
        with pytest.raises(ValueError) as got:
            layers._with_widths(config, **{name: value})
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "kind, name",
    [(LayerKind.CNN, name) for name in ("kind", "in_height", "kernel_width", "stride", "padding",
                                        "in_dim")]
    + [(LayerKind.FC, "in_channel"), (LayerKind.GRU, "step"), (LayerKind.LSTM, "out_channel")],
)
def test_width_copy_rejects_a_field_that_is_not_a_width(kind, name):
    with pytest.raises(ValueError, match=f"{name} is not a width field of {kind.value} layers"):
        layers._with_widths(_ONE_OF_EACH[kind], **{name: 4})


# --- the one-pass row -----------------------------------------------------------------
# The derivation and row builder that the one-pass versions replaced, kept
# as the reference.


def reference_derived(config):
    kind = config.kind
    if kind is LayerKind.FC:
        in_dim, out_dim = config.in_dim, config.out_dim
        param_size = in_dim * out_dim + out_dim
        return in_dim, out_dim, 0, param_size, 2 * in_dim * out_dim + out_dim
    if kind is LayerKind.CNN:
        out_h, out_w = conv_output_dims(
            config.in_height, config.in_width, config.kernel_height, config.kernel_width,
            config.stride, config.padding,
        )
        kernel = config.kernel_height * config.kernel_width
        return (
            config.in_height * config.in_width * config.in_channel,
            out_h * out_w * config.out_channel,
            out_h * out_w * kernel * config.in_channel,
            kernel * config.in_channel * config.out_channel + 1,
            2 * out_h * out_w * kernel * config.in_channel * config.out_channel,
        )
    step, in_dim, out_dim = config.step, config.in_dim, config.out_dim
    if kind is LayerKind.GRU:
        param_size = 3 * out_dim * (in_dim + out_dim + 1)
        memory = (step * in_dim, step * out_dim, 3 * step * out_dim)
    else:
        param_size = 4 * out_dim * (in_dim + out_dim + 1)
        memory = (2 * step * in_dim, 2 * step * out_dim, 4 * step * out_dim)
    return (*memory, param_size, 2 * step * param_size)


def reference_row_values(config):
    mem_in, mem_out, mem_inter, param_size, flops = reference_derived(config)
    values = []
    try:
        for name in layers._FIELDS_BY_KIND[config.kind]:
            raw = getattr(config, name)
            values.append(float(layers.PADDING_CODES[raw] if name == "padding" else raw))
        values += (float(mem_in), float(mem_out), float(mem_inter), float(param_size))
        values += (float(flops), float(mem_in + mem_out + mem_inter), float(param_size))
        if config.kind in layers.RECURRENT_KINDS:
            values.append(float(config.step))
    except OverflowError:
        raise ValueError(
            f"{config.kind.value} config has a size too large for a float"
        ) from None
    return values


def huge_config():
    """Configs whose fields or derived sizes may not fit a float."""
    size = st.one_of(st.integers(1, 4096), st.integers(1, 10**320))
    cnn_configs = st.tuples(
        st.one_of(st.integers(24, 225), st.integers(24, 10**200)),
        st.integers(24, 225), size, size,
        st.sampled_from([1, 2]), st.sampled_from(["valid", "same"]),
    ).map(lambda t: cnn(t[0], t[1], 3, 3, t[2], t[3], t[4], t[5]))
    return st.one_of(
        st.builds(fc, size, size),
        cnn_configs,
        st.builds(gru, size, size, st.one_of(st.integers(1, 20), st.integers(1, 10**320))),
        st.builds(lstm, size, size, st.one_of(st.integers(1, 20), st.integers(1, 10**320))),
    )


@settings(max_examples=300)
@given(config=st.one_of(any_config(), huge_config()))
@example(config=cnn(24, 24, 3, 3, 10**400, 16))
@example(config=lstm(10**200, 4, 10**200))
def test_row_values_equal_the_replaced_builder(config):
    try:
        expected = reference_row_values(config)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _row_values(config)
        assert str(got.value) == str(exc)
        return
    assert layers._derived(config) == reference_derived(config)
    got = _row_values(config)
    assert type(got) is list and [type(v) for v in got] == [float] * len(expected)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


@given(kind=st.sampled_from(list(LayerKind)), index=st.integers(-(10**6), 10**6))
def test_width_at_names_the_width_field_a_feature_holds(kind, index):
    names, widths = feature_names(kind), width_fields(kind)

    def expected(j):
        return names[j] if 0 <= j < len(names) and names[j] in widths else None

    for j in [*range(-2, len(names) + 2), index]:
        assert layers._width_at(kind, j) == expected(j)
    assert sorted(filter(None, map(expected, range(len(names))))) == sorted(widths)


def test_only_layers_and_tree_read_the_row_layout():
    # steering, analysis and the CLI split rows with ``_split_row`` and find
    # widths with ``_width_at``; none reads the row layout or feature names
    source = Path(layers.__file__).parent
    banned = {"_row_values", "_n_features", "feature_names"}
    found = []
    for module in ("steering", "analysis", "cli"):
        for node in ast.walk(ast.parse((source / f"{module}.py").read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in banned:
                found.append(f"{module}.py:{node.lineno}: {name}")
    assert found == []
