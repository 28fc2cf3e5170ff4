"""Plan generation, synthetic oracle sampling, and profile file round trips."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import leaf
from layertime import harness
from layertime.cli import main
from layertime.harness import (
    ProfileFormatError,
    ProfileSample,
    SyntheticOracle,
    default_oracle,
    generate_plan,
    ingest_profile,
    load_oracle,
    load_plan,
    read_profile,
    save_oracle,
    save_plan,
    synth_profile,
    synth_time,
    write_profile,
)
from layertime.layers import LayerKind, cnn, config_to_dict, derive_features, fc, gru, lstm
from layertime.tree import (
    Condition,
    ConditionKind,
    Dataset,
    ModelFormatError,
    TimeModel,
    fit_tree,
)


# --- plans ---------------------------------------------------------------------


def test_default_scope_respects_ranges():
    plan = generate_plan(n_networks=30, seed=5)
    kernels = {(2, 2), (3, 3), (4, 4), (5, 5), (2, 3)}
    for config in plan:
        if config.kind is LayerKind.CNN:
            assert 1 <= config.in_channel <= 256
            assert 1 <= config.out_channel <= 256
            assert 24 <= config.in_height <= 225
            assert (config.kernel_height, config.kernel_width) in kernels
        elif config.kind is LayerKind.FC:
            assert 1 <= config.in_dim <= 4096
        else:
            assert 1 <= config.out_dim <= 512
            assert config.step in (8, 10, 15, 20)


def test_same_seed_same_plan():
    assert generate_plan(n_networks=10, seed=3) == generate_plan(n_networks=10, seed=3)
    assert generate_plan(n_networks=10, seed=3) != generate_plan(n_networks=10, seed=4)


def test_zero_networks_is_an_error():
    with pytest.raises(ValueError):
        generate_plan(n_networks=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "1"])
def test_seed_that_is_not_a_non_negative_integer_is_an_error(seed):
    with pytest.raises(ValueError, match="seed must be"):
        generate_plan(n_networks=1, seed=seed)


def test_unknown_scope_is_an_error():
    with pytest.raises(ValueError, match="unknown scope"):
        generate_plan(scope="galaxy")


@pytest.mark.parametrize(
    "field, value",
    [("fc_dim", (5, 4)), ("cnn_extent", (30, 24)), ("cnn_channel", (1, -1)), ("rnn_dim", (2, 1)),
     ("fc_dim", (1, 2**63)), ("kernels", ()), ("paddings", ()), ("strides", ()), ("steps", ())],
)
def test_an_empty_scope_range_is_an_error_naming_its_field(monkeypatch, field, value):
    monkeypatch.setitem(harness.SCOPES, "narrow", {**harness.SCOPES["default"], field: value})
    with pytest.raises(ValueError, match=f"scope 'narrow' {field}"):
        generate_plan(scope="narrow", n_networks=1)


def test_a_scope_range_of_one_value_draws_that_value(monkeypatch):
    monkeypatch.setitem(harness.SCOPES, "narrow", {**harness.SCOPES["default"], "fc_dim": (7, 7)})
    fcs = [c for c in generate_plan(scope="narrow", n_networks=4) if c.kind is LayerKind.FC]
    assert fcs and all(c == fc(7, 7) for c in fcs)


def test_default_plan_size():
    plan = generate_plan(seed=0)  # 120 networks
    assert 1100 <= len(plan) <= 1500


def test_categorical_coverage():
    plan = generate_plan(n_networks=120, seed=11)
    assert len(plan) >= 1000
    cnn_draws = [c for c in plan if c.kind is LayerKind.CNN]
    rnn_draws = [c for c in plan if c.kind in (LayerKind.GRU, LayerKind.LSTM)]
    assert {(c.kernel_height, c.kernel_width) for c in cnn_draws} == {
        (2, 2), (3, 3), (4, 4), (5, 5), (2, 3),
    }
    assert {c.padding.value for c in cnn_draws} == {"valid", "same"}
    assert {c.stride for c in cnn_draws} == {1, 2}
    assert {c.step for c in rnn_draws} == {8, 10, 15, 20}
    assert {c.kind for c in plan} == set(LayerKind)


def test_plan_file_round_trip(tmp_path):
    plan = generate_plan(n_networks=5, seed=2)
    path = tmp_path / "plan.jsonl"
    save_plan(plan, path)
    assert load_plan(path) == plan


def test_plan_and_profile_files_are_lines_of_sorted_key_json(tmp_path):
    plan = [*generate_plan(n_networks=2, seed=3), cnn(24, 24, 3, 3, 8, 16, padding="same")]
    samples = [
        *synth_profile(default_oracle(noise=0.3), plan),
        ProfileSample(config=fc(3, 1), time_ms=1e-300, reps=7, source="measured"),
    ]
    plan_path, profile_path = tmp_path / "plan.jsonl", tmp_path / "profile.jsonl"
    save_plan(plan, plan_path)
    write_profile(samples, profile_path)

    def lines(records):
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)

    def record(sample):
        config = config_to_dict(sample.config)
        return {"layer_type": config.pop("kind"), "config": config, "time_ms": sample.time_ms,
                "reps": sample.reps, "source": sample.source, "schema": 1}

    assert plan_path.read_bytes() == lines(map(config_to_dict, plan)).encode("utf-8")
    assert profile_path.read_bytes() == lines(map(record, samples)).encode("utf-8")


class _ForgedText(str):
    """A source equal to its ``_SOURCES`` entry that prints as something else."""

    def __str__(self):
        return "forged"

    def __repr__(self):
        return "forged"

    def __format__(self, spec):
        return "forged"


# counts around 2**53, where a float would no longer hold them, and far past it
_COUNTS = st.one_of(st.integers(1, 300), st.integers(2**53 - 2, 2**53 + 2), st.integers(1, 2**80))


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(LayerKind))
    if kind is LayerKind.FC:
        return fc(draw(_COUNTS), draw(_COUNTS))
    if kind is LayerKind.CNN:
        height, width = draw(_COUNTS), draw(_COUNTS)
        return cnn(
            height, width, draw(st.integers(1, height)), draw(st.integers(1, width)),
            draw(_COUNTS), draw(_COUNTS), draw(st.sampled_from([1, 2])),
            draw(st.sampled_from(["valid", "same"])),
        )
    return (gru if kind is LayerKind.GRU else lstm)(draw(_COUNTS), draw(_COUNTS), draw(_COUNTS))


_EXTREME_TIMES = [5e-324, 1e-300, 1.7976931348623157e308]
_SAMPLES = st.builds(
    ProfileSample,
    config=_configs(),
    time_ms=st.one_of(
        st.sampled_from(_EXTREME_TIMES), st.floats(0, 1.7976931348623157e308, exclude_min=True)
    ),
    reps=_COUNTS,
    source=st.sampled_from(["measured", "synthetic", _ForgedText("measured")]),
)


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(_SAMPLES, max_size=6))
@example(samples=[
    ProfileSample(fc(2**53 + 1, 1), 5e-324, 2**64, "measured"),
    ProfileSample(cnn(24, 24, 3, 3, 8, 2**60, 2, "valid"), 1e-300, 1, _ForgedText("synthetic")),
    ProfileSample(cnn(5, 9, 7, 2, 2**53, 16, 1, "same"), 1.7976931348623157e308, 3, "synthetic"),
    ProfileSample(gru(1, 2**70, 20), 0.5, 7, "measured"),
    ProfileSample(lstm(3, 2, 2**53 - 1), 12.25, 2**80, _ForgedText("measured")),
])
def test_plan_and_profile_lines_are_json_dumps_with_sorted_keys(samples):
    def record(sample):
        config = config_to_dict(sample.config)
        return {"layer_type": config.pop("kind"), "config": config, "time_ms": sample.time_ms,
                "reps": sample.reps, "source": sample.source, "schema": 1}

    configs = [sample.config for sample in samples]
    with tempfile.TemporaryDirectory() as tmp:
        plan_path, profile_path = Path(tmp, "plan.jsonl"), Path(tmp, "profile.jsonl")
        save_plan(configs, plan_path)
        write_profile(samples, profile_path)
        plan_bytes, profile_bytes = plan_path.read_bytes(), profile_path.read_bytes()
    assert plan_bytes == "".join(
        json.dumps(config_to_dict(config), sort_keys=True) + "\n" for config in configs
    ).encode()
    assert profile_bytes == "".join(
        json.dumps(record(sample), sort_keys=True) + "\n" for sample in samples
    ).encode()
    assert b"forged" not in profile_bytes


# --- synthetic sampling -----------------------------------------------------------


def test_empty_plan_synthesizes_nothing():
    assert synth_profile(default_oracle(noise=0.05), []) == []


def test_noise_free_sampling_is_exact():
    oracle = default_oracle(noise=0.0)
    config = cnn(24, 24, 3, 3, 44, 64)
    sample = synth_time(oracle, config)
    assert sample.time_ms == oracle.models[LayerKind.CNN].predict(config)
    assert sample.source == "synthetic"


def test_planted_single_leaf_value():
    model = TimeModel(kind=LayerKind.FC, root=leaf((1.0, 0.0, 0.0), 2.0))
    oracle = SyntheticOracle(models={LayerKind.FC: model})
    sample = synth_time(oracle, fc(1, 1))  # flops = 3
    assert sample.time_ms == pytest.approx(5.0)


def test_sampling_deterministic_under_seed_and_config():
    oracle = default_oracle(noise=0.05, seed=9)
    config = cnn(24, 24, 3, 3, 13, 29)
    assert synth_time(oracle, config).time_ms == synth_time(oracle, config).time_ms
    other_seed = default_oracle(noise=0.05, seed=10)
    assert synth_time(other_seed, config).time_ms != synth_time(oracle, config).time_ms


def test_uncovered_kind_is_an_error():
    oracle = SyntheticOracle(models={})
    with pytest.raises(ValueError, match="cover"):
        synth_time(oracle, fc(1, 1))


def test_relative_noise_level():
    noiseless = default_oracle(noise=0.0)
    noisy = default_oracle(noise=0.01, seed=4)
    plan = generate_plan(n_networks=120, seed=8)
    assert len(plan) >= 1000
    exact = np.array([synth_time(noiseless, c).time_ms for c in plan])
    drawn = np.array([synth_time(noisy, c).time_ms for c in plan])
    mape = float(np.mean(np.abs(drawn - exact) / exact))
    # half-normal mean of 1 percent relative noise is about 0.8 percent
    assert 0.006 <= mape <= 0.010


# --- profile files ------------------------------------------------------------------


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest_profile(path) == {}


def test_single_record_round_trip(tmp_path):
    config = cnn(24, 24, 3, 3, 8, 16)
    sample = ProfileSample(config=config, time_ms=3.25, reps=20, source="measured")
    path = tmp_path / "profile.jsonl"
    write_profile([sample], path)
    assert read_profile(path) == [sample]
    data = ingest_profile(path)
    assert set(data) == {LayerKind.CNN}
    ds = data[LayerKind.CNN]
    assert len(ds) == 1
    assert list(ds.features[0]) == list(derive_features(config).as_array())
    assert ds.times[0] == 3.25


def test_ingest_returns_the_kinds_in_value_order(tmp_path):
    configs = [lstm(4, 8, 10), fc(3, 4), cnn(24, 24, 3, 3, 8, 16), gru(5, 6, 8)]
    path = tmp_path / "profile.jsonl"
    write_profile([ProfileSample(config=c, time_ms=1.5) for c in configs], path)
    assert list(ingest_profile(path)) == [LayerKind.CNN, LayerKind.FC, LayerKind.GRU,
                                          LayerKind.LSTM]


def test_dataset_round_trips_through_files(tmp_path):
    oracle = default_oracle(noise=0.01, seed=2)
    plan = generate_plan(n_networks=6, seed=13)
    samples = synth_profile(oracle, plan)
    path = tmp_path / "profile.jsonl"
    write_profile(samples, path)
    first = ingest_profile(path)
    write_profile(read_profile(path), path)
    second = ingest_profile(path)
    assert set(first) == set(second)
    for kind in first:
        assert np.array_equal(first[kind].features, second[kind].features)
        assert np.array_equal(first[kind].times, second[kind].times)


def test_nonpositive_time_reports_line(tmp_path):
    config = cnn(24, 24, 3, 3, 8, 16)
    path = tmp_path / "profile.jsonl"
    write_profile([ProfileSample(config=config, time_ms=1.0)], path)
    lines = path.read_text().splitlines()
    lines.append(lines[0].replace('"time_ms": 1.0', '"time_ms": 0.0'))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileFormatError, match=":2:"):
        read_profile(path)


@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_time_reports_line(tmp_path, bad):
    config = cnn(24, 24, 3, 3, 8, 16)
    path = tmp_path / "profile.jsonl"
    write_profile([ProfileSample(config=config, time_ms=1.0)], path)
    lines = path.read_text().splitlines()
    lines.append(lines[0].replace('"time_ms": 1.0', f'"time_ms": {bad}'))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileFormatError, match=":2:"):
        read_profile(path)


def test_size_too_large_for_a_float_reports_line(tmp_path):
    path = tmp_path / "profile.jsonl"
    write_profile([ProfileSample(config=fc(3, 5), time_ms=1.0)], path)
    lines = path.read_text().splitlines()
    lines.append(lines[0].replace('"in_dim": 3, "out_dim": 5',
                                  f'"in_dim": {10**300}, "out_dim": {10**300}'))
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:2: FC config has a size too large for a float"
    with pytest.raises(ProfileFormatError, match=f"^{re.escape(message)}$"):
        read_profile(path)


def test_sample_rejects_infinite_time():
    with pytest.raises(ValueError, match="finite"):
        ProfileSample(config=fc(3, 5), time_ms=float("inf"))


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "profile.jsonl"
    path.write_text('{"layer_type": "FC"\n')
    with pytest.raises(ProfileFormatError, match=":1:"):
        read_profile(path)


def test_unknown_record_field_rejected(tmp_path):
    path = tmp_path / "profile.jsonl"
    path.write_text(
        '{"layer_type": "FC", "config": {"in_dim": 3, "out_dim": 5}, '
        '"time_ms": 1.0, "watts": 2.0}\n'
    )
    with pytest.raises(ProfileFormatError, match="watts"):
        read_profile(path)


def test_unknown_config_field_rejected(tmp_path):
    path = tmp_path / "profile.jsonl"
    path.write_text(
        '{"layer_type": "FC", "config": {"in_dim": 3, "out_dim": 5, "stride": 1}, '
        '"time_ms": 1.0}\n'
    )
    with pytest.raises(ProfileFormatError, match="stride"):
        read_profile(path)


def test_mixed_schema_versions_rejected(tmp_path):
    record = '{"layer_type": "FC", "config": {"in_dim": 3, "out_dim": 5}, "time_ms": 1.0, "schema": %d}'
    path = tmp_path / "profile.jsonl"
    path.write_text((record % 1) + "\n" + (record % 2) + "\n")
    with pytest.raises(ProfileFormatError, match="mixed schema"):
        read_profile(path)


_FC_RECORD = {"layer_type": "FC", "config": {"in_dim": 3, "out_dim": 5}, "time_ms": 1.0}


@pytest.mark.parametrize(
    "field, value",
    [("schema", 7), ("schema", [1]), ("schema", {}), ("schema", True),
     ("reps", 2.7), ("reps", "3"), ("reps", True), ("reps", 0.5), ("reps", 0),
     ("time_ms", True), ("time_ms", "1.5"), ("time_ms", None)],
)
def test_profile_record_fields_keep_their_types(tmp_path, field, value):
    path = tmp_path / "profile.jsonl"
    path.write_text(json.dumps({**_FC_RECORD, field: value}) + "\n")
    message = f"^{re.escape(str(path))}:1: {field} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ProfileFormatError, match=message):
        read_profile(path)
    path.write_text(json.dumps({**_FC_RECORD, "schema": 1, "reps": 3, "time_ms": 2}) + "\n")
    [sample] = read_profile(path)
    assert (sample.reps, sample.time_ms) == (3, 2.0)


def test_duplicates_are_kept(tmp_path):
    config = fc(3, 5)
    samples = [
        ProfileSample(config=config, time_ms=1.0),
        ProfileSample(config=config, time_ms=1.2),
    ]
    path = tmp_path / "profile.jsonl"
    write_profile(samples, path)
    assert len(ingest_profile(path)[LayerKind.FC]) == 2


# --- oracle files --------------------------------------------------------------------


def test_oracle_file_round_trip():
    oracle = default_oracle(noise=0.02, seed=77)
    restored = load_oracle(save_oracle(oracle))
    assert restored.noise == 0.02
    assert restored.seed == 77
    assert set(restored.models) == set(oracle.models)
    config = cnn(24, 24, 3, 3, 43, 64)
    assert restored.models[LayerKind.CNN].predict(config) == oracle.models[
        LayerKind.CNN
    ].predict(config)


@pytest.mark.parametrize("defect", ["version 9.0", "duplicate kind"])
def test_oracle_document_checked_like_a_model_file(defect):
    doc = json.loads(save_oracle(default_oracle()))
    if defect == "version 9.0":
        doc["format_version"] = "9.0"
    else:
        doc["models"].append(doc["models"][0])
    with pytest.raises(ModelFormatError):
        load_oracle(json.dumps(doc))


@pytest.mark.parametrize("seed", [1.5, True, "7", None, [7]])
def test_oracle_seed_must_be_an_integer(seed):
    doc = json.loads(save_oracle(default_oracle()))
    doc["seed"] = seed
    with pytest.raises(ModelFormatError, match="seed must be an integer"):
        load_oracle(json.dumps(doc))
    doc["seed"] = -7
    assert load_oracle(json.dumps(doc)).seed == -7


@pytest.mark.parametrize(
    "fields",
    [{"reps": 2.5}, {"reps": True}, {"time_ms": True}, {"time_ms": 10**400},
     {"noise": True}, {"noise": "0.5"}, {"seed": "7"}, {"seed": 7.0}],
    ids=lambda fields: repr(fields)[:40],
)
def test_samples_and_oracles_check_their_own_fields(fields):
    with pytest.raises(ValueError, match=f"^{next(iter(fields))} (must be|is too large)"):
        if "noise" in fields or "seed" in fields:
            SyntheticOracle(models=default_oracle().models, **fields)
        else:
            ProfileSample(config=fc(3, 5), **{"time_ms": 1.0, **fields})


@pytest.mark.parametrize("noise", [True, "0.5"])
def test_oracle_noise_must_be_a_number(noise):
    doc = json.loads(save_oracle(default_oracle()))
    doc["noise"] = noise
    with pytest.raises(ModelFormatError, match="noise must be a number"):
        load_oracle(json.dumps(doc))


@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_non_finite_oracle_noise_rejected(tmp_path, capsys, noise):
    with pytest.raises(ValueError, match="noise"):
        SyntheticOracle(models=default_oracle().models, noise=noise)
    doc = json.loads(save_oracle(default_oracle()))
    doc["noise"] = noise
    payload = json.dumps(doc)
    with pytest.raises(ModelFormatError, match="noise"):
        load_oracle(payload)
    oracle_path = tmp_path / "oracle.json"
    oracle_path.write_text(payload)
    plan_path = tmp_path / "plan.jsonl"
    save_plan([fc(3, 5)], plan_path)
    out = tmp_path / "profile.jsonl"
    code = main(["synth", "--plan", str(plan_path), "--oracle", str(oracle_path),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: data: ")
    assert not out.exists()


def test_default_oracle_shape():
    oracle = default_oracle()
    assert set(oracle.models) == set(LayerKind)
    root = oracle.models[LayerKind.CNN].root
    assert root.condition.kind is ConditionKind.MULTIPLE
    assert root.condition.tau == 4
    gru_leaf = oracle.models[LayerKind.GRU].root
    assert gru_leaf.fit.w[3] == pytest.approx(0.666)


# --- noiseless round trip through fitting ---------------------------------------------


def test_fit_on_noiseless_synth_reproduces_the_oracle():
    oracle = default_oracle(noise=0.0)
    plan = generate_plan(n_networks=60, seed=19)
    samples = synth_profile(oracle, plan)
    grouped: dict[LayerKind, list[ProfileSample]] = {}
    for sample in samples:
        grouped.setdefault(sample.config.kind, []).append(sample)
    for kind, group in grouped.items():
        ds = Dataset.from_records(
            kind, [s.config for s in group], [s.time_ms for s in group]
        )
        model = fit_tree(ds)
        predictions = model.predict_rows(ds.features, ds.explanatory)
        mape = float(np.mean(np.abs(predictions - ds.times) / ds.times))
        assert mape <= 1e-6, f"{kind.value} round trip MAPE {mape}"
