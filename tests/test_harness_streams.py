"""Plans and synthetic times are drawn from the same random streams as the reference code.

The references below are the plan and noise code as first written: one
scalar ``rng.integers`` call per plan draw, with the layer kind drawn by
``rng.choice`` over the kind values, and each config's noise stream a
generator of its own, seeded with ``SeedSequence([seed, *words])`` over the
digest's 64-bit words.  ``generate_plan`` reads its generator's raw words
instead, and each of its draws is checked against numpy's
``Generator.integers``; ``synth_profile`` seeds a whole plan's streams in one
batch, and its states are checked against numpy's own ``SeedSequence``.
"""

import hashlib
import itertools
import json
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertime import harness
from layertime.harness import (
    ProfileSample,
    SyntheticOracle,
    default_oracle,
    generate_plan,
    synth_profile,
    synth_time,
)
from layertime.layers import (
    LayerKind,
    Padding,
    StructureConfig,
    cnn,
    config_from_dict,
    config_to_dict,
    fc,
    gru,
    lstm,
)
from layertime.nnls import NumericError
from layertime.tree import LinearFit, Node, TimeModel


# the profiling space, copied here so that a changed range or choice fails the reference draws
_SPACE = {
    "fc_dim": (1, 4096),
    "cnn_extent": (24, 225),
    "cnn_channel": (1, 256),
    "kernels": ((2, 2), (3, 3), (4, 4), (5, 5), (2, 3)),
    "paddings": ("valid", "same"),
    "strides": (1, 2),
    "rnn_dim": (1, 512),
    "steps": (8, 10, 15, 20),
}


def reference_draw_config(rng):
    kind = LayerKind(rng.choice([k.value for k in LayerKind]))
    if kind is LayerKind.FC:
        lo, hi = _SPACE["fc_dim"]
        return fc(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
    if kind is LayerKind.CNN:
        lo, hi = _SPACE["cnn_extent"]
        clo, chi = _SPACE["cnn_channel"]
        kernel = _SPACE["kernels"][int(rng.integers(0, len(_SPACE["kernels"])))]
        return cnn(
            in_height=int(rng.integers(lo, hi + 1)),
            in_width=int(rng.integers(lo, hi + 1)),
            kernel_height=kernel[0],
            kernel_width=kernel[1],
            in_channel=int(rng.integers(clo, chi + 1)),
            out_channel=int(rng.integers(clo, chi + 1)),
            stride=int(_SPACE["strides"][int(rng.integers(0, len(_SPACE["strides"])))]),
            padding=_SPACE["paddings"][int(rng.integers(0, len(_SPACE["paddings"])))],
        )
    lo, hi = _SPACE["rnn_dim"]
    step = int(_SPACE["steps"][int(rng.integers(0, len(_SPACE["steps"])))])
    factory = gru if kind is LayerKind.GRU else lstm
    return factory(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)), step)


def reference_config_rng(seed, config):
    digest = hashlib.sha256(
        json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    ).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *words]))


def reference_synth_time(oracle, config):
    """One config's sample as first written: its own generator, then the retry loop."""
    base = oracle.models[config.kind].predict(config)
    time_ms = base
    if oracle.noise > 0:
        rng = reference_config_rng(oracle.seed, config)
        for _ in range(100):
            time_ms = base * (1.0 + rng.normal(0.0, oracle.noise))
            if time_ms > 0:
                break
        else:
            time_ms = base * 1e-6
    return ProfileSample(config=config, time_ms=float(time_ms), source="synthetic")


def reference_plan(n_networks, seed):
    """The plan loop as first written: one generator, then per network its
    component count and each component's config, built by its constructor."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(n_networks):
        n_components = int(rng.integers(8, 15))
        plan.extend(reference_draw_config(rng) for _ in range(n_components))
    return plan


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64), n_networks=st.integers(1, 4))
def test_plan_matches_the_reference_draws(seed, n_networks):
    assert generate_plan(n_networks=n_networks, seed=seed) == reference_plan(n_networks, seed)


def test_plans_of_the_first_ten_thousand_seeds_match_the_reference_draws():
    for seed in range(10_000):
        assert generate_plan(n_networks=3, seed=seed) == reference_plan(3, seed), seed


def _slot_types(config):
    return tuple(type(getattr(config, name)) for name in StructureConfig.__slots__)


@pytest.mark.parametrize("kind", list(LayerKind), ids=lambda kind: kind.value)
def test_a_plan_stores_each_slot_as_the_constructor_does(kind):
    # configs are built without the constructor, and == cannot tell 2 from 2.0
    stored = {LayerKind, int, Padding, type(None)}
    seen = 0
    for seed in range(300):
        plan = [_slot_types(c) for c in generate_plan(n_networks=3, seed=seed) if c.kind is kind]
        assert plan == [_slot_types(c) for c in reference_plan(3, seed) if c.kind is kind], seed
        assert set().union(*plan) <= stored, seed
        seen += len(plan)
    assert seen


def _corners(kind):
    """Every config that ``kind``'s drawer builds when each range draw gives
    one of its two ends and each choice draw any of its choices."""
    index = list(LayerKind).index(kind)
    bounds = []
    harness._drawers(lambda lo, hi: bounds.append((lo, hi)) or lo)[index]()
    # a choice draw is an index from 0 over a few choices; a range spans hundreds
    picks = [range(lo, hi + 1) if hi - lo < 8 else (lo, hi) for lo, hi in bounds]
    for values in itertools.product(*picks):
        draws = iter(values)
        yield harness._drawers(lambda lo, hi: next(draws))[index]()
        assert next(draws, None) is None, "the drawer took fewer draws than it did first"


@pytest.mark.parametrize("kind", list(LayerKind), ids=lambda kind: kind.value)
def test_every_corner_of_the_space_builds_as_the_constructor_does(kind):
    # random seeds rarely reach the space's ends, where a size or the valid
    # padding fit would first break a rule of the constructor or the domain
    corners = list(_corners(kind))
    assert len(corners) == {LayerKind.FC: 4, LayerKind.CNN: 320}.get(kind, 16)
    for config in corners:
        built = config_from_dict(config_to_dict(config))  # the constructor, then the domain
        assert built == config and _slot_types(built) == _slot_types(config), config


# per layer kind, each field (a kernel is one field of two slots) and the
# entry of the space it is drawn from
_KERNEL = ("kernel_height", "kernel_width")
_FIELD_SPACES = [
    (LayerKind.FC, "in_dim", "fc_dim"),
    (LayerKind.FC, "out_dim", "fc_dim"),
    (LayerKind.CNN, "in_height", "cnn_extent"),
    (LayerKind.CNN, "in_width", "cnn_extent"),
    (LayerKind.CNN, _KERNEL, "kernels"),
    (LayerKind.CNN, "in_channel", "cnn_channel"),
    (LayerKind.CNN, "out_channel", "cnn_channel"),
    (LayerKind.CNN, "stride", "strides"),
    (LayerKind.CNN, "padding", "paddings"),
    *((kind, field, space)
      for kind in (LayerKind.GRU, LayerKind.LSTM)
      for field, space in (("in_dim", "rnn_dim"), ("out_dim", "rnn_dim"), ("step", "steps"))),
]
_RANGES = {"fc_dim", "cnn_extent", "cnn_channel", "rnn_dim"}


@pytest.fixture(scope="module")
def large_plan():
    return generate_plan(n_networks=2000, seed=0)  # about 5500 configs of each kind


@pytest.mark.parametrize(
    "kind, field, space", _FIELD_SPACES,
    ids=[f"{kind.value}-{'kernel' if field == _KERNEL else field}" for kind, field, _ in _FIELD_SPACES],
)
def test_each_field_is_drawn_over_its_whole_range_or_choices(large_plan, kind, field, space):
    get = attrgetter(*field) if field == _KERNEL else attrgetter(field)
    values = [get(c) for c in large_plan if c.kind is kind]
    if space in _RANGES:
        lo, hi = _SPACE[space]
        assert lo <= min(values) and max(values) <= hi
        # thousands of uniform draws reach every quarter of the range
        assert {(v - lo) * 4 // (hi - lo + 1) for v in values} == {0, 1, 2, 3}
    elif field == "padding":
        assert set(values) == set(map(Padding, _SPACE[space]))
    else:
        assert set(values) == set(_SPACE[space])


# spans at and around the 32-bit and 64-bit edges of numpy's algorithm
_EDGE_SPANS = [1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1, 2**64]


@st.composite
def _bounds(draw):
    spans = st.one_of(st.sampled_from(_EDGE_SPANS), st.integers(1, 300), st.integers(1, 2**64))
    span = draw(spans)
    lo = draw(st.integers(-(2**63), 2**63 - span))
    return lo, lo + span - 1


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**128), bounds=st.lists(_bounds(), min_size=1, max_size=40),
    rounds=st.integers(1, 60),
)
def test_draws_equal_numpys_integers_on_a_twin_generator(seed, bounds, rounds):
    # up to 2,400 draws, so a sequence can run past a block of raw words
    draw = harness._draws(seed)
    twin = np.random.default_rng(seed)
    for lo, hi in bounds * rounds:
        assert draw(lo, hi) == int(twin.integers(lo, hi + 1)), (lo, hi)


_CONFIGS = st.sampled_from(generate_plan(n_networks=8, seed=11))
_SEEDS = st.integers(-(2**70), 2**70)


def _one_stream(seed, config):
    (rng,) = harness._noise_streams(seed, [config])
    return rng


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, config=_CONFIGS, noise=st.floats(0.001, 0.5))
def test_synth_time_matches_the_reference_stream(seed, config, noise):
    oracle = SyntheticOracle(default_oracle().models, noise=noise, seed=seed)
    ours = _one_stream(seed, config)
    reference = reference_config_rng(seed, config)
    assert ours.bit_generator.state == reference.bit_generator.state
    assert ours.normal(size=4).tolist() == reference.normal(size=4).tolist()
    assert synth_time(oracle, config) == reference_synth_time(oracle, config)


class _FixedDigest:
    def __init__(self, digest: bytes):
        self._digest = digest

    def digest(self) -> bytes:
        return self._digest


# a 64-bit digest word, often with a high half of 0, which SeedSequence
# takes as one 32-bit word instead of two
_WORDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63]),
)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, words=st.lists(_WORDS, min_size=4, max_size=4), config=_CONFIGS)
def test_crafted_digests_seed_the_reference_stream(seed, words, config):
    digest = b"".join(w.to_bytes(8, "big") for w in words)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashlib, "sha256", lambda data: _FixedDigest(digest))
        ours = _one_stream(seed, config)
        reference = reference_config_rng(seed, config)
    assert ours.bit_generator.state == reference.bit_generator.state
    assert ours.normal(size=4).tolist() == reference.normal(size=4).tolist()


_sha256 = hashlib.sha256


def _crafted_sha256(data):
    """SHA-256 of ``data`` with, by its own first byte, some words cut to their
    low half or to 0, so that one plan's entropy rows hold 5 to 9 words."""
    digest = _sha256(data).digest()
    pattern = digest[0]
    words = []
    for i in range(4):
        word = int.from_bytes(digest[8 * i : 8 * i + 8], "big")
        if pattern >> i & 1:
            word &= 0xFFFFFFFF if pattern >> (4 + i) & 1 else 0
        words.append(word)
    return _FixedDigest(b"".join(w.to_bytes(8, "big") for w in words))


def _entropy_lengths(plan):
    # 1 seed word, then 1 or 2 words per digest word (a high half of 0 is dropped)
    def length(config):
        digest = _crafted_sha256(json.dumps(config_to_dict(config), sort_keys=True).encode())
        words = digest.digest()
        return 1 + sum(1 + (words[i : i + 4] != bytes(4)) for i in range(0, 32, 8))

    return {length(config) for config in plan}


@settings(max_examples=25, deadline=None)
@given(
    plan_seed=st.integers(0, 2**32), n_networks=st.integers(2, 6),
    seed=_SEEDS, noise=st.floats(0.001, 3.0),
)
def test_one_batch_equals_the_reference_loop(plan_seed, n_networks, seed, noise):
    plan = generate_plan(n_networks=n_networks, seed=plan_seed)
    oracle = SyntheticOracle(default_oracle().models, noise=noise, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashlib, "sha256", _crafted_sha256)
        batch = synth_profile(oracle, plan)
        reference = [reference_synth_time(oracle, config) for config in plan]
    assert batch == reference
    # one batch mixes entropy rows of different lengths
    assert len(_entropy_lengths(plan)) > 1


@settings(max_examples=25, deadline=None)
@given(plan_seed=st.integers(0, 2**32), seed=_SEEDS)
def test_batched_seed_rows_are_numpys_generate_state(plan_seed, seed):
    plan = generate_plan(n_networks=3, seed=plan_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashlib, "sha256", _crafted_sha256)
        rows = harness._seed_rows(seed, plan)
        digests = [
            hashlib.sha256(json.dumps(config_to_dict(c), sort_keys=True).encode()).digest()
            for c in plan
        ]
    assert rows.dtype == np.uint64 and rows.shape == (len(plan), 4)
    for row, digest in zip(rows, digests):
        words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
        entropy = [seed & 0xFFFFFFFF, *words]
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist()


def reference_synth_profile(oracle, plan):
    """``synth_profile`` as a per-config loop: the covering model's ``predict``,
    then the config's own stream until the time is positive, then a checked sample."""
    samples = []
    for config in plan:
        if config.kind not in oracle.models:
            raise ValueError(f"oracle does not cover kind {config.kind.value}")
        samples.append(reference_synth_time(oracle, config))
    return samples


def _synth_outcome(oracle, plan):
    try:
        return [(s.config, s.time_ms.hex(), s.reps, s.source) for s in synth_profile(oracle, plan)]
    except (ValueError, NumericError) as exc:
        return type(exc), str(exc)


def _reference_synth_outcome(oracle, plan):
    try:
        samples = reference_synth_profile(oracle, plan)
        return [(s.config, s.time_ms.hex(), s.reps, s.source) for s in samples]
    except (ValueError, NumericError) as exc:
        return type(exc), str(exc)


def _law(w, b):
    return Node(fit=LinearFit(w=np.asarray(w, dtype=float), b=b, n=0, mape=0.0, mse=0.0))


# finite weights whose product with a real CNN config overflows
_OVERFLOWING = TimeModel(kind=LayerKind.CNN, root=_law((1e303, 0.0, 0.0), 1.0))
# a law that prices every config at 0, which no sample may hold
_ZERO = TimeModel(kind=LayerKind.GRU, root=_law((0.0, 0.0, 0.0, 0.0), 0.0))


@pytest.mark.parametrize("noise", [0.0, 0.02, 3.0])
@pytest.mark.parametrize(
    "order",
    [
        ("FC", "CNN inf", "GRU zero"),
        ("CNN inf", "FC", "GRU zero"),
        ("GRU zero", "CNN inf", "FC"),
        ("LSTM", "CNN inf"),
        ("LSTM", "GRU zero", "FC"),
    ],
)
def test_a_failing_plan_raises_the_reference_loops_first_error(order, noise):
    # FC is not covered, CNN overflows to inf and GRU prices at 0
    models = {LayerKind.CNN: _OVERFLOWING, LayerKind.GRU: _ZERO}
    models[LayerKind.LSTM] = default_oracle().models[LayerKind.LSTM]
    oracle = SyntheticOracle(models, noise=noise, seed=5)
    configs = {
        "FC": fc(3, 4), "CNN inf": cnn(24, 24, 3, 3, 44, 64), "GRU zero": gru(3, 4, 8),
        "LSTM": lstm(5, 6, 10),
    }
    plan = [configs[name] for name in order]
    with np.errstate(over="ignore"):  # the CNN law overflows on purpose
        expected = _reference_synth_outcome(oracle, plan)
        actual = _synth_outcome(oracle, plan)
    assert isinstance(expected, tuple)
    assert actual == expected


@pytest.mark.parametrize("noise", [0.0, 0.02, 3.0])
def test_a_size_of_2_53_or_more_is_priced_by_predict(noise):
    # the columns refuse a plan with a config outside the domain, so it goes
    # config by config to predict, which rejects the first such config
    oracle = SyntheticOracle(default_oracle().models, noise=noise, seed=9)
    plan = generate_plan(n_networks=3, seed=4)
    # 2**40 by 2**20 has 2**60 weights; each is also a neighbour of ordinary configs
    plan[3:3] = [fc(2**40, 2**20), cnn(24, 24, 3, 3, 2**53, 8), gru(2**53 + 1, 2, 8)]
    for first in range(3, 6):
        kept = plan[:3] + plan[first:]
        assert harness._planted_times(oracle.models, kept) is None
        expected = _reference_synth_outcome(oracle, kept)
        kind = plan[first].kind.value
        assert expected == (ValueError, f"{kind} config has a size too large for a float")
        assert _synth_outcome(oracle, kept) == expected


@pytest.mark.parametrize("oracle_seed", [0, 1300, 2**40])
def test_noise_of_3_continues_the_streams_of_non_positive_times(oracle_seed):
    oracle = SyntheticOracle(default_oracle().models, noise=3.0, seed=oracle_seed)
    plan = generate_plan(n_networks=20, seed=oracle_seed % 7)
    # with noise 3.0 about a third of the first draws give a time below 0
    first = [reference_config_rng(oracle_seed, c).normal(0.0, 3.0) for c in plan]
    assert sum(1.0 + z <= 0 for z in first) > len(plan) // 5
    assert _synth_outcome(oracle, plan) == _reference_synth_outcome(oracle, plan)
