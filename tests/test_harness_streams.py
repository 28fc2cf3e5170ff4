"""Plans and synthetic times are drawn from the same random streams as the reference code.

The references below are the plan and noise code as first written: the layer
kind drawn with ``rng.choice`` over the kind values, and the noise stream
seeded with ``SeedSequence([seed, *words])`` over the digest's 64-bit words.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertime import harness
from layertime.harness import SyntheticOracle, default_oracle, generate_plan, synth_time
from layertime.layers import LayerKind, cnn, config_to_dict, fc, gru, lstm


def reference_draw_config(rng, scope):
    kind = LayerKind(rng.choice([k.value for k in LayerKind]))
    if kind is LayerKind.FC:
        lo, hi = scope["fc_dim"]
        return fc(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
    if kind is LayerKind.CNN:
        lo, hi = scope["cnn_extent"]
        clo, chi = scope["cnn_channel"]
        kernel = scope["kernels"][int(rng.integers(0, len(scope["kernels"])))]
        return cnn(
            in_height=int(rng.integers(lo, hi + 1)),
            in_width=int(rng.integers(lo, hi + 1)),
            kernel_height=kernel[0],
            kernel_width=kernel[1],
            in_channel=int(rng.integers(clo, chi + 1)),
            out_channel=int(rng.integers(clo, chi + 1)),
            stride=int(scope["strides"][int(rng.integers(0, len(scope["strides"])))]),
            padding=scope["paddings"][int(rng.integers(0, len(scope["paddings"])))],
        )
    lo, hi = scope["rnn_dim"]
    step = int(scope["steps"][int(rng.integers(0, len(scope["steps"])))])
    factory = gru if kind is LayerKind.GRU else lstm
    return factory(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)), step)


def reference_config_rng(seed, config):
    digest = hashlib.sha256(
        json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    ).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *words]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64), n_networks=st.integers(1, 4))
def test_plan_matches_the_reference_draws(seed, n_networks):
    plan = generate_plan(n_networks=n_networks, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_draw_config", reference_draw_config)
        assert plan == generate_plan(n_networks=n_networks, seed=seed)


_CONFIGS = st.sampled_from(generate_plan(n_networks=8, seed=11))
_SEEDS = st.integers(-(2**70), 2**70)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, config=_CONFIGS, noise=st.floats(0.001, 0.5))
def test_synth_time_matches_the_reference_stream(seed, config, noise):
    oracle = SyntheticOracle(default_oracle().models, noise=noise, seed=seed)
    state = harness._config_rng(seed, config).bit_generator.state
    assert state == reference_config_rng(seed, config).bit_generator.state
    sample = synth_time(oracle, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_config_rng", reference_config_rng)
        assert sample == synth_time(oracle, config)


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
        ours = harness._config_rng(seed, config)
        reference = reference_config_rng(seed, config)
    assert ours.bit_generator.state == reference.bit_generator.state
    assert ours.normal(size=4).tolist() == reference.normal(size=4).tolist()
