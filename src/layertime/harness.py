"""Profiling plans, synthetic ground-truth latencies, and profile file I/O.

Plan generation and time synthesis are pure given their seeds, so plans and
profiles are reproducible byte for byte.  A plan's draws run numpy's
bounded-integer algorithm on its generator's raw words, and tests pin each
draw to numpy's ``Generator.integers``.  A config's noise stream is the
PCG64 generator that numpy's SeedSequence algorithm seeds from the oracle
seed and the SHA-256 digest of the config; :func:`synth_profile` seeds the
streams of a whole plan in one batch, running that algorithm as array
operations, and tests pin every state to numpy's own ``SeedSequence``.
Profile files are line-delimited JSON records, one component measurement per
line, which keeps long profiling runs append-friendly.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .layers import (
    _FIELDS_BY_KIND,
    LayerKind,
    Padding,
    StructureConfig,
    _configs_of_rows,
    _integer,
    _number,
    _split_columns,
    _split_row,
    config_from_dict,
    feature_names,
)
from .nnls import NumericError
from .tree import (
    Condition,
    ConditionKind,
    Dataset,
    LinearFit,
    ModelFormatError,
    Node,
    TimeModel,
    _dump,
    _models_from_dict,
    _models_to_dict,
    _parse_json,
)

__all__ = [
    "ProfileSample",
    "SyntheticOracle",
    "ProfileFormatError",
    "generate_plan",
    "synth_time",
    "synth_profile",
    "read_profile",
    "write_profile",
    "ingest_profile",
    "save_plan",
    "load_plan",
    "default_oracle",
    "save_oracle",
    "load_oracle",
    "SCOPES",
]


class ProfileFormatError(ValueError):
    """A profile or plan file contains a record that cannot be decoded."""


# a tuple, so that an unhashable source is simply not one of them
_SOURCES = ("measured", "synthetic")


@dataclass(frozen=True)
class ProfileSample:
    """One measured (or synthesized) component execution time."""

    config: StructureConfig
    time_ms: float
    reps: int = 1
    source: str = "measured"

    def __post_init__(self) -> None:
        if not (type(self.time_ms) is float and 0 < self.time_ms < math.inf):
            object.__setattr__(self, "time_ms", _number("time_ms", self.time_ms, 0, strict=True))
        if type(self.reps) is not int or self.reps < 1:
            object.__setattr__(self, "reps", _integer("reps", self.reps, 1))
        if self.source not in _SOURCES:
            raise ValueError(f"source must be 'measured' or 'synthetic', got {self.source!r}")


# --- JSON lines -------------------------------------------------------------

_SCHEMA = 1


def _json_object(members: dict[str, str]) -> str:
    """``json.dumps(..., sort_keys=True)`` of an object whose members are given as JSON text."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: {text}" for key, text in sorted(members.items())
    ) + "}"


def _line_templates() -> dict:
    """Per ``(kind, padding)`` of a config: its sorted-key JSON and its profile
    record's, as ``%`` templates, and the getter of the integer fields the
    templates take first, in their sorted order.

    A record template then takes the ``reps``, the JSON text of the source and
    the ``time_ms``.  The constructors store every count and ``reps`` as an
    exact ``int`` and ``time_ms`` as an exact finite ``float``, whose ``%d``
    and ``repr`` are the text ``json.dumps`` writes for them.
    """
    templates = {}
    for kind, names in _FIELDS_BY_KIND.items():
        integers = sorted(name for name in names if name != "padding")
        for padding in Padding if "padding" in names else (None,):
            fields = dict.fromkeys(integers, "%d")
            if padding is not None:
                fields["padding"] = json.dumps(padding.value)
            kind_text = json.dumps(kind.value)
            config = _json_object({**fields, "kind": kind_text})
            record = _json_object({
                "config": _json_object(fields), "layer_type": kind_text, "reps": "%d",
                "schema": json.dumps(_SCHEMA), "source": "%s", "time_ms": "%r",
            })
            templates[kind, padding] = config, record + "\n", operator.attrgetter(*integers)
    return templates


_TEMPLATES = _line_templates()
# each source's JSON text, by its index in _SOURCES
_SOURCE_TEXTS = tuple(map(json.dumps, _SOURCES))


def _config_json(config: StructureConfig) -> str:
    """``json.dumps(config_to_dict(config), sort_keys=True)``: a plan line, and
    the text a config's noise stream digests."""
    template, _, integers = _TEMPLATES[config.kind, config.padding]
    return template % integers(config)


def _record_json(sample: ProfileSample) -> str:
    """The sample's profile record as a line of sorted-key JSON."""
    config = sample.config
    _, template, integers = _TEMPLATES[config.kind, config.padding]
    source = _SOURCE_TEXTS[_SOURCES.index(sample.source)]
    return template % (*integers(config), sample.reps, source, sample.time_ms)


# --- profiling plans --------------------------------------------------------

_KERNEL_CHOICES = ((2, 2), (3, 3), (4, 4), (5, 5), (2, 3))
_STEP_CHOICES = (8, 10, 15, 20)
_PADDING_CHOICES = ("valid", "same")
_STRIDE_CHOICES = (1, 2)

# components per generated network; the default plan of 120 networks lands
# around 1300 components in total
_MIN_COMPONENTS = 8
_MAX_COMPONENTS = 14


_KINDS = tuple(LayerKind)

_SPAN32, _SPAN64 = 1 << 32, 1 << 64
_MASK32, _MASK64 = _SPAN32 - 1, _SPAN64 - 1
# raw words read from a plan's generator at a time
_BLOCK = 512


def _draws(seed: int) -> Callable[[int, int], int]:
    """``draw(lo, hi)``, which returns what successive ``int(rng.integers(lo, hi + 1))``
    calls return on ``rng = np.random.default_rng(seed)``, for
    ``-2**63 <= lo <= hi < 2**63``.

    It reads the generator's raw 64-bit words in blocks and runs numpy's
    bounded-integer algorithm on them (``random_bounded_uint64_fill``):
    a span of 1 returns ``lo`` and uses no draw; a span up to ``2**32``
    takes Lemire's rejection on 32-bit draws, each the low half of a new
    word or, at the next 32-bit draw, the high half it left; a wider span
    takes Lemire's rejection on whole words and leaves a pending high half
    in place.  A span of ``2**32`` (or ``2**64``) is the raw draw itself,
    which the rejection gives with a threshold of 0.
    """
    random_raw = np.random.PCG64(seed).random_raw
    # the generator's words without end, read a block at a time
    next_word = chain.from_iterable(iter(lambda: random_raw(_BLOCK).tolist(), None)).__next__
    half = None

    def draw(lo: int, hi: int) -> int:
        nonlocal half
        span = hi - lo + 1
        if span == 1:
            return lo
        if span <= _SPAN32:
            threshold = _SPAN32 % span
            while True:
                if half is None:
                    word = next_word()
                    u, half = word & _MASK32, word >> 32
                else:
                    u, half = half, None
                m = u * span
                if m & _MASK32 >= threshold:
                    return lo + (m >> 32)
        threshold = _SPAN64 % span
        while True:
            m = next_word() * span
            if m & _MASK64 >= threshold:
                return lo + (m >> 64)

    return draw


def _row_drawers(draw: Callable[[int, int], int], scope: dict) -> tuple[Callable[[], tuple], ...]:
    """Per kind, in ``_KINDS`` order, a function that draws one config's field
    values, returned in canonical order.

    The values are drawn in the order the constructors' arguments list them,
    except that a CNN's kernel is drawn first and a recurrent layer's step
    before its dimensions; choices go through ``int()`` as they are drawn.
    """
    fc_lo, fc_hi = scope["fc_dim"]
    lo, hi = scope["cnn_extent"]
    clo, chi = scope["cnn_channel"]
    rnn_lo, rnn_hi = scope["rnn_dim"]
    kernels, strides, paddings, steps = (
        scope[name] for name in ("kernels", "strides", "paddings", "steps")
    )
    n_kernels, n_strides, n_paddings, n_steps = (
        len(choices) - 1 for choices in (kernels, strides, paddings, steps)
    )

    def fc_row() -> tuple:
        return draw(fc_lo, fc_hi), draw(fc_lo, fc_hi)

    def cnn_row() -> tuple:
        kernel = kernels[draw(0, n_kernels)]
        in_height, in_width = draw(lo, hi), draw(lo, hi)
        kernel_height, kernel_width = kernel[0], kernel[1]
        in_channel, out_channel = draw(clo, chi), draw(clo, chi)
        stride = int(strides[draw(0, n_strides)])
        padding = paddings[draw(0, n_paddings)]
        return (
            in_height, in_width, kernel_height, kernel_width, in_channel, out_channel,
            padding, stride,
        )

    def rnn_row() -> tuple:
        step = int(steps[draw(0, n_steps)])
        return draw(rnn_lo, rnn_hi), draw(rnn_lo, rnn_hi), step

    drawers = {LayerKind.FC: fc_row, LayerKind.CNN: cnn_row}
    return tuple(drawers.get(kind, rnn_row) for kind in _KINDS)


SCOPES: dict[str, dict] = {
    "default": {
        "fc_dim": (1, 4096),
        "cnn_extent": (24, 225),
        "cnn_channel": (1, 256),
        "kernels": _KERNEL_CHOICES,
        "paddings": _PADDING_CHOICES,
        "strides": _STRIDE_CHOICES,
        "rnn_dim": (1, 512),
        "steps": _STEP_CHOICES,
    },
}

_RANGE_FIELDS = ("fc_dim", "cnn_extent", "cnn_channel", "rnn_dim")
_CHOICE_FIELDS = ("kernels", "paddings", "strides", "steps")


def _checked_scope(scope: str) -> dict:
    """The named scope's ranges as ``(lo, hi)`` integer pairs and its choices as
    tuples; an empty range or an empty choice list is a ``ValueError`` naming its field.

    A padding text is held as its :class:`Padding`, as the constructor stores
    it; any other padding choice is kept, for the constructor to reject.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; known: {', '.join(sorted(SCOPES))}")
    fields = SCOPES[scope]
    checked = {}
    for name in _RANGE_FIELDS:
        where = f"scope {scope!r} {name}"
        lo, hi = (_integer(where, value) for value in fields[name])
        if not -(2**63) <= lo <= hi < 2**63:
            raise ValueError(f"{where} must be a range lo <= hi of 64-bit integers, got {lo, hi}")
        checked[name] = lo, hi
    for name in _CHOICE_FIELDS:
        checked[name] = tuple(fields[name])
        if not checked[name]:
            raise ValueError(f"scope {scope!r} {name} must hold at least one choice")
    checked["paddings"] = tuple(map(_as_padding, checked["paddings"]))
    return checked


def _as_padding(choice):
    """A padding text as its :class:`Padding`; any other choice as it is."""
    if isinstance(choice, str):
        try:
            return Padding(choice)
        except ValueError:
            pass
    return choice


def generate_plan(
    scope: str = "default", n_networks: int = 120, seed: int = 0
) -> list[StructureConfig]:
    """Draw a profiling plan: random layer configurations within a named scope.

    Each network draws its number of components, 8 to 14, and then each
    component draws its kind, uniformly over the four kinds, followed by
    each of that kind's fields, uniformly over the field's scope range or
    choices; a CNN's kernel is one (height, width) choice.  Every draw is
    deterministic under ``seed``: it is the value ``int(rng.integers(lo, hi + 1))``
    gives on ``rng = np.random.default_rng(seed)``.

    The drawn values are checked by column, one column per field of a
    kind, and the configs built without a constructor call each.  A plan
    that breaks a rule is built through the constructors instead, which
    raise the error of its first failing config.
    """
    ranges = _checked_scope(scope)
    n_networks = _integer("n_networks", n_networks, 1)
    draw = _draws(_integer("seed", seed, 0))
    drawers = _row_drawers(draw, ranges)
    # each config's kind, as its index in _KINDS, and each kind's rows of field values
    kinds: list[int] = []
    rows: tuple[list[tuple], ...] = tuple([] for _ in _KINDS)
    try:
        for _ in range(n_networks):
            for _ in range(draw(_MIN_COMPONENTS, _MAX_COMPONENTS)):
                k = draw(0, len(_KINDS) - 1)
                rows[k].append(drawers[k]())
                kinds.append(k)
    except Exception:
        # a failed draw comes after the configs drawn before it were built
        _construct(kinds, rows)
        raise
    built = [_configs_of_rows(kind, kind_rows) for kind, kind_rows in zip(_KINDS, rows)]
    if None in built:
        return _construct(kinds, rows)
    next_configs = [iter(configs).__next__ for configs in built]
    return [next_configs[k]() for k in kinds]


def _construct(kinds: Sequence[int], rows: Sequence[Sequence[tuple]]) -> list[StructureConfig]:
    """:func:`generate_plan`'s configs in plan order, each built by the constructor."""
    next_rows = [iter(kind_rows).__next__ for kind_rows in rows]
    return [
        StructureConfig(_KINDS[k], **dict(zip(_FIELDS_BY_KIND[_KINDS[k]], next_rows[k]())))
        for k in kinds
    ]


def save_plan(plan: Sequence[StructureConfig], path: str | Path) -> None:
    """Write each config as one line of its sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_config_json(config) + "\n" for config in plan)


def _lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """``(lineno, line)`` for every non-blank line of a JSON-lines file."""
    # bytes, so that a line that is not UTF-8 is reported with its location
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, line


def _records(path: str | Path) -> Iterator[tuple[str, object]]:
    """``(f"{path}:{lineno}", record)`` for every non-blank line of a JSON-lines file."""
    for lineno, line in _lines(path):
        where = f"{path}:{lineno}"
        yield where, _parse_json(line, ProfileFormatError, where)


def load_plan(path: str | Path) -> list[StructureConfig]:
    plan = []
    for where, record in _records(path):
        try:
            plan.append(config_from_dict(record))
        except ValueError as exc:
            raise ProfileFormatError(f"{where}: {exc}") from exc
    return plan


# --- synthetic oracle -------------------------------------------------------


@dataclass(frozen=True)
class SyntheticOracle:
    """Planted ground truth standing in for on-device profiling.

    Each covered kind owns a planted condition tree with non-negative
    linear laws; sampled times get multiplicative Gaussian noise.
    """

    models: Mapping[LayerKind, TimeModel]
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise", _number("noise", self.noise, 0))
        object.__setattr__(self, "seed", _integer("seed", self.seed))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, filled and mixed by hashmix from INIT_A, read out by
# hashmix from INIT_B
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(init: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays, with its own running constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_rows(seed: int, configs: Sequence[StructureConfig]) -> np.ndarray:
    """``SeedSequence([seed & 0xFFFFFFFF, *words]).generate_state(4, np.uint64)``
    for every config, one row each, where ``words`` are the four big-endian
    64-bit words of the SHA-256 digest of the config's sorted-key JSON.

    SeedSequence splits each word into 32-bit halves, low first, and drops a
    high half of 0, so a row's entropy holds 5 to 9 words.  Its mixing runs
    here as uint32 array operations over all rows at once; a row that has
    run out of words keeps its pool.
    """
    # imported here: hashlib loads OpenSSL, which no other command needs
    import hashlib

    sha256 = hashlib.sha256
    digests = b"".join([sha256(_config_json(config).encode()).digest() for config in configs])
    n = len(configs)
    # (low, high) halves of each word
    halves = np.frombuffer(digests, dtype=">u4").reshape(n, 4, 2)[:, :, ::-1].reshape(n, 8)
    kept = np.ones((n, 8), dtype=bool)
    kept[:, 1::2] = halves[:, 1::2] != 0
    entropy = np.empty((n, 9), dtype=np.uint32)
    entropy[:, 0] = seed & _MASK32
    # each row's kept halves, moved to its front in order
    order = np.argsort(~kept, axis=1, kind="stable")
    entropy[:, 1:] = np.take_along_axis(halves, order, axis=1)
    length = 1 + kept.sum(axis=1)

    hashmix = _hashmix(_INIT_A, _MULT_A)
    # every row holds more than _POOL words, so the pool starts from entropy
    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        live = length > src
        for dst in range(_POOL):
            pool[dst] = np.where(live, _mix(pool[dst], hashmix(entropy[:, src])), pool[dst])

    readout = _hashmix(_INIT_B, _MULT_B)
    state = np.column_stack([readout(pool[i % _POOL]) for i in range(2 * _POOL)])
    # pairs of 32-bit words, low first, read as 64-bit words
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _noise_streams(
    seed: int, configs: Sequence[StructureConfig]
) -> Iterator[np.random.Generator]:
    """A generator per config, in order, each in the state of
    ``np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *words]))``.

    It is one generator, moved to the next config's state each time through
    one reused state dict, so a caller draws from it before asking for the
    next one.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    lcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in _seed_rows(seed, configs).tolist():
        # PCG64's srandom step: the increment is (sequence << 1) | 1, and the
        # state is seed + increment, advanced one LCG step
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        lcg["state"] = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        lcg["inc"] = inc
        bit_generator.state = state
        yield rng


def _noisy_time(base: float, rng: np.random.Generator, noise: float) -> float:
    """``base`` times ``1 + N(0, noise)``, drawn from ``rng`` until it is positive
    (``1e-6`` of ``base`` after 100 draws)."""
    for _ in range(100):
        time_ms = base * (1.0 + rng.normal(0.0, noise))
        if time_ms > 0:
            return time_ms
    return base * 1e-6


def synth_time(oracle: SyntheticOracle, config: StructureConfig) -> ProfileSample:
    """Sample one synthetic measurement; deterministic under (seed, config)."""
    return synth_profile(oracle, [config])[0]


def synth_profile(
    oracle: SyntheticOracle, plan: Sequence[StructureConfig]
) -> list[ProfileSample]:
    """One synthetic measurement per config; each deterministic under (seed, config).

    A measurement is the planted time and, when the oracle's noise is above
    0, that time times ``1 + N(0, noise)``, drawn from the config's own
    noise stream until it is positive (``1e-6`` of the planted time after
    100 draws).

    The plan is synthesized by column: each kind's planted times come from
    one :meth:`TimeModel.predict_rows` over its configs' derived columns,
    each stream's first draw scales its time in one array operation, and
    the times are checked as one column before the samples are built.  A
    plan that the columns cannot price (a kind without a model, a size of
    ``2**53`` or more, a time that is not finite or not positive) is
    synthesized config by config instead, which gives the same samples or
    raises the error of its first failing config.
    """
    samples = _synth_columns(oracle, plan)
    return _synth_records(oracle, plan) if samples is None else samples


def _synth_columns(
    oracle: SyntheticOracle, plan: Sequence[StructureConfig]
) -> list[ProfileSample] | None:
    """:func:`synth_profile`'s samples by column, or ``None`` when a config
    needs :func:`_synth_records` to report it (or to price it)."""
    base = _planted_times(oracle.models, plan)
    if base is None:
        return None
    times = base
    if oracle.noise > 0:
        noise = oracle.noise
        streams = _noise_streams(oracle.seed, plan)
        times = base * (1.0 + np.array([rng.normal(0.0, noise) for rng in streams]))
        # only a time that is not positive draws on along its own stream
        for i in np.flatnonzero(~(times > 0)).tolist():
            (rng,) = _noise_streams(oracle.seed, [plan[i]])
            times[i] = _noisy_time(base[i], rng, noise)
    if not ((0 < times) & (times < math.inf)).all():
        return None
    samples = []
    for config, time_ms in zip(plan, times.tolist()):
        # the constructor's checks hold for the whole column above
        sample = object.__new__(ProfileSample)
        sample.__dict__.update(config=config, time_ms=time_ms, reps=1, source="synthetic")
        samples.append(sample)
    return samples


def _planted_times(
    models: Mapping[LayerKind, TimeModel], plan: Sequence[StructureConfig]
) -> np.ndarray | None:
    """Each config's planted time, priced one kind at a time, or ``None`` when
    a kind has no model of its own, a kind's sizes cannot be derived by
    column, or a price is not finite."""
    rows_of: dict[LayerKind, list[int]] = {}
    for i, config in enumerate(plan):
        rows_of.setdefault(config.kind, []).append(i)
    times = np.empty(len(plan))
    for kind, rows in rows_of.items():
        model = models.get(kind)
        if model is None or model.kind is not kind:
            return None
        names = _FIELDS_BY_KIND[kind]
        values = map(operator.attrgetter(*names), map(plan.__getitem__, rows))
        split = _split_columns(kind, dict(zip(names, zip(*values))))
        if split is None:
            return None
        try:
            times[rows] = model.predict_rows(*split)
        except (NumericError, IndexError, ValueError):
            return None
    return times


def _synth_records(
    oracle: SyntheticOracle, plan: Sequence[StructureConfig]
) -> list[ProfileSample]:
    """:func:`synth_profile` config by config: a :meth:`TimeModel.predict`,
    a noisy time and a checked :class:`ProfileSample` each."""
    streams = _noise_streams(oracle.seed, plan) if oracle.noise > 0 else None
    samples = []
    for config in plan:
        model = oracle.models.get(config.kind)
        if model is None:
            raise ValueError(f"oracle does not cover kind {config.kind.value}")
        time_ms = model.predict(config)
        if streams is not None:
            time_ms = _noisy_time(time_ms, next(streams), oracle.noise)
        samples.append(ProfileSample(config=config, time_ms=float(time_ms), source="synthetic"))
    return samples


def _leaf(w: Sequence[float], b: float) -> Node:
    return Node(fit=LinearFit(w=np.asarray(w, dtype=float), b=b, n=0, mape=0.0, mse=0.0))


def default_oracle(noise: float = 0.01, seed: int = 1300) -> SyntheticOracle:
    """A device-flavored planted oracle.

    The convolutional tree dips when channel counts are multiples of 4;
    recurrent layers carry a per-step setup overhead.  Coefficient scales
    mimic a low-end quad-core phone so demo numbers look like real traces.
    """
    cnn_names = feature_names(LayerKind.CNN)
    in_channel = cnn_names.index("in_channel")
    out_channel = cnn_names.index("out_channel")
    cnn_root = Node(
        fit=_leaf([3.3e-8, 6.0e-6, 0.0], 11.0).fit,
        condition=Condition(in_channel, 4, ConditionKind.MULTIPLE),
        left=_leaf([3.41e-8, 4.03e-6, 0.0], 8.11),
        right=Node(
            fit=_leaf([3.11e-8, 7.0e-6, 0.0], 11.5).fit,
            condition=Condition(out_channel, 4, ConditionKind.MULTIPLE),
            left=_leaf([3.11e-8, 6.0e-6, 0.0], 10.5),
            right=_leaf([3.11e-8, 8.03e-6, 0.0], 12.82),
        ),
    )
    models = {
        LayerKind.CNN: TimeModel(kind=LayerKind.CNN, root=cnn_root),
        LayerKind.FC: TimeModel(kind=LayerKind.FC, root=_leaf([2.0e-8, 1.2e-6, 0.0], 0.18)),
        LayerKind.GRU: TimeModel(
            kind=LayerKind.GRU, root=_leaf([1.0e-8, 2.0e-6, 0.0, 0.666], 0.9)
        ),
        LayerKind.LSTM: TimeModel(
            kind=LayerKind.LSTM, root=_leaf([1.0e-8, 2.0e-6, 0.0, 0.61], 1.1)
        ),
    }
    return SyntheticOracle(models=models, noise=noise, seed=seed)


def save_oracle(oracle: SyntheticOracle) -> bytes:
    return _dump({**_models_to_dict(oracle.models), "noise": oracle.noise, "seed": oracle.seed})


def load_oracle(data: bytes | str) -> SyntheticOracle:
    doc = _parse_json(data, ModelFormatError)
    models = _models_from_dict(doc)
    try:
        return SyntheticOracle(models=models, noise=doc["noise"], seed=doc["seed"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"malformed oracle document: {exc}") from exc


# --- profile files ----------------------------------------------------------

_RECORD_KEYS = {"layer_type", "config", "time_ms", "reps", "source", "schema"}


def write_profile(samples: Sequence[ProfileSample], path: str | Path) -> None:
    """Write samples as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_record_json, samples))


def read_profile(path: str | Path) -> list[ProfileSample]:
    """Parse a profile file; malformed records report their line number.

    A record is malformed when its config breaks a constructor rule, and
    also when a size derived from it does not fit a float.
    """
    samples: list[ProfileSample] = []
    schema_seen: int | None = None
    for where, record in _records(path):
        if not isinstance(record, dict):
            raise ProfileFormatError(f"{where}: record must be an object")
        extra = set(record) - _RECORD_KEYS
        if extra:
            raise ProfileFormatError(f"{where}: unknown record fields: {', '.join(sorted(extra))}")
        schema = record.get("schema", _SCHEMA)
        if schema_seen is None:
            schema_seen = schema
        elif schema != schema_seen:
            raise ProfileFormatError(
                f"{where}: mixed schema versions ({schema} after {schema_seen})"
            )
        if type(schema) is not int or schema != _SCHEMA:
            raise ProfileFormatError(f"{where}: schema must be {_SCHEMA}, got {schema!r}")
        try:
            layer_type = record["layer_type"]
            config_fields = record["config"]
            time_ms = record["time_ms"]
        except KeyError as exc:
            raise ProfileFormatError(f"{where}: missing field {exc}") from exc
        if not isinstance(config_fields, dict) or "kind" in config_fields:
            raise ProfileFormatError(f"{where}: config must be an object without its own 'kind'")
        try:
            sample = ProfileSample(
                config=config_from_dict({"kind": layer_type, **config_fields}),
                time_ms=time_ms,
                reps=record.get("reps", 1),
                source=record.get("source", "measured"),
            )
            _split_row(sample.config)
        except ValueError as exc:
            raise ProfileFormatError(f"{where}: {exc}") from exc
        samples.append(sample)
    return samples


def ingest_profile(path: str | Path) -> dict[LayerKind, Dataset]:
    """Per-kind datasets of a profile file, in kind order (CNN, FC, GRU, LSTM) in any line order.

    The file is read by column: each record's fields and time join its
    kind's columns, and every record and config rule is checked on whole
    columns.  Lines may end in LF or CRLF.  A file that breaks a rule, holds
    a size of ``2**53`` or more, or pads a record with other spaces, is read
    again record by record through :func:`read_profile`, so it raises the
    same located error, or loads the same datasets.
    """
    datasets = _ingest_columns(path)
    return _ingest_records(path) if datasets is None else datasets


def _ingest_columns(path: str | Path) -> dict[LayerKind, Dataset] | None:
    """:func:`ingest_profile`'s datasets read by column, or ``None`` when a record
    needs :func:`read_profile` to report it (or may load only through it)."""
    columns = {
        kind.value: ([], [], operator.itemgetter(*names), len(names))
        for kind, names in _FIELDS_BY_KIND.items()
    }
    reps, sources, schemas = [], [], []
    decode = json.JSONDecoder().raw_decode
    for _, line in _lines(path):
        # the value must fill its line: a space before it, or anything after it but
        # an LF or CRLF end, is left to read_profile (json.loads would scan for both)
        try:
            text = line.decode("utf-8")
            record, end = decode(text)
        except (ValueError, RecursionError):  # not UTF-8 (a ValueError too), or not JSON
            return None
        if text[end:] not in ("\n", "\r\n", ""):
            return None
        try:
            rows, times, get_fields, n_fields = columns[record["layer_type"]]
            config = record["config"]
            rows.append(get_fields(config))
            times.append(record["time_ms"])
        # not an object, an unknown kind, a missing field or a config that is not an object
        except (KeyError, TypeError):
            return None
        # the config holds exactly its kind's fields, the record only known ones
        if len(config) != n_fields or not record.keys() <= _RECORD_KEYS:
            return None
        reps.append(record.get("reps", 1))
        sources.append(record.get("source", "measured"))
        schemas.append(record.get("schema", _SCHEMA))
    if reps and not (
        set(map(type, reps)) == {int} and min(reps) >= 1
        and all(map(_SOURCES.__contains__, sources))
        and set(map(type, schemas)) == {int} and set(schemas) == {_SCHEMA}
    ):
        return None
    datasets = {}
    for kind in sorted(_FIELDS_BY_KIND, key=lambda k: k.value):
        rows, times, _, _ = columns[kind.value]
        if not rows:
            continue
        split = _split_columns(kind, dict(zip(_FIELDS_BY_KIND[kind], zip(*rows))))
        if split is None or not set(map(type, times)) <= {float, int}:
            return None
        try:
            column = np.array(times, dtype=float)
        except OverflowError:
            return None
        if not ((0 < column) & (column < math.inf)).all():
            return None
        datasets[kind] = Dataset(kind, *split, column)
    return datasets


def _ingest_records(path: str | Path) -> dict[LayerKind, Dataset]:
    """:func:`ingest_profile` record by record: :func:`read_profile`, then one
    :meth:`Dataset.from_records` per kind."""
    grouped: dict[LayerKind, tuple[list[StructureConfig], list[float]]] = {}
    for sample in read_profile(path):
        configs, times = grouped.setdefault(sample.config.kind, ([], []))
        configs.append(sample.config)
        times.append(sample.time_ms)
    return {
        kind: Dataset.from_records(kind, *grouped[kind])
        for kind in sorted(grouped, key=lambda k: k.value)
    }
