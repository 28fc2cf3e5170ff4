"""Profiling plans, synthetic ground-truth latencies, and profile file I/O.

Plan generation and time synthesis are pure given their seeds, so plans and
profiles are reproducible byte for byte.  Profile files are line-delimited
JSON records, one component measurement per line, which keeps long profiling
runs append-friendly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .layers import (
    LayerKind,
    StructureConfig,
    _integer,
    _number,
    cnn,
    config_from_dict,
    config_to_dict,
    fc,
    feature_names,
    gru,
    lstm,
)
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
        if self.source not in ("measured", "synthetic"):
            raise ValueError(f"source must be 'measured' or 'synthetic', got {self.source!r}")


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


def _draw_config(rng: np.random.Generator, scope: dict) -> StructureConfig:
    # the one draw ``rng.choice`` makes over the kinds, without building an array
    kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
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


def generate_plan(
    scope: str = "default", n_networks: int = 120, seed: int = 0
) -> list[StructureConfig]:
    """Draw a profiling plan: random layer configurations within a named scope.

    Every field is drawn uniformly and independently from its scope range,
    deterministically under ``seed``.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; known: {', '.join(sorted(SCOPES))}")
    n_networks = _integer("n_networks", n_networks, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    ranges = SCOPES[scope]
    plan: list[StructureConfig] = []
    for _ in range(n_networks):
        n_components = int(rng.integers(_MIN_COMPONENTS, _MAX_COMPONENTS + 1))
        plan.extend(_draw_config(rng, ranges) for _ in range(n_components))
    return plan


def _write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one line of sorted-key JSON, the files :func:`_records` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def save_plan(plan: Sequence[StructureConfig], path: str | Path) -> None:
    _write_records(path, map(config_to_dict, plan))


def _records(path: str | Path) -> Iterator[tuple[str, object]]:
    """``(f"{path}:{lineno}", record)`` for every non-blank line of a JSON-lines file."""
    # bytes, so that a line that is not UTF-8 is reported with its location
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
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


def _config_rng(seed: int, config: StructureConfig) -> np.random.Generator:
    # imported here: hashlib loads OpenSSL, which no other command needs
    import hashlib

    digest = hashlib.sha256(
        json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    ).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    # SeedSequence splits each int into 32-bit halves, low first, and drops a
    # high half of 0; given those halves as one uint32 array it seeds the same
    # stream as the list of ints, without converting each int
    halves = (h for w in words for h in ((w & 0xFFFFFFFF, w >> 32) if w >> 32 else (w,)))
    entropy = np.array([seed & 0xFFFFFFFF, *halves], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def synth_time(oracle: SyntheticOracle, config: StructureConfig) -> ProfileSample:
    """Sample one synthetic measurement; deterministic under (seed, config)."""
    model = oracle.models.get(config.kind)
    if model is None:
        raise ValueError(f"oracle does not cover kind {config.kind.value}")
    base = model.predict(config)
    time_ms = base
    if oracle.noise > 0:
        rng = _config_rng(oracle.seed, config)
        for _ in range(100):
            time_ms = base * (1.0 + rng.normal(0.0, oracle.noise))
            if time_ms > 0:
                break
        else:
            time_ms = base * 1e-6
    return ProfileSample(config=config, time_ms=float(time_ms), source="synthetic")


def synth_profile(
    oracle: SyntheticOracle, plan: Sequence[StructureConfig]
) -> list[ProfileSample]:
    return [synth_time(oracle, config) for config in plan]


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
_SCHEMA = 1


def write_profile(samples: Sequence[ProfileSample], path: str | Path) -> None:
    """Write samples as line-delimited JSON records."""

    def record(sample: ProfileSample) -> dict:
        config = config_to_dict(sample.config)
        return {"layer_type": config.pop("kind"), "config": config, "time_ms": sample.time_ms,
                "reps": sample.reps, "source": sample.source, "schema": _SCHEMA}

    _write_records(path, map(record, samples))


def read_profile(path: str | Path) -> list[ProfileSample]:
    """Parse a profile file; malformed records report their line number."""
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
            samples.append(ProfileSample(
                config=config_from_dict({"kind": layer_type, **config_fields}),
                time_ms=time_ms,
                reps=record.get("reps", 1),
                source=record.get("source", "measured"),
            ))
        except ValueError as exc:
            raise ProfileFormatError(f"{where}: {exc}") from exc
    return samples


def ingest_profile(path: str | Path) -> dict[LayerKind, Dataset]:
    """Per-kind datasets of a profile file, in kind order (CNN, FC, GRU, LSTM) in any line order."""
    samples = read_profile(path)
    grouped: dict[LayerKind, tuple[list[StructureConfig], list[float]]] = {}
    for sample in samples:
        configs, times = grouped.setdefault(sample.config.kind, ([], []))
        configs.append(sample.config)
        times.append(sample.time_ms)
    return {
        kind: Dataset.from_records(kind, *grouped[kind])
        for kind in sorted(grouped, key=lambda k: k.value)
    }
