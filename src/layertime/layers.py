"""Layer structure configurations and the vectors derived from them.

Each supported layer family (fully-connected, convolutional, GRU, LSTM)
has a structural configuration, a feature vector used for searching split
conditions, and a compact explanatory vector used by the per-node linear
time model.  All derivations here are pure functions of the configuration,
so they are safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "LayerKind",
    "Padding",
    "StructureConfig",
    "FeatureVector",
    "ExplanatoryVector",
    "RECURRENT_KINDS",
    "PADDING_CODES",
    "fc",
    "cnn",
    "gru",
    "lstm",
    "conv_output_dims",
    "derive_features",
    "derive_explanatory",
    "feature_names",
    "explanatory_names",
    "width_fields",
    "config_to_dict",
    "config_from_dict",
]


class LayerKind(enum.Enum):
    """Layer families covered by the time models."""

    FC = "FC"
    CNN = "CNN"
    GRU = "GRU"
    LSTM = "LSTM"

    # members are singletons compared by identity, so the C-level identity
    # hash agrees with == and skips Enum's Python-level hash of the name
    __hash__ = object.__hash__


class Padding(enum.Enum):
    VALID = "valid"
    SAME = "same"

    __hash__ = object.__hash__


RECURRENT_KINDS = frozenset({LayerKind.GRU, LayerKind.LSTM})

# Members bound once for the per-config hot paths: on Python 3.11 every
# ``LayerKind.X`` read goes through ``EnumType.__getattr__``, a Python-level
# hook that costs about five plain attribute reads.
_FC, _CNN, _GRU = LayerKind.FC, LayerKind.CNN, LayerKind.GRU
_VALID = Padding.VALID

#: Padding is encoded numerically so split conditions can act on it.
PADDING_CODES = {Padding.VALID: 0, Padding.SAME: 1}

# Structural fields per kind, in canonical order.  This order is also the
# prefix of the feature-vector layout.
_FIELDS_BY_KIND = {
    LayerKind.FC: ("in_dim", "out_dim"),
    LayerKind.CNN: (
        "in_height",
        "in_width",
        "kernel_height",
        "kernel_width",
        "in_channel",
        "out_channel",
        "padding",
        "stride",
    ),
    LayerKind.GRU: ("in_dim", "out_dim", "step"),
    LayerKind.LSTM: ("in_dim", "out_dim", "step"),
}

_MEMORY_FEATURES = ("mem_in", "mem_out", "mem_inter", "param_size")


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int`` (a Python or numpy integer, never a bool), ``>= least``."""
    if type(value) is not int:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _number(name: str, value, least: int | None = None, strict: bool = False) -> float:
    """``value`` as a ``float`` (a Python or numpy number, never a bool or a string).

    With ``least``, it must also be finite and ``>= least``, or ``> least`` if ``strict``.
    """
    if type(value) is not float:
        if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
    if least is not None:
        sign, above = (">", value > least) if strict else (">=", value >= least)
        if not (above and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and {sign} {least}, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class StructureConfig:
    """Structural hyperparameters of one layer.

    Only the fields belonging to ``kind`` may be set; everything else must
    stay ``None``.  Counts are positive integers, ``stride`` is 1 or 2,
    ``padding`` is a :class:`Padding` (or its text), and ``valid`` padding
    requires the kernel to fit inside the input extent.
    """

    kind: LayerKind
    in_dim: int | None = None
    out_dim: int | None = None
    in_height: int | None = None
    in_width: int | None = None
    kernel_height: int | None = None
    kernel_width: int | None = None
    in_channel: int | None = None
    out_channel: int | None = None
    padding: Padding | None = None
    stride: int | None = None
    step: int | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        if not isinstance(kind, LayerKind):
            raise ValueError(f"unknown layer kind: {kind!r}")
        if isinstance(self.padding, str):
            object.__setattr__(self, "padding", Padding(self.padding))
        for name, required in _CHECK_PLAN[kind]:
            value = getattr(self, name)
            if not required:
                if value is not None:
                    raise ValueError(f"{name} is not a field of {kind.value} layers")
            elif value is None:
                raise ValueError(f"{kind.value} layer requires {name}")
            elif name == "padding":
                if not isinstance(value, Padding):
                    raise ValueError(f"padding must be 'valid' or 'same', got {value!r}")
            elif type(value) is not int or value < 1:
                # an exact int >= 1 is stored as given, with no call
                object.__setattr__(self, name, _integer(name, value, 1))
        if kind is LayerKind.CNN:
            if self.stride not in (1, 2):
                raise ValueError(f"stride must be 1 or 2, got {self.stride}")
            if self.padding is Padding.VALID and (
                self.kernel_height > self.in_height
                or self.kernel_width > self.in_width
            ):
                raise ValueError(
                    "valid padding requires the kernel to fit inside the input"
                )


# Every structural field, in the order ``StructureConfig`` declares it.
_ALL_FIELDS = StructureConfig.__slots__[1:]

# Every slot of a config read in one call, each slot's setter in slot order,
# and each slot's position by name.
_SLOT_VALUES = operator.attrgetter(*StructureConfig.__slots__)
_SLOT_SETTERS = tuple(getattr(StructureConfig, name).__set__ for name in StructureConfig.__slots__)
_SLOT_INDEX = {name: i for i, name in enumerate(StructureConfig.__slots__)}

# Per kind, every field in ``_ALL_FIELDS`` order with whether the kind
# requires it: validation walks this plan instead of testing membership.
_CHECK_PLAN = {
    kind: tuple((name, name in required) for name in _ALL_FIELDS)
    for kind, required in _FIELDS_BY_KIND.items()
}


def fc(in_dim: int, out_dim: int) -> StructureConfig:
    return StructureConfig(kind=LayerKind.FC, in_dim=in_dim, out_dim=out_dim)


def cnn(
    in_height: int,
    in_width: int,
    kernel_height: int,
    kernel_width: int,
    in_channel: int,
    out_channel: int,
    stride: int = 1,
    padding: Padding | str = Padding.SAME,
) -> StructureConfig:
    return StructureConfig(
        kind=LayerKind.CNN,
        in_height=in_height,
        in_width=in_width,
        kernel_height=kernel_height,
        kernel_width=kernel_width,
        in_channel=in_channel,
        out_channel=out_channel,
        stride=stride,
        padding=padding,
    )


def gru(in_dim: int, out_dim: int, step: int) -> StructureConfig:
    return StructureConfig(kind=LayerKind.GRU, in_dim=in_dim, out_dim=out_dim, step=step)


def lstm(in_dim: int, out_dim: int, step: int) -> StructureConfig:
    return StructureConfig(kind=LayerKind.LSTM, in_dim=in_dim, out_dim=out_dim, step=step)


def conv_output_dims(
    in_height: int,
    in_width: int,
    kernel_height: int,
    kernel_width: int,
    stride: int,
    padding: Padding | str,
) -> tuple[int, int]:
    """Output spatial extent of a 2-D convolution.

    ``same`` padding gives ``ceil(extent / stride)`` per axis; ``valid``
    slides the kernel fully inside the input, giving
    ``floor((extent - kernel) / stride) + 1``.  The arguments are checked
    as a CNN layer's are.
    """
    c = cnn(in_height, in_width, kernel_height, kernel_width, 1, 1, stride, padding)
    return _conv_dims(
        c.in_height, c.in_width, c.kernel_height, c.kernel_width, c.stride, c.padding
    )


def _conv_dims(
    in_height: int, in_width: int, kernel_height: int, kernel_width: int, stride: int,
    padding: Padding,
) -> tuple[int, int]:
    """:func:`conv_output_dims` without its checks, for sizes a config already checked."""
    if padding is _VALID:
        return (in_height - kernel_height) // stride + 1, (in_width - kernel_width) // stride + 1
    return -(-in_height // stride), -(-in_width // stride)


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """Named feature values in the canonical per-kind order."""

    kind: LayerKind
    values: tuple[float, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return feature_names(self.kind)

    def __getitem__(self, name: str) -> float:
        return self.values[self.names.index(name)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True, slots=True)
class ExplanatoryVector:
    """Regression inputs: operation count, memory traffic, parameter size.

    ``step`` is present only for recurrent layers, whose per-step setup
    overhead needs its own term.
    """

    flops: float
    mem: float
    param_size: float
    step: float | None = None

    def as_array(self) -> np.ndarray:
        base = [self.flops, self.mem, self.param_size]
        if self.step is not None:
            base.append(self.step)
        return np.asarray(base, dtype=float)


def feature_names(kind: LayerKind) -> tuple[str, ...]:
    """Canonical feature order: structural fields, then memory and parameter."""
    return _FIELDS_BY_KIND[kind] + _MEMORY_FEATURES


def explanatory_names(kind: LayerKind) -> tuple[str, ...]:
    if kind in RECURRENT_KINDS:
        return ("flops", "mem", "param_size", "step")
    return ("flops", "mem", "param_size")


def width_fields(kind: LayerKind) -> tuple[str, str]:
    """The (input width, output width) field names of a layer kind.

    These are the only structural coordinates that expansion may round up:
    growing a weight-matrix width is function-preserving because the new
    rows/columns/channels can be zero-filled.  Geometry (input extent,
    kernel), stride, padding, and step count are fixed by the data and the
    application.
    """
    if kind is _CNN:
        return ("in_channel", "out_channel")
    return ("in_dim", "out_dim")


def _width_at(kind: LayerKind, index: int) -> str | None:
    """The width field that feature ``index`` of ``kind`` holds, or ``None``."""
    names = _FIELDS_BY_KIND[kind]  # the feature prefix, which holds every width
    field = names[index] if 0 <= index < len(names) else None
    return field if field in width_fields(kind) else None


def _config_of(slots: Sequence) -> StructureConfig:
    """The config whose slots hold ``slots``, given in ``__slots__`` order, unchecked.

    The one builder of a config that skips the constructor: callers pass
    only values that it would store as given.
    """
    config = object.__new__(StructureConfig)
    # the slots' own setters write past the frozen __setattr__
    for set_slot, value in zip(_SLOT_SETTERS, slots):
        set_slot(config, value)
    return config


def _with_widths(config: StructureConfig, **widths: int) -> StructureConfig:
    """A copy of ``config`` with some of its width fields changed.

    Each new width is checked as the constructor checks it.  Widths take
    part in no rule that joins fields (stride and the valid-padding fit
    involve only kernel, extent and stride), so the copy is exactly the
    config the constructor would build, at a fraction of its cost.
    """
    allowed = width_fields(config.kind)
    slots = list(_SLOT_VALUES(config))
    for name, value in widths.items():
        if name not in allowed:
            raise ValueError(f"{name} is not a width field of {config.kind.value} layers")
        if type(value) is not int or value < 1:
            value = _integer(name, value, 1)
        slots[_SLOT_INDEX[name]] = value
    return _config_of(slots)


def _derived(config: StructureConfig) -> tuple[int, int, int, int, int]:
    """``(mem_in, mem_out, mem_inter, param_size, flops)`` of a configuration."""
    kind = config.kind
    if kind is _FC:
        in_dim, out_dim = config.in_dim, config.out_dim
        param_size = in_dim * out_dim + out_dim
        # flops: a multiply-add per weight plus the bias add
        return in_dim, out_dim, 0, param_size, 2 * in_dim * out_dim + out_dim
    if kind is _CNN:
        in_h, in_w = config.in_height, config.in_width
        k_h, k_w = config.kernel_height, config.kernel_width
        in_c, out_c = config.in_channel, config.out_channel
        out_h, out_w = _conv_dims(in_h, in_w, k_h, k_w, config.stride, config.padding)
        # exact integers, so grouping the products changes no value
        inter = out_h * out_w * k_h * k_w * in_c
        return (
            in_h * in_w * in_c,
            out_h * out_w * out_c,
            inter,
            k_h * k_w * in_c * out_c + 1,
            2 * inter * out_c,
        )
    step, in_dim, out_dim = config.step, config.in_dim, config.out_dim
    if kind is _GRU:
        param_size = 3 * out_dim * (in_dim + out_dim + 1)
        memory = (step * in_dim, step * out_dim, 3 * step * out_dim)
    else:
        param_size = 4 * out_dim * (in_dim + out_dim + 1)
        memory = (2 * step * in_dim, 2 * step * out_dim, 4 * step * out_dim)
    # recurrent: the gate matrix-vector multiply-adds dominate every step
    return (*memory, param_size, 2 * step * param_size)


def _n_features(kind: LayerKind) -> int:
    return len(_FIELDS_BY_KIND[kind]) + len(_MEMORY_FEATURES)


#: Floats hold every integer below this exactly.
_EXACT = 2**53


def _split_row(config: StructureConfig) -> tuple[list[float], list[float]]:
    """``(features, explanatory)`` of a configuration, from one derivation.

    The domain: every field and derived size is below ``2**53``, so each
    float is the integer itself.  The flops and the memory sum bound all of
    them, so a config whose flops or memory sum reaches ``2**53`` raises
    ``ValueError``.
    """
    mem_in, mem_out, mem_inter, param_size, flops = _derived(config)
    mem = mem_in + mem_out + mem_inter
    kind = config.kind
    if flops >= _EXACT or mem >= _EXACT:
        raise _too_large(kind)
    # features: structural fields, then the memory features; explanatory:
    # flops, mem and param_size (and step, for recurrent kinds)
    if kind is _CNN:
        return [
            float(config.in_height), float(config.in_width),
            float(config.kernel_height), float(config.kernel_width),
            float(config.in_channel), float(config.out_channel),
            float(PADDING_CODES[config.padding]), float(config.stride),
            float(mem_in), float(mem_out), float(mem_inter), float(param_size),
        ], [float(flops), float(mem), float(param_size)]
    if kind is _FC:
        return [
            float(config.in_dim), float(config.out_dim),
            float(mem_in), float(mem_out), float(mem_inter), float(param_size),
        ], [float(flops), float(mem), float(param_size)]
    step = float(config.step)
    return [
        float(config.in_dim), float(config.out_dim), step,
        float(mem_in), float(mem_out), float(mem_inter), float(param_size),
    ], [float(flops), float(mem), float(param_size), step]


# each padding, by its text and by its member, as the code its feature holds
_PADDING_FEATURES = {
    key: float(code) for padding, code in PADDING_CODES.items() for key in (padding.value, padding)
}


def _split_columns(
    kind: LayerKind, fields: Mapping[str, Sequence]
) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_split_row` of many configs at once, as ``(features, explanatory)`` matrices.

    ``fields`` maps each field of ``kind`` to its column of raw values, one
    per config, as a profile record holds them (padding as its text) or as
    a config holds them (padding as a :class:`Padding`).  Row
    ``i`` of each matrix is what :func:`_split_row` gives for config ``i``.
    The result is ``None`` when one of the configs may be rejected, by the
    constructor or by :func:`_split_row`'s bound of ``2**53``; the caller
    then derives config by config, which raises the first one's error.

    The constructor's rules are checked on whole columns: exact ints >= 1,
    a padding text or member, stride 1 or 2 and the valid-padding fit.  Then
    :func:`_derived` runs on float64 columns.  Float arithmetic on integers
    is exact while each partial result stays below ``2**53``, and rounding
    is monotone, so a size that would reach ``2**53`` reads at least that:
    the one bound proves every value exact.  (int64 would wrap silently.)
    """
    names = _FIELDS_BY_KIND[kind]
    columns = {}
    try:
        for name in names:
            values = fields[name]
            if name == "padding":
                codes = map(_PADDING_FEATURES.__getitem__, values)
                columns[name] = np.fromiter(codes, dtype=float, count=len(values))
            elif set(map(type, values)) == {int}:
                columns[name] = np.array(values, dtype=float)
            else:
                return None
    # a padding that is not 'valid' or 'same', or an int too large for a float
    except (KeyError, TypeError, OverflowError):
        return None
    counts = np.array([columns[name] for name in names if name != "padding"])
    # counts below 2**53 are exact, and no product of a few of them overflows
    if not (counts.min() >= 1 and counts.max() < _EXACT):
        return None
    parts: list = [(None, slice(None))]
    if kind is _CNN:
        stride, valid = columns["stride"], columns["padding"] == PADDING_CODES[_VALID]
        if not (
            ((stride == 1) | (stride == 2)).all()
            and (columns["kernel_height"][valid] <= columns["in_height"][valid]).all()
            and (columns["kernel_width"][valid] <= columns["in_width"][valid]).all()
        ):
            return None
        # _conv_dims takes one padding, so each padding's rows derive apart
        parts = [(padding, columns["padding"] == code) for padding, code in PADDING_CODES.items()]
    derived = np.empty((5, counts.shape[1]))
    for padding, rows in parts:
        config = SimpleNamespace(
            kind=kind, padding=padding,
            **{name: columns[name][rows] for name in names if name != "padding"},
        )
        for out, values in zip(derived, _derived(config)):
            out[rows] = values
    mem_in, mem_out, mem_inter, param_size, flops = derived
    explanatory = [flops, mem_in + mem_out + mem_inter, param_size]
    if kind in RECURRENT_KINDS:
        explanatory.append(columns["step"])
    explanatory = np.column_stack(explanatory)
    # the memory sum bounds each memory feature
    if not explanatory.max() < _EXACT:
        return None
    features = np.column_stack([columns[name] for name in names] + list(derived[:4]))
    return features, explanatory


def _too_large(kind: LayerKind) -> ValueError:
    """The error for a ``kind`` config with a field or a derived size of ``2**53`` or more."""
    return ValueError(f"{kind.value} config has a size too large for a float")


def derive_features(config: StructureConfig) -> FeatureVector:
    """Feature vector of a configuration: structural fields plus memory sizes."""
    return FeatureVector(kind=config.kind, values=tuple(_split_row(config)[0]))


def derive_explanatory(config: StructureConfig) -> ExplanatoryVector:
    """Explanatory vector of a configuration.

    ``mem`` is the sum of the three memory features; ``step`` is copied
    through for recurrent kinds only.
    """
    return ExplanatoryVector(*_split_row(config)[1])


def config_to_dict(config: StructureConfig) -> dict:
    """Canonical flat encoding: ``kind`` plus only the fields legal for it."""
    record: dict = {"kind": config.kind.value}
    for name in _FIELDS_BY_KIND[config.kind]:
        value = getattr(config, name)
        record[name] = value.value if isinstance(value, Padding) else int(value)
    return record


def config_from_dict(record: dict) -> StructureConfig:
    """Decode the canonical flat encoding; unknown fields and sizes >= ``2**53`` are errors."""
    if not isinstance(record, dict):
        raise ValueError(f"config record must be an object, got {type(record).__name__}")
    if "kind" not in record:
        raise ValueError("config record is missing 'kind'")
    try:
        kind = LayerKind(record["kind"])
    except ValueError:
        raise ValueError(f"unknown layer kind: {record['kind']!r}") from None
    allowed = set(_FIELDS_BY_KIND[kind])
    extra = set(record) - allowed - {"kind"}
    if extra:
        raise ValueError(
            f"unknown fields for {kind.value} config: {', '.join(sorted(extra))}"
        )
    missing = allowed - set(record)
    if missing:
        raise ValueError(
            f"{kind.value} config is missing: {', '.join(sorted(missing))}"
        )
    kwargs = {name: record[name] for name in allowed}
    config = StructureConfig(kind=kind, **kwargs)
    _split_row(config)  # a record must lie in the domain: every size below 2**53
    return config
