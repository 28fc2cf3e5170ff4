"""Interpretable execution-time models for neural-network layers.

Learns tree-structured piecewise-linear latency models from per-layer
profiles, analyzes them, and uses them to expand structures to
execution-time local minima and to steer width compression toward
minimum predicted latency.

``import layertime`` loads only the core every command needs (``layers``,
``nnls`` and ``tree``).  The names re-exported from ``harness``,
``steering`` and ``analysis`` import their module on first access.
"""

from importlib import import_module as _import_module

from .layers import (
    ExplanatoryVector,
    FeatureVector,
    LayerKind,
    Padding,
    StructureConfig,
    cnn,
    config_from_dict,
    config_to_dict,
    conv_output_dims,
    derive_explanatory,
    derive_features,
    fc,
    gru,
    lstm,
)
from .nnls import NumericError, nnls
from .tree import (
    Condition,
    ConditionKind,
    Dataset,
    FitParams,
    LinearFit,
    TimeModel,
    enumerate_conditions,
    fit_tree,
    impurity,
    load_model,
    load_models,
    nnls_fit,
    partition,
    save_model,
    save_models,
)

__version__ = "0.1.0"

_LAZY_EXPORTS = {
    "analysis": (
        "ChannelPolynomial",
        "ConvGeometry",
        "ExpansionRegion",
        "SignificanceReport",
        "SimplifiedTimeModel",
        "channel_time_polynomial",
        "coefficient_pvalues",
        "expansion_benefit",
        "safe_region",
        "simplify_model",
        "verify_region",
    ),
    "harness": (
        "ProfileSample",
        "SyntheticOracle",
        "default_oracle",
        "generate_plan",
        "ingest_profile",
        "read_profile",
        "synth_profile",
        "synth_time",
        "write_profile",
    ),
    "steering": (
        "CommandEvaluator",
        "ExpansionTrace",
        "NetworkSpec",
        "brute_force_compress",
        "expand_layer",
        "expand_network",
        "greedy_compress",
        "load_network",
        "network_time",
        "rnn_time_floor",
        "save_network",
        "time_aware_objective",
        "zero_pad_plan",
    ),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__all__ = [
    "ExplanatoryVector",
    "FeatureVector",
    "LayerKind",
    "Padding",
    "StructureConfig",
    "cnn",
    "config_from_dict",
    "config_to_dict",
    "conv_output_dims",
    "derive_explanatory",
    "derive_features",
    "fc",
    "gru",
    "lstm",
    "NumericError",
    "nnls",
    "Condition",
    "ConditionKind",
    "Dataset",
    "FitParams",
    "LinearFit",
    "TimeModel",
    "enumerate_conditions",
    "fit_tree",
    "impurity",
    "load_model",
    "load_models",
    "nnls_fit",
    "partition",
    "save_model",
    "save_models",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_EXPORTS, *_LAZY})
