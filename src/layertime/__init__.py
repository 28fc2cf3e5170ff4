"""Interpretable execution-time models for neural-network layers.

Learns tree-structured piecewise-linear latency models from per-layer
profiles, analyzes them, and uses them to expand structures to
execution-time local minima and to steer width compression toward
minimum predicted latency.

``import layertime`` loads no submodule, and so not numpy either.  Each
re-exported name imports its module on first access.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_LAZY_EXPORTS = {
    "layers": (
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
    ),
    "nnls": ("NumericError", "nnls"),
    "tree": (
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
    ),
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

__all__ = [*_LAZY]


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


class _Package(_ModuleType):
    """The package module, whose ``nnls`` is the solver, not the submodule of that name."""

    @property
    def nnls(self):
        return _import_module(".nnls", __name__).nnls

    @nnls.setter
    def nnls(self, value):
        # the import system binds the submodule here when it first loads it;
        # the package keeps serving the function, and refuses any other value
        # so that a patch of the name fails instead of silently doing nothing
        if not isinstance(value, _ModuleType):
            raise AttributeError(f"{__name__}.nnls is read-only")


_sys.modules[__name__].__class__ = _Package
