"""The package's public names: every re-export resolves, eager or lazy."""

import importlib

import pytest

import layertime

# every name ``layertime`` re-exports, by the module that defines it
PUBLIC_NAMES = {
    "analysis": [
        "ChannelPolynomial", "ConvGeometry", "ExpansionRegion", "SignificanceReport",
        "SimplifiedTimeModel", "channel_time_polynomial", "coefficient_pvalues",
        "expansion_benefit", "safe_region", "simplify_model", "verify_region",
    ],
    "harness": [
        "ProfileSample", "SyntheticOracle", "default_oracle", "generate_plan",
        "ingest_profile", "read_profile", "synth_profile", "synth_time", "write_profile",
    ],
    "layers": [
        "ExplanatoryVector", "FeatureVector", "LayerKind", "Padding", "StructureConfig",
        "cnn", "config_from_dict", "config_to_dict", "conv_output_dims",
        "derive_explanatory", "derive_features", "fc", "gru", "lstm",
    ],
    "nnls": ["NumericError", "nnls"],
    "steering": [
        "CommandEvaluator", "ExpansionTrace", "NetworkSpec", "brute_force_compress",
        "expand_layer", "expand_network", "greedy_compress", "load_network",
        "network_time", "rnn_time_floor", "save_network", "time_aware_objective",
        "zero_pad_plan",
    ],
    "tree": [
        "Condition", "ConditionKind", "Dataset", "FitParams", "LinearFit", "TimeModel",
        "enumerate_conditions", "fit_tree", "impurity", "load_model", "load_models",
        "nnls_fit", "partition", "save_model", "save_models",
    ],
}


def test_every_public_name_resolves_to_its_definition():
    assert sum(len(names) for names in PUBLIC_NAMES.values()) == 64
    wrong = []
    for module, names in PUBLIC_NAMES.items():
        source = importlib.import_module(f"layertime.{module}")
        for name in names:
            namespace: dict = {}
            exec(f"from layertime import {name}", namespace)
            expected = getattr(source, name)
            if namespace[name] is not expected or getattr(layertime, name) is not expected:
                wrong.append(name)
    assert wrong == []


def test_all_and_dir_list_every_public_name():
    names = [name for names in PUBLIC_NAMES.values() for name in names]
    assert sorted(layertime.__all__) == sorted(names)
    assert set(names) <= set(dir(layertime))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        layertime.no_such_name
    with pytest.raises(ImportError):
        exec("from layertime import no_such_name", {})
