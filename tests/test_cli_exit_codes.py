"""Bad flag values are usage errors (exit 1); a size of 2**53 or more is a data error (exit 2)."""

import json

import pytest

from conftest import two_leaf_channel_model
from layertime.cli import main
from layertime.harness import ProfileSample, save_plan, write_profile
from layertime.layers import LayerKind, cnn, config_to_dict, fc
from layertime.steering import NetworkSpec, save_network
from layertime.tree import save_models


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "model.json").write_bytes(
        save_models({LayerKind.CNN: two_leaf_channel_model()})
    )
    layer = cnn(24, 24, 3, 3, 43, 64)
    (tmp_path / "net.json").write_bytes(save_network(NetworkSpec((layer,))))
    huge = config_to_dict(layer) | {"in_height": 10**200, "in_width": 10**200}
    (tmp_path / "huge.json").write_text(json.dumps(huge))
    return tmp_path


def test_unknown_plan_scope_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "plan.jsonl"
    # the profiling space is fixed: plan takes no --scope, not even "default"
    assert main(["plan", "--scope", "default", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: usage: unrecognized arguments: --scope default\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "reason"),
    [
        ("", "evaluator command must not be empty"),
        ("  ", "evaluator command must not be empty"),
        ('"unclosed', "No closing quotation"),
    ],
)
def test_empty_or_unbalanced_evaluator_command_is_a_usage_error(inputs, capsys, command, reason):
    out = inputs / "compressed.json"
    argv = ["compress", "--model", str(inputs / "model.json"),
            "--network", str(inputs / "net.json"), "--evaluator-cmd", command, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: usage: bad --evaluator-cmd: {reason}\n"
    assert not out.exists()


def test_analyze_reports_an_overflowing_size_as_predict_does(inputs, capsys):
    model, config = str(inputs / "model.json"), str(inputs / "huge.json")
    assert main(["predict", "--model", model, "--config", config]) == 2
    predicted = capsys.readouterr().err
    report = inputs / "report.json"
    assert main(["analyze", "--model", model, "--config", config, "--out", str(report)]) == 2
    assert capsys.readouterr().err == predicted
    message = "CNN config has a size too large for a float"
    assert predicted == f"error: data: {config}: {message}\n"
    assert not report.exists()


# each subcommand that reads a config, the file it reads it from, and how its error names it
_READERS = {
    "synth --plan": (["synth", "--plan", "{plan}", "--out", "{out}"], "{plan}:1: "),
    "fit --dataset": (["fit", "--dataset", "{profile}", "--out", "{out}"], "{profile}:1: "),
    "analyze --dataset": (
        ["analyze", "--model", "{model}", "--dataset", "{profile}", "--out", "{out}"],
        "{profile}:1: ",
    ),
    "predict --config": (["predict", "--model", "{model}", "--config", "{config}"], "{config}: "),
    "analyze --config": (
        ["analyze", "--model", "{model}", "--config", "{config}", "--out", "{out}"], "{config}: ",
    ),
    "expand --network": (
        ["expand", "--model", "{model}", "--network", "{network}", "--out", "{out}"],
        "{network}: malformed layer record: ",
    ),
    "compress --network": (
        ["compress", "--model", "{model}", "--network", "{network}", "--out", "{out}"],
        "{network}: malformed layer record: ",
    ),
}


@pytest.mark.parametrize("reader", list(_READERS))
@pytest.mark.parametrize(
    "config", [fc(2**53, 1), fc(2**26, 2**26)], ids=["field of 2**53", "flops past 2**53"]
)
def test_a_size_of_2_53_or_more_in_any_input_is_a_data_error(inputs, capsys, reader, config):
    names = ("plan", "profile", "network", "config")
    files = {name: str(inputs / f"outside.{name}") for name in names}
    # the writers derive no size, so each file holds the config as given
    save_plan([config], files["plan"])
    write_profile([ProfileSample(config=config, time_ms=1.0)], files["profile"])
    (inputs / "outside.network").write_bytes(save_network(NetworkSpec((config,))))
    (inputs / "outside.config").write_text(json.dumps(config_to_dict(config)))
    files.update(model=str(inputs / "model.json"), out=str(inputs / "out.json"))
    argv, where = _READERS[reader]
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "FC config has a size too large for a float"
    assert captured.err == f"error: data: {where.format(**files)}{message}\n"
    assert not (inputs / "out.json").exists()
