"""Bad flag values are usage errors (exit 1), and an overflowing CNN size is a data error (exit 2)."""

import json

import pytest

from conftest import two_leaf_channel_model
from layertime.cli import main
from layertime.layers import LayerKind, cnn, config_to_dict
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
    assert main(["plan", "--scope", "galaxy", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: usage: unknown scope 'galaxy'; known: default\n"
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
    assert predicted == "error: data: CNN config has a size too large for a float\n"
    assert not report.exists()
