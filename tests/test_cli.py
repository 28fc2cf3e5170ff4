"""End-to-end command-line behaviour, exit codes, and reproducibility."""

import json
import os
import subprocess
import sys

import pytest

from conftest import two_leaf_channel_model, leaf
from layertime.cli import _parse_width_grid, main
from layertime.harness import (
    ProfileFormatError,
    default_oracle,
    generate_plan,
    load_oracle,
    load_plan,
    save_oracle,
    synth_profile,
    write_profile,
)
from layertime.layers import LayerKind, cnn, config_from_dict, config_to_dict, fc
from layertime.steering import (
    CommandEvaluator,
    NetworkFormatError,
    NetworkSpec,
    greedy_compress,
    load_network,
    save_network,
)
from layertime.tree import ModelFormatError, TimeModel, load_models, save_models


def write_reference_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(save_models({LayerKind.CNN: two_leaf_channel_model()}))
    return path


def write_network(tmp_path, layers, name="net.json"):
    path = tmp_path / name
    path.write_bytes(save_network(NetworkSpec(tuple(layers))))
    return path


def test_plan_synth_fit_pipeline(tmp_path, capsys):
    plan = tmp_path / "plan.jsonl"
    profile = tmp_path / "profile.jsonl"
    model = tmp_path / "model.json"
    assert main(["plan", "--networks", "20", "--seed", "7", "--out", str(plan)]) == 0
    assert main(["synth", "--plan", str(plan), "--oracle", "default", "--out", str(profile)]) == 0
    assert main(["fit", "--dataset", str(profile), "--seed", "1", "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert "CNN: nodes=" in out and "test_mape=" in out
    models = load_models(model.read_bytes())
    assert LayerKind.CNN in models


def test_predict_prints_three_decimals(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(
        save_models({LayerKind.FC: TimeModel(kind=LayerKind.FC, root=leaf((2.0, 0.0, 0.0), 1.0))})
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(fc(2, 1))))  # flops = 5
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.strip() == "11.000 ms"


def test_fit_small_profile_warns_and_fits_single_leaf(tmp_path, capsys):
    oracle = default_oracle(noise=0.01, seed=3)
    configs = [c for c in generate_plan(n_networks=10, seed=5) if c.kind is LayerKind.CNN][:14]
    assert len(configs) == 14
    profile = tmp_path / "small.jsonl"
    write_profile(synth_profile(oracle, configs), profile)
    model = tmp_path / "model.json"
    assert main(["fit", "--dataset", str(profile), "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "single leaf" in out
    assert "nodes=1" in out


def test_expand_command(tmp_path, capsys):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 43, 64)])
    out_path = tmp_path / "expanded.json"
    trace_path = tmp_path / "trace.json"
    code = main([
        "expand", "--model", str(model_path), "--network", str(net_path),
        "--out", str(out_path), "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "total:" in out and "->" in out
    expanded = load_network(out_path.read_bytes())
    assert expanded.layers[0].in_channel == 44
    trace = json.loads(trace_path.read_text())
    assert trace["entries"][0]["accepted"][0]["feature"] == "in_channel"
    assert "expanded_time <= current_time" in trace["rule"]


def make_width_sum_evaluator(tmp_path):
    script = tmp_path / "width_loss.py"
    script.write_text(
        "import json, sys\n"
        "doc = json.load(open(sys.argv[1]))\n"
        "total = 0\n"
        "for layer in doc['layers']:\n"
        "    total += layer.get('out_channel') or layer.get('out_dim') or 0\n"
        "print(total)\n"
    )
    return f"{sys.executable} {script}"


def test_compress_lambda_zero_matches_greedy_api(tmp_path, capsys):
    model_path = write_reference_model(tmp_path)
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 64),))
    net_path = write_network(tmp_path, net.layers)
    out_path = tmp_path / "compressed.json"
    command = make_width_sum_evaluator(tmp_path)
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        "--lambda", "0", "--evaluator-cmd", command,
        "--width-grid", "0.125,0.25,0.5,1.0", "--out", str(out_path),
    ])
    assert code == 0
    from_cli = load_network(out_path.read_bytes())
    expected = greedy_compress(
        CommandEvaluator(command),
        {LayerKind.CNN: two_leaf_channel_model()},
        net,
        0.0,
        [[8, 16, 32, 64]],
    )
    assert from_cli == expected
    assert from_cli.layers[0].out_channel == 8  # evaluator-only optimum
    out = capsys.readouterr().out
    assert "time:" in out and "objective:" in out


def test_compress_calls_the_evaluator_only_for_the_search(tmp_path):
    model_path = write_reference_model(tmp_path)
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 43), cnn(24, 24, 3, 3, 43, 61)))
    net_path = write_network(tmp_path, net.layers)
    log = tmp_path / "calls.log"
    script = tmp_path / "logging_loss.py"
    script.write_text(
        "import json, sys\n"
        "with open(sys.argv[1], 'a') as log:\n"
        "    log.write('call\\n')\n"
        "with open(sys.argv[2]) as network:\n"
        "    doc = json.load(network)\n"
        "print(repr(sum(64 / layer['out_channel'] for layer in doc['layers'])))\n"
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "layertime.cli", "compress",
            "--model", str(model_path), "--network", str(net_path), "--lambda", "1.0",
            "--evaluator-cmd", f"{sys.executable} {script} {log}",
            "--width-grid", "0.25,0.5,1.0", "--out", str(tmp_path / "compressed.json"),
        ],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 0, result.stderr

    calls = []

    def loss(network):
        calls.append(network)
        return sum(64 / layer.out_channel for layer in network.layers)

    grids = _parse_width_grid("0.25,0.5,1.0", net)
    expected = greedy_compress(loss, {LayerKind.CNN: two_leaf_channel_model()}, net, 1.0, grids)
    assert load_network((tmp_path / "compressed.json").read_bytes()) == expected
    # the objective line reuses the search's losses of the input and the result
    assert log.read_text().count("call") == len(calls) > 2


def test_compress_pure_time_when_evaluator_omitted(tmp_path):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 8, 64)])
    out_path = tmp_path / "compressed.json"
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        "--lambda", "1.0", "--out", str(out_path),
    ])
    assert code == 0
    compressed = load_network(out_path.read_bytes())
    assert compressed.layers[0].out_channel == 8


def test_analyze_report(tmp_path, capsys):
    plan = [c for c in generate_plan(n_networks=30, seed=2) if c.kind is LayerKind.CNN]
    profile = tmp_path / "profile.jsonl"
    write_profile(synth_profile(default_oracle(noise=0.01, seed=1), plan), profile)
    model_path = write_reference_model(tmp_path)
    config_path = tmp_path / "geometry.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 43, 64))))
    report_path = tmp_path / "report.json"
    code = main([
        "analyze", "--model", str(model_path), "--dataset", str(profile),
        "--config", str(config_path), "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "CNN" in report["significance"]
    names = [v["variable"] for v in report["significance"]["CNN"]]
    assert names == ["flops", "mem", "param_size"]
    assert report["regions"]
    region = report["regions"][0]
    assert region["feature"] == "in_channel" and region["tau"] == 4
    assert region["verified"] is True
    assert 0.7 * 1288 <= region["bound"] <= 1.4 * 1288
    out = capsys.readouterr().out
    assert "p-values" in out and "region:" in out


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["fit"]) == 1  # missing required flags
    assert capsys.readouterr().err.startswith("error: usage")


def test_data_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert main(["fit", "--dataset", str(missing), "--out", str(tmp_path / "m.json")]) == 2
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{not json")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(fc(2, 1))))
    assert main(["predict", "--model", str(bad_model), "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "error: data:" in err


def _mutate_cnn_root(doc, mutation):
    cnn_doc = next(m for m in doc["models"] if m["layer_kind"] == "CNN")
    root = cnn_doc["nodes"][0]
    if mutation == "feature 99":
        root["cond"]["feature"] = 99
    elif mutation == "range tau NaN":
        root["cond"] = {**root["cond"], "kind": "range", "tau": float("nan")}
    elif mutation == "NaN weights":
        root["w"] = [float("nan")] * len(root["w"])
    else:
        root["w"] = root["w"][:1]


@pytest.mark.parametrize(
    "mutation", ["feature 99", "range tau NaN", "NaN weights", "1-element weights"]
)
def test_invalid_model_values_are_data_errors(tmp_path, capsys, mutation):
    oracle_doc = json.loads(save_oracle(default_oracle()))
    _mutate_cnn_root(oracle_doc, mutation)
    payload = json.dumps(oracle_doc)
    with pytest.raises(ModelFormatError):
        load_models(payload)
    with pytest.raises(ModelFormatError):
        load_oracle(payload)
    model_path = tmp_path / "model.json"
    model_path.write_text(payload)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 43, 64))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ") and "node 0" in captured.err


@pytest.mark.parametrize("mutation", ["duplicate id", "unreachable node"])
def test_stray_model_nodes_are_data_errors(tmp_path, capsys, mutation):
    oracle_doc = json.loads(save_oracle(default_oracle()))
    nodes = next(m for m in oracle_doc["models"] if m["layer_kind"] == "CNN")["nodes"]
    if mutation == "duplicate id":
        nodes.append({**nodes[1], "b": 999.0})
        expected = "node id 1 appears more than once"
    else:
        spare = max(nd["id"] for nd in nodes) + 1
        nodes.append({**nodes[-1], "id": spare})
        expected = f"node {spare} is not reachable from node 0"
    payload = json.dumps(oracle_doc)
    with pytest.raises(ModelFormatError, match=expected):
        load_models(payload)
    model_path = tmp_path / "model.json"
    model_path.write_text(payload)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 43, 64))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ") and expected in captured.err


@pytest.mark.parametrize("record", ["5", "null", "[1]", '"x"'])
def test_non_object_config_record_is_a_data_error(tmp_path, capsys, record):
    with pytest.raises(ValueError, match="object"):
        config_from_dict(json.loads(record))
    config_path = tmp_path / "config.json"
    config_path.write_text(record)
    model_path = write_reference_model(tmp_path)
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    plan_path = tmp_path / "plan.jsonl"
    plan_path.write_text(json.dumps(config_to_dict(fc(2, 1))) + "\n" + record + "\n")
    with pytest.raises(ProfileFormatError, match=":2:"):
        load_plan(plan_path)
    out = tmp_path / "profile.jsonl"
    assert main(["synth", "--plan", str(plan_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: data: ") == 2 and "Traceback" not in captured.err
    assert not out.exists()


def _assert_data_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("padding", [5, True, 1.5], ids=["int", "bool", "float"])
def test_padding_that_is_not_a_padding_is_a_data_error(tmp_path, capsys, padding):
    record = config_to_dict(cnn(24, 24, 3, 3, 43, 64))
    record["padding"] = padding
    with pytest.raises(ValueError, match="padding must be 'valid' or 'same'"):
        config_from_dict(record)
    doc = json.loads(save_network(NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))))
    doc["layers"][0]["padding"] = padding
    with pytest.raises(NetworkFormatError, match="padding must be 'valid' or 'same'"):
        load_network(json.dumps(doc))
    model_path = write_reference_model(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(record))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    _assert_data_error(capsys)
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc))
    out_path = tmp_path / "expanded.json"
    code = main(["expand", "--model", str(model_path), "--network", str(net_path),
                 "--out", str(out_path)])
    assert code == 2
    _assert_data_error(capsys)
    assert not out_path.exists()


@pytest.mark.parametrize(
    "field, value",
    [("in_channel", 10**400), ("in_height", 10**309), ("out_channel", 10**200)],
    ids=["in_channel 1e400", "in_height 1e309", "channels 1e200"],
)
def test_sizes_beyond_a_float_are_data_errors(tmp_path, capsys, field, value):
    record = config_to_dict(cnn(24, 24, 3, 3, 43, 64))
    record[field] = value
    if field == "out_channel":
        # the field fits a float, its products with the input channels do not
        record["in_channel"] = value
    model_path = write_reference_model(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(record))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: data: CNN config has a size too large for a float\n"


@pytest.mark.parametrize("grid", ["nan", "0.5,nan", "NaN,1"])
def test_nan_width_fraction_is_a_usage_error(tmp_path, capsys, grid):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 8, 64)])
    out_path = tmp_path / "compressed.json"
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        f"--width-grid={grid}", "--out", str(out_path),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: --width-grid needs fractions in (0, 1]\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "fit_params",
    [[1], {"min_leaf": "x"}, {"multiple_taus": 5}, {"multiple_taus": [1e400]}],
    ids=["list", "str min_leaf", "int multiple_taus", "overflowing tau"],
)
def test_malformed_fit_params_are_data_errors(tmp_path, capsys, fit_params):
    doc = json.loads(save_models({LayerKind.CNN: two_leaf_channel_model()}))
    doc["models"][0]["fit_params"] = fit_params
    payload = json.dumps(doc)
    with pytest.raises(ModelFormatError):
        load_models(payload)
    model_path = tmp_path / "model.json"
    model_path.write_text(payload)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 43, 64))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ")


def test_infinite_profile_time_exits_two(tmp_path, capsys):
    profile = tmp_path / "profile.jsonl"
    profile.write_text(
        '{"layer_type": "FC", "config": {"in_dim": 3, "out_dim": 5}, "time_ms": Infinity}\n'
    )
    code = main(["fit", "--dataset", str(profile), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "error: data:" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_non_finite_lambda_is_a_usage_error(tmp_path, capsys, lam):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 8, 64)])
    out_path = tmp_path / "compressed.json"
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        f"--lambda={lam}", "--out", str(out_path),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: usage")
    assert not out_path.exists()


@pytest.mark.parametrize("budget", ["0", "-4"])
@pytest.mark.parametrize("search", [[], ["--brute-force"]], ids=["greedy", "brute-force"])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, budget, search):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 8, 64)])
    out_path = tmp_path / "compressed.json"
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        f"--budget={budget}", *search, "--out", str(out_path),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: usage: --budget")
    assert not out_path.exists()


@pytest.mark.parametrize("networks", ["0", "-3"])
def test_plan_without_networks_is_a_usage_error(tmp_path, capsys, networks):
    out_path = tmp_path / "plan.jsonl"
    code = main(["plan", f"--networks={networks}", "--out", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: usage: --networks")
    assert not out_path.exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominates a cold start, and only `analyze` needs it;
    # hashlib loads OpenSSL, and only `synth` needs it
    probe = (
        "import sys, layertime.cli; "
        "print('scipy.stats' in sys.modules, '_hashlib' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == "False False"


def test_cli_import_leaves_subprocess_and_shlex_unloaded():
    # only an external --evaluator-cmd runs a child process
    probe = (
        "import sys, layertime.cli; "
        "print('subprocess' in sys.modules, 'shlex' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == "False False"


@pytest.mark.parametrize(
    "flags",
    [
        ["--mape-stop", "nan"],
        ["--mape-stop", "inf"],
        ["--mape-stop", "0"],
        ["--min-leaf", "1"],
        ["--max-depth", "-5"],
    ],
    ids=" ".join,
)
def test_fit_rejects_bad_parameters_as_usage_errors(tmp_path, capsys, flags):
    profile = tmp_path / "profile.jsonl"
    write_profile(synth_profile(default_oracle(), generate_plan(n_networks=2, seed=1)), profile)
    out = tmp_path / "model.json"
    code = main(["fit", "--dataset", str(profile), "--out", str(out), *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage: bad fit parameter: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "fit_params",
    [{"mape_stop": float("nan")}, {"max_depth": -5}, {"min_leaf": True},
     {"multiple_taus": [2, 1]}, {"range_quantiles": 1.5}],
    ids=repr,
)
def test_predict_rejects_out_of_range_fit_params(tmp_path, capsys, fit_params):
    doc = json.loads(save_models({LayerKind.CNN: two_leaf_channel_model()}))
    doc["models"][0]["fit_params"].update(fit_params)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 43, 64))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ")


def test_predict_walks_a_deep_chain_without_recursion(tmp_path, capsys):
    from test_tree import chain_document

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"format_version": "1.0", "models": [chain_document(5000)]}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(8, 8, 3, 3, 1, 4))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.endswith(" ms\n")


def test_failing_evaluator_is_a_data_error(tmp_path, capsys):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 8, 64)])
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        "--lambda", "1.0", "--evaluator-cmd", f"{sys.executable} -c 'raise SystemExit(9)'",
        "--out", str(tmp_path / "c.json"),
    ])
    assert code == 2
    assert "evaluator" in capsys.readouterr().err


def test_predict_kind_without_model_is_data_error(tmp_path, capsys):
    model_path = write_reference_model(tmp_path)  # CNN only
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(fc(2, 1))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 2
    assert "no model" in capsys.readouterr().err


def test_outputs_reproducible_under_fixed_seed(tmp_path):
    paths = []
    for name in ("a", "b"):
        plan = tmp_path / f"plan-{name}.jsonl"
        profile = tmp_path / f"profile-{name}.jsonl"
        model = tmp_path / f"model-{name}.json"
        assert main(["plan", "--networks", "12", "--seed", "9", "--out", str(plan)]) == 0
        assert main(["synth", "--plan", str(plan), "--out", str(profile)]) == 0
        assert main(["fit", "--dataset", str(profile), "--seed", "4", "--out", str(model)]) == 0
        paths.append((plan, profile, model))
    (plan_a, profile_a, model_a), (plan_b, profile_b, model_b) = paths
    assert plan_a.read_bytes() == plan_b.read_bytes()
    assert profile_a.read_bytes() == profile_b.read_bytes()
    assert model_a.read_bytes() == model_b.read_bytes()
