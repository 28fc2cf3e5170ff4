"""End-to-end command-line behaviour, exit codes, and reproducibility."""

import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import B_FALSE, IN_CHANNEL, OUT_CHANNEL, W_FALSE, leaf, two_leaf_channel_model
from layertime import cli
from layertime.cli import _parse_width_grid, main
from layertime.harness import (
    ProfileFormatError,
    SyntheticOracle,
    default_oracle,
    generate_plan,
    load_oracle,
    load_plan,
    save_oracle,
    save_plan,
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
from layertime.tree import (
    FORMAT_VERSION,
    Condition,
    ConditionKind,
    ModelFormatError,
    Node,
    TimeModel,
    load_models,
    save_models,
)


def write_reference_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(save_models({LayerKind.CNN: two_leaf_channel_model()}))
    return path


def write_network(tmp_path, layers, name="net.json"):
    path = tmp_path / name
    path.write_bytes(save_network(NetworkSpec(tuple(layers))))
    return path


def _write_fc_only_model(tmp_path):
    path = tmp_path / "fc-model.json"
    path.write_bytes(
        save_models({LayerKind.FC: TimeModel(kind=LayerKind.FC, root=leaf((1.0, 0.0, 0.0), 1.0))})
    )
    return path


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
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


def test_expand_that_cannot_write_its_trace_writes_no_network(tmp_path, capsys):
    model_path = write_reference_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 43, 64)])
    out_path = tmp_path / "expanded.json"
    code = main([
        "expand", "--model", str(model_path), "--network", str(net_path),
        "--out", str(out_path), "--trace", str(tmp_path),
    ])
    assert code == 2
    assert not out_path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ")


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


def test_analyze_writes_infinite_values_as_null(tmp_path, capsys):
    # a profile that one linear law fits exactly has infinite t statistics,
    # and the oracle's out_channel region is unbounded at this geometry
    plan = [c for c in generate_plan(n_networks=30, seed=2) if c.kind is LayerKind.CNN]
    exact = SyntheticOracle({LayerKind.CNN: TimeModel(LayerKind.CNN, leaf((1e-6, 1e-5, 0.0), 1.0))})
    profile = tmp_path / "profile.jsonl"
    write_profile(synth_profile(exact, plan), profile)
    model_path = tmp_path / "model.json"
    model_path.write_bytes(save_models(dict(default_oracle().models)))
    report_path = tmp_path / "report.json"
    assert main([
        "analyze", "--model", str(model_path), "--dataset", str(profile),
        "--config", str(_write_config(tmp_path, cnn(24, 24, 3, 3, 43, 64))),
        "--out", str(report_path),
    ]) == 0
    text = report_path.read_text()
    assert "Infinity" not in text and "NaN" not in text
    report = json.loads(text)
    assert [v["t_statistic"] for v in report["significance"]["CNN"]] == [None, None, 0.0]
    assert [r["bound"] for r in report["regions"]][1:] == [None]
    assert "bound inf" in capsys.readouterr().out


def test_analyze_returns_on_a_crossing_far_past_the_bisection_tolerance(tmp_path):
    # the benefit crosses zero near 1e13, where floats lie further apart than
    # the bisection tolerance; a cold process, so a search that never ends times out
    model = two_leaf_channel_model()
    model.root.left = leaf((1e-30, 0.0, 0.0), 0.0)
    model.root.right = leaf((0.0, 0.0, 0.0), 1.0)
    model_path = tmp_path / "model.json"
    model_path.write_bytes(save_models({LayerKind.CNN: model}))
    report_path = tmp_path / "report.json"
    result = subprocess.run(
        [
            sys.executable, "-m", "layertime.cli", "analyze", "--model", str(model_path),
            "--config", str(_write_config(tmp_path, cnn(24, 24, 3, 3, 43, 64))),
            "--out", str(report_path),
        ],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 0, result.stderr
    [region] = json.loads(report_path.read_text())["regions"]
    assert region["verified"] is True
    assert 1e12 < region["bound"] < 1e14


def test_non_finite_expansion_benefit_exits_three_and_writes_nothing(tmp_path, capsys):
    model = two_leaf_channel_model()
    model.root.left = leaf((1.5e308, 0.0, 0.0), 0.0)  # finite, but its flops term overflows
    model_path = tmp_path / "model.json"
    model_path.write_bytes(save_models({LayerKind.CNN: model}))
    report_path = tmp_path / "report.json"
    assert main([
        "analyze", "--model", str(model_path),
        "--config", str(_write_config(tmp_path, cnn(24, 24, 3, 3, 43, 64))),
        "--out", str(report_path),
    ]) == 3
    assert capsys.readouterr().err == "error: numeric: node 0 has a non-finite expansion benefit\n"
    assert not report_path.exists()


def test_a_non_finite_benefit_at_a_later_node_prints_no_region(tmp_path, capsys):
    # node 0's benefit is finite and node 2's is not: every region is built
    # before the first one is printed
    model = two_leaf_channel_model()
    model.root.right = Node(
        fit=model.root.right.fit,
        condition=Condition(OUT_CHANNEL, 2, ConditionKind.MULTIPLE),
        left=leaf((1.5e308, 0.0, 0.0), 0.0),
        right=leaf(W_FALSE, B_FALSE),
    )
    model_path = tmp_path / "model.json"
    model_path.write_bytes(save_models({LayerKind.CNN: model}))
    report_path = tmp_path / "report.json"
    assert main([
        "analyze", "--model", str(model_path),
        "--config", str(_write_config(tmp_path, cnn(24, 24, 3, 3, 43, 64))),
        "--out", str(report_path),
    ]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numeric: node 2 has a non-finite expansion benefit\n"
    assert not report_path.exists()


def test_analyze_names_the_kind_with_too_few_records(tmp_path, capsys):
    plan = generate_plan(n_networks=30, seed=2)
    cnn_plan = [c for c in plan if c.kind is LayerKind.CNN]
    fc_plan = [c for c in plan if c.kind is LayerKind.FC][:3]
    profile = tmp_path / "profile.jsonl"
    write_profile(synth_profile(default_oracle(noise=0.01, seed=1), cnn_plan + fc_plan), profile)
    assert main([
        "analyze", "--model", str(write_reference_model(tmp_path)), "--dataset", str(profile),
        "--out", str(tmp_path / "report.json"),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("CNN p-values: ") and captured.out.count("\n") == 1
    assert captured.err == "error: data: FC p-values need more than 5 records, got 3\n"


def test_expand_rejects_a_network_with_a_width_of_2_53_or_more(tmp_path, capsys):
    # float(2**53 + 1) is 2**53, which is not a multiple of 3, although the
    # width is: no routing may read such a width, so the loader refuses it
    root = Node(
        fit=leaf((0.0, 0.0, 0.0), 2.0).fit,
        condition=Condition(IN_CHANNEL, 3, ConditionKind.MULTIPLE),
        left=leaf((0.0, 0.0, 0.0), 1.0),
        right=leaf((0.0, 0.0, 0.0), 2.0),
    )
    model_path = tmp_path / "model.json"
    model_path.write_bytes(save_models({LayerKind.CNN: TimeModel(LayerKind.CNN, root)}))
    net_path = tmp_path / "net.json"
    # writers derive no size, so the file holds the width as given
    net_path.write_bytes(save_network(NetworkSpec((cnn(24, 24, 3, 3, 2**53 + 1, 8),))))
    out_path = tmp_path / "expanded.json"
    code = main(["expand", "--model", str(model_path), "--network", str(net_path),
                 "--out", str(out_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: data: {net_path}: malformed layer record: "
        "CNN config has a size too large for a float\n"
    )
    assert not out_path.exists()


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


def write_overflowing_model(tmp_path):
    """The default oracle, with finite CNN true-branch weights that overflow."""
    doc = json.loads(save_oracle(default_oracle()))
    cnn_doc = next(m for m in doc["models"] if m["layer_kind"] == "CNN")
    true_branch = cnn_doc["nodes"][1]
    assert true_branch["cond"] is None
    true_branch["w"] = [1e303, 0.0, 0.0]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def _assert_numeric_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numeric: ") and "non-finite" in captured.err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_prediction_exits_three(tmp_path, capsys):
    model_path = write_overflowing_model(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 44, 64))))
    assert main(["predict", "--model", str(model_path), "--config", str(config_path)]) == 3
    _assert_numeric_error(capsys)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_expansion_exits_three_and_writes_nothing(tmp_path, capsys):
    model_path = write_overflowing_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 44, 64)])
    out_path = tmp_path / "expanded.json"
    trace_path = tmp_path / "trace.json"
    code = main([
        "expand", "--model", str(model_path), "--network", str(net_path),
        "--out", str(out_path), "--trace", str(trace_path),
    ])
    assert code == 3
    _assert_numeric_error(capsys)
    assert not out_path.exists() and not trace_path.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("search", [[], ["--brute-force"]], ids=["greedy", "brute-force"])
def test_non_finite_compression_exits_three_and_writes_nothing(tmp_path, capsys, search):
    model_path = write_overflowing_model(tmp_path)
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 44, 64)])
    out_path = tmp_path / "compressed.json"
    code = main([
        "compress", "--model", str(model_path), "--network", str(net_path),
        "--lambda", "1.0", *search, "--out", str(out_path),
    ])
    assert code == 3
    _assert_numeric_error(capsys)
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv", [["expand"], ["compress"], ["compress", "--brute-force"]], ids=" ".join
)
def test_non_finite_network_total_exits_three_and_writes_nothing(tmp_path, capsys, argv):
    # every layer predicts a finite 1.5e308 ms, but two layers sum to inf
    doc = json.loads(save_oracle(default_oracle()))
    cnn_doc = next(m for m in doc["models"] if m["layer_kind"] == "CNN")
    for node in cnn_doc["nodes"]:
        node["b"] = 1.5e308
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 44, 64), cnn(24, 24, 3, 3, 64, 32)])
    out_path = tmp_path / "out.json"
    code = main([*argv, "--model", str(model_path), "--network", str(net_path),
                 "--out", str(out_path)])
    assert code == 3
    _assert_numeric_error(capsys)
    assert not out_path.exists()


@pytest.mark.parametrize("search", [[], ["--brute-force"]], ids=["greedy", "brute-force"])
def test_non_finite_objective_exits_three_and_writes_nothing(tmp_path, capsys, search):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(save_models(default_oracle().models))
    net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 44, 64)])
    out_path = tmp_path / "compressed.json"
    code = main(["compress", "--model", str(model_path), "--network", str(net_path),
                 "--lambda", "1e308", *search, "--out", str(out_path)])
    assert code == 3
    _assert_numeric_error(capsys)
    assert not out_path.exists()


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
    # the loader refuses the record, so the error names the file
    message = "CNN config has a size too large for a float"
    assert captured.err == f"error: data: {config_path}: {message}\n"


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


@pytest.mark.parametrize(
    "argv",
    [["plan", "--seed", "-1", "--out", "{out}"],
     ["fit", "--dataset", "profile.jsonl", "--seed", "-3", "--out", "{out}"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_a_usage_error(stage_dir, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(stage_dir)
    out_path = tmp_path / "out"
    assert main([a.format(out=out_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: usage: --seed must be >= 0\n"
    assert not out_path.exists()


_BAD_UTF8_ARGV = {
    "profile": (["fit", "--dataset", "{bad}", "--out", "{out}"], "profile.jsonl", ":2"),
    "plan": (["synth", "--plan", "{bad}", "--out", "{out}"], "plan.jsonl", ":2"),
    "config": (["predict", "--model", "model.json", "--config", "{bad}"], "layer.json", ""),
    "model": (["predict", "--model", "{bad}", "--config", "layer.json"], "model.json", ""),
    "network": (["expand", "--model", "model.json", "--network", "{bad}", "--out", "{out}"],
                "net.json", ""),
    "oracle": (["synth", "--plan", "plan.jsonl", "--oracle", "{bad}", "--out", "{out}"],
               "oracle.json", ""),
}


@pytest.mark.parametrize("reader", list(_BAD_UTF8_ARGV))
def test_invalid_utf8_is_a_data_error_at_its_location(stage_dir, tmp_path, monkeypatch, capsys,
                                                      reader):
    argv, source, suffix = _BAD_UTF8_ARGV[reader]
    lines = (stage_dir / source).read_bytes().splitlines(keepends=True)
    # a 0xff byte inside a string of the second line (the only line of a document)
    index = min(1, len(lines) - 1)
    lines[index] = lines[index].replace(b'"', b'"\xff', 1)
    bad = tmp_path / source
    bad.write_bytes(b"".join(lines))
    out_path = tmp_path / "out"
    monkeypatch.chdir(stage_dir)
    assert main([a.format(bad=bad, out=out_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: data: {bad}{suffix}: not valid UTF-8: ")
    assert captured.err.count("\n") == 1
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


_SUBCOMMAND_DATA_ERRORS = {
    "empty profile": (
        lambda tmp: ["fit", "--dataset", os.devnull, "--out", str(tmp / "out.json")],
        "profile contains no records",
    ),
    "no model for the kind": (
        lambda tmp: ["predict", "--model", str(write_reference_model(tmp)),
                     "--config", str(_write_config(tmp, fc(2, 1)))],
        "no model for layer kind FC",
    ),
    "region config not CNN": (
        lambda tmp: ["analyze", "--model", str(write_reference_model(tmp)),
                     "--config", str(_write_config(tmp, fc(2, 1))),
                     "--out", str(tmp / "out.json")],
        "region analysis needs a CNN config",
    ),
    "no CNN model": (
        lambda tmp: ["analyze", "--model", str(_write_fc_only_model(tmp)),
                     "--config", str(_write_config(tmp, cnn(24, 24, 3, 3, 8, 8))),
                     "--out", str(tmp / "out.json")],
        "no CNN model in the model file",
    ),
}


@pytest.mark.parametrize("case", list(_SUBCOMMAND_DATA_ERRORS))
def test_subcommand_data_errors_print_through_main(tmp_path, capsys, case):
    argv, message = _SUBCOMMAND_DATA_ERRORS[case]
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: data: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_multi_line_evaluator_stderr_is_one_error_line(tmp_path, capsys):
    script = tmp_path / "ev.py"
    script.write_text("import sys\nsys.stderr.write('first line\\nsecond line')\nsys.exit(1)\n")
    argv = [
        "compress", "--model", str(write_reference_model(tmp_path)),
        "--network", str(write_network(tmp_path, [cnn(24, 24, 3, 3, 8, 64)])),
        "--evaluator-cmd", f"{sys.executable} {script}", "--out", str(tmp_path / "c.json"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: data: evaluator exited with status 1: first line | second line\n"
    )


def test_path_with_a_line_break_is_one_error_line(tmp_path, capsys):
    model_path = tmp_path / "bad\nmodel.json"
    model_path.write_text("{}")
    argv = ["predict", "--model", str(model_path),
            "--config", str(_write_config(tmp_path, cnn(24, 24, 3, 3, 8, 8)))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {tmp_path}/bad | model.json: ")
    assert err.count("\n") == 1 and err.endswith("\n")


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


@pytest.mark.parametrize("stage", ["predict", "expand"])
def test_non_finite_result_prints_one_error_line(tmp_path, stage):
    # numpy's overflow warning must not precede the error line
    model_path = write_overflowing_model(tmp_path)
    out_path = tmp_path / "expanded.json"
    if stage == "predict":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 44, 64))))
        argv = ["predict", "--model", str(model_path), "--config", str(config_path)]
    else:
        net_path = write_network(tmp_path, [cnn(24, 24, 3, 3, 44, 64)])
        argv = ["expand", "--model", str(model_path), "--network", str(net_path),
                "--out", str(out_path)]
    result = subprocess.run(
        [sys.executable, "-m", "layertime.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: numeric: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert not out_path.exists()


# --- subcommand inputs shared by the import-footprint and call-site tests ------

_STAGE_ARGV = {
    "plan": ["plan", "--networks", "3", "--out", "plan-out.jsonl"],
    "synth": ["synth", "--plan", "plan.jsonl", "--out", "synth-out.jsonl"],
    "fit": ["fit", "--dataset", "profile.jsonl", "--out", "fit-out.json"],
    "predict": ["predict", "--model", "model.json", "--config", "layer.json"],
    "analyze": ["analyze", "--model", "model.json", "--dataset", "profile.jsonl",
                "--config", "layer.json", "--out", "report.json"],
    "expand": ["expand", "--model", "model.json", "--network", "net.json",
               "--out", "expanded.json"],
    "compress": ["compress", "--model", "model.json", "--network", "net.json",
                 "--out", "compressed.json"],
    "compress --brute-force": ["compress", "--model", "model.json", "--network", "net.json",
                               "--brute-force", "--out", "compressed.json"],
}


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    """A directory holding every input file the subcommands of ``_STAGE_ARGV`` read."""
    root = tmp_path_factory.mktemp("stages")
    plan = generate_plan(n_networks=12, seed=3)
    save_plan(plan, root / "plan.jsonl")
    write_profile(synth_profile(default_oracle(), plan), root / "profile.jsonl")
    write_reference_model(root)
    (root / "layer.json").write_text(json.dumps(config_to_dict(cnn(24, 24, 3, 3, 43, 64))))
    write_network(root, [cnn(24, 24, 3, 3, 43, 64)])
    (root / "oracle.json").write_bytes(save_oracle(default_oracle()))
    return root


_DEEP_JSON_ARGV = {
    "--model": ["predict", "--model", "{deep}", "--config", "layer.json"],
    "--config": ["predict", "--model", "model.json", "--config", "{deep}"],
    "--network": ["expand", "--model", "model.json", "--network", "{deep}", "--out", "{out}"],
    "--dataset": ["fit", "--dataset", "{deep}", "--out", "{out}"],
    "--oracle": ["synth", "--plan", "plan.jsonl", "--oracle", "{deep}", "--out", "{out}"],
    "--plan": ["synth", "--plan", "{deep}", "--out", "{out}"],
}


@pytest.mark.parametrize("error", [KeyError("kind"), TypeError("bad operand"), RecursionError()])
def test_any_other_exception_is_a_data_error(stage_dir, tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "fit_tree", fail)
    monkeypatch.chdir(stage_dir)
    out_path = tmp_path / "out.json"
    assert main(["fit", "--dataset", "profile.jsonl", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", list(_DEEP_JSON_ARGV))
def test_deeply_nested_json_is_a_data_error(stage_dir, tmp_path, monkeypatch, capsys, flag):
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 200_000)
    out_path = tmp_path / "out"
    monkeypatch.chdir(stage_dir)
    argv = [a.format(deep=deep_json, out=out_path) for a in _DEEP_JSON_ARGV[flag]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: ") and captured.err.count("\n") == 1
    if flag in ("--dataset", "--plan"):
        assert captured.err.startswith(f"error: data: {deep_json}:1: ")
    assert not out_path.exists()


@pytest.mark.parametrize("loader", ["oracle seed", "profile reps", "profile time_ms"])
def test_overflowing_number_is_a_data_error(tmp_path, capsys, loader):
    plan_path = tmp_path / "plan.jsonl"
    save_plan([fc(3, 5)], plan_path)
    bad = tmp_path / "bad.json"
    out = tmp_path / "out"
    record = '{"layer_type": "FC", "config": {"in_dim": 3, "out_dim": 5}, %s}\n'
    if loader == "oracle seed":
        oracle = save_oracle(default_oracle()).decode("utf-8")
        bad.write_text(oracle.replace('"seed": 1300', '"seed": 1e400'))
        argv = ["synth", "--plan", str(plan_path), "--oracle", str(bad), "--out", str(out)]
        prefix = f"error: data: {bad}: malformed oracle document: seed"
    elif loader == "profile reps":
        bad.write_text(record % '"time_ms": 1.0, "reps": 1e400')
        argv = ["fit", "--dataset", str(bad), "--out", str(out)]
        prefix = f"error: data: {bad}:1: reps"
    else:
        bad.write_text(record % f'"time_ms": 1{"0" * 400}')
        argv = ["fit", "--dataset", str(bad), "--out", str(out)]
        prefix = f"error: data: {bad}:1: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "version", ["9.0", None, 1, "1"], ids=["major 9", "missing", "number", "no minor"]
)
def test_network_document_is_version_checked(tmp_path, capsys, version):
    doc = json.loads(save_network(NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))))
    doc["format_version"] = "1.7"
    assert load_network(json.dumps(doc)) == NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    if version is None:
        del doc["format_version"]
    else:
        doc["format_version"] = version
    with pytest.raises(NetworkFormatError, match="format_version"):
        load_network(json.dumps(doc))
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc))
    out = tmp_path / "expanded.json"
    argv = ["expand", "--model", str(write_reference_model(tmp_path)),
            "--network", str(net_path), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: data: ")
    assert not out.exists()


def test_every_document_has_the_canonical_encoding(stage_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(stage_dir)
    expanded, trace, report = (tmp_path / n for n in ("expanded.json", "trace.json", "report.json"))
    assert main(["expand", "--model", "model.json", "--network", "net.json",
                 "--out", str(expanded), "--trace", str(trace)]) == 0
    assert main(["analyze", "--model", "model.json", "--config", "layer.json",
                 "--out", str(report)]) == 0
    for path in (stage_dir / "model.json", expanded, trace, report):
        data = path.read_bytes()
        assert data == json.dumps(json.loads(data), sort_keys=True, indent=1).encode("utf-8")
    doc = json.loads(report.read_bytes())
    assert doc["format_version"] == FORMAT_VERSION
    assert sorted(doc["regions"][0]["polynomial"]) == ["a", "b", "c", "d"]
    entry = json.loads(trace.read_bytes())["entries"][0]
    assert config_from_dict(entry["original"]) == cnn(24, 24, 3, 3, 43, 64)
    assert sorted(entry) == [
        "accepted", "expanded", "original", "reverted", "time_after", "time_before"
    ]


_FOOTPRINT_PROBE = """
import runpy, sys
sys.argv = ["layertime", *sys.argv[1:]]
try:
    runpy.run_module("layertime.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("footprint", code, *(m for m in ("harness", "steering", "analysis")
                           if "layertime." + m in sys.modules))
"""


@pytest.mark.parametrize(
    "stage, loaded",
    [
        ("--help", []),
        ("predict", []),
        ("plan", ["harness"]),
        ("synth", ["harness"]),
        ("fit", ["harness"]),
        ("analyze", ["harness", "analysis"]),
        ("expand", ["steering"]),
        ("compress", ["steering"]),
        ("compress --brute-force", ["steering"]),
    ],
)
def test_subcommand_loads_only_the_modules_it_runs(stage_dir, stage, loaded):
    argv = _STAGE_ARGV.get(stage, [stage])
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv], cwd=stage_dir,
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.splitlines()[-1].split() == ["footprint", "0", *loaded]


def test_package_import_loads_only_the_core():
    probe = (
        "import sys, layertime; "
        "print(*(m for m in ('harness', 'steering', 'analysis', 'cli') "
        "if 'layertime.' + m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == ""


@pytest.mark.parametrize(
    "name, module, stage",
    [
        ("fit_tree", "tree", "fit"),
        ("generate_plan", "harness", "plan"),
        ("synth_profile", "harness", "synth"),
        ("coefficient_pvalues", "analysis", "analyze"),
        ("expand_network", "steering", "expand"),
        ("network_time", "steering", "expand"),
        ("greedy_compress", "steering", "compress"),
        ("brute_force_compress", "steering", "compress --brute-force"),
    ],
)
def test_subcommands_call_through_their_cli_module_name(stage_dir, monkeypatch, capsys,
                                                        name, module, stage):
    # bench/tracer.py counts these calls by replacing layertime.cli.<name>
    real = getattr(importlib.import_module(f"layertime.{module}"), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    monkeypatch.chdir(stage_dir)
    assert main(_STAGE_ARGV[stage]) == 0
    assert calls
