"""Layer expansion, network expansion, padding plans, and compression search."""

import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    B_FALSE,
    B_TRUE,
    IN_CHANNEL,
    W_FALSE,
    W_TRUE,
    leaf,
    random_config,
    random_tree_model,
    two_leaf_channel_model,
    widest,
)
from layertime.harness import default_oracle
from layertime.layers import (
    LayerKind,
    StructureConfig,
    _split_row,
    cnn,
    derive_explanatory,
    derive_features,
    fc,
    feature_names,
    gru,
    lstm,
    width_fields,
)
from layertime import cli, steering
from layertime.nnls import NumericError
from layertime.steering import (
    AcceptedExpansion,
    CommandEvaluator,
    ConflictResolution,
    EvaluationError,
    ExpansionTrace,
    NetworkFormatError,
    NetworkSpec,
    brute_force_compress,
    expand_layer,
    expand_network,
    greedy_compress,
    load_network,
    network_from_dict,
    network_time,
    network_to_dict,
    rnn_time_floor,
    save_network,
    time_aware_objective,
    zero_pad_plan,
)
from layertime.tree import (
    Condition,
    ConditionKind,
    Dataset,
    FitParams,
    LinearFit,
    Node,
    TimeModel,
    fit_tree,
)

MULTIPLE = ConditionKind.MULTIPLE
RANGE = ConditionKind.RANGE


# --- expand_layer --------------------------------------------------------------


def test_reference_expansion_43_to_44(reference_model):
    config = cnn(24, 24, 3, 3, 43, 64)
    expanded, entry = expand_layer(reference_model, config)
    assert expanded == cnn(24, 24, 3, 3, 44, 64)
    assert entry.time_before == pytest.approx(16.0, abs=0.1)
    assert entry.time_after == pytest.approx(10.3, abs=0.1)
    assert entry.time_after < entry.time_before
    assert [a.feature for a in entry.accepted] == ["in_channel"]
    assert entry.accepted[0].tau == 4


def test_config_on_multiples_is_unchanged(reference_model):
    config = cnn(24, 24, 3, 3, 44, 64)
    expanded, entry = expand_layer(reference_model, config)
    assert expanded == config
    assert entry.accepted == ()


def test_costly_true_branch_rejects_expansion():
    root = Node(
        fit=leaf(W_FALSE, B_FALSE).fit,
        condition=Condition(IN_CHANNEL, 4, MULTIPLE),
        left=leaf(W_TRUE, 500.0),  # huge intercept on the true branch
        right=leaf(W_FALSE, B_FALSE),
    )
    model = TimeModel(kind=LayerKind.CNN, root=root)
    config = cnn(24, 24, 3, 3, 43, 64)
    expanded, entry = expand_layer(model, config)
    assert expanded == config
    assert entry.accepted == ()
    assert entry.time_after == entry.time_before


def test_expansion_respects_recorded_range_conditions():
    inner = Node(
        fit=leaf(W_FALSE, B_FALSE).fit,
        condition=Condition(IN_CHANNEL, 4, MULTIPLE),
        left=leaf(W_TRUE, B_TRUE),
        right=leaf(W_FALSE, B_FALSE),
    )
    root = Node(
        fit=leaf(W_FALSE, B_FALSE).fit,
        condition=Condition(IN_CHANNEL, 43.5, RANGE),
        left=inner,
        right=leaf(W_FALSE, 2 * B_FALSE),
    )
    model = TimeModel(kind=LayerKind.CNN, root=root)
    config = cnn(24, 24, 3, 3, 43, 64)
    expanded, entry = expand_layer(model, config)
    # rounding 43 up to 44 would cross the recorded range boundary
    assert expanded == config
    assert entry.accepted == ()


def test_expansion_capped_at_twice_the_original():
    root = Node(
        fit=leaf(W_FALSE, B_FALSE).fit,
        condition=Condition(IN_CHANNEL, 128, MULTIPLE),
        left=leaf(W_TRUE, 0.0),
        right=leaf(W_FALSE, B_FALSE),
    )
    model = TimeModel(kind=LayerKind.CNN, root=root)
    config = cnn(24, 24, 3, 3, 3, 64)  # 128 is far beyond 2 x 3
    expanded, _ = expand_layer(model, config)
    assert expanded == config


def test_non_width_features_never_expanded():
    from layertime.layers import feature_names

    mem_in = feature_names(LayerKind.CNN).index("mem_in")
    root = Node(
        fit=leaf(W_FALSE, B_FALSE).fit,
        condition=Condition(mem_in, 7, MULTIPLE),
        left=leaf(W_TRUE, 0.0),
        right=leaf(W_FALSE, B_FALSE),
    )
    model = TimeModel(kind=LayerKind.CNN, root=root)
    config = cnn(24, 24, 3, 3, 43, 64)
    expanded, entry = expand_layer(model, config)
    assert expanded == config
    assert entry.accepted == ()


def test_kind_mismatch_rejected(reference_model):
    with pytest.raises(ValueError):
        expand_layer(reference_model, fc(3, 5))


def test_kind_mismatch_names_both_kinds(reference_model):
    with pytest.raises(ValueError, match="^model fits CNN layers, got FC$"):
        expand_layer(reference_model, fc(3, 4))


@pytest.mark.parametrize(
    "kind,seed", [(LayerKind.CNN, 11), (LayerKind.FC, 22), (LayerKind.GRU, 33)]
)
def test_expansion_properties_on_random_trees(kind, seed):
    rng = np.random.default_rng(seed)
    widths = (
        ("in_channel", "out_channel") if kind is LayerKind.CNN else ("in_dim", "out_dim")
    )
    for _ in range(40):
        model = random_tree_model(rng, kind=kind)
        config = random_config(rng, kind)
        expanded, entry = expand_layer(model, config)
        # predicted time never increases (exact comparison)
        assert model.predict(expanded) <= model.predict(config)
        # structural coordinates never shrink
        for name in widths:
            assert getattr(expanded, name) >= getattr(config, name)
            assert getattr(expanded, name) <= 2 * getattr(config, name)
        # expansion is idempotent (exact equality)
        again, _ = expand_layer(model, expanded)
        assert again == expanded


# --- expand_network --------------------------------------------------------------


def test_single_layer_network_matches_expand_layer(reference_model):
    config = cnn(24, 24, 3, 3, 43, 64)
    net = NetworkSpec((config,))
    models = {LayerKind.CNN: reference_model}
    expanded_net, trace = expand_network(models, net)
    expanded_layer, _ = expand_layer(reference_model, config)
    assert expanded_net.layers == (expanded_layer,)
    assert len(trace.entries) == 1


def test_empty_network_unchanged(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec(())
    expanded, trace = expand_network(models, net)
    assert expanded.layers == ()
    assert network_time(models, expanded) == 0.0


def test_conflict_resolved_by_total_time(reference_model):
    models = {LayerKind.CNN: reference_model}
    first = cnn(24, 24, 3, 3, 8, 43)
    second = cnn(24, 24, 3, 3, 43, 64)
    net = NetworkSpec((first, second))
    expanded, trace = expand_network(models, net)
    # the downstream layer rounds its input channels 43 -> 44, clashing with
    # the upstream output width that stayed at 43
    assert trace.conflicts and trace.conflicts[0].junction == 0
    conflict = trace.conflicts[0]
    assert {conflict.upstream_width, conflict.downstream_width} == {43, 44}
    chosen_time = min(conflict.time_with_upstream, conflict.time_with_downstream)
    assert network_time(models, expanded) == pytest.approx(chosen_time)
    # result is consistent and no slower than the input
    out_w = expanded.layers[0].out_channel
    assert out_w == expanded.layers[1].in_channel
    assert network_time(models, expanded) <= network_time(models, net)


def test_network_expansion_never_slower_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(20):
        model = random_tree_model(rng, kind=LayerKind.CNN)
        width = int(rng.integers(1, 200))
        layers = []
        for i in range(3):
            nxt = int(rng.integers(1, 200))
            layers.append(cnn(24, 24, 3, 3, width, nxt))
            width = nxt
        net = NetworkSpec(tuple(layers))
        models = {LayerKind.CNN: model}
        expanded, _ = expand_network(models, net)
        NetworkSpec(expanded.layers)  # adjacency re-validated
        assert network_time(models, expanded) <= network_time(models, net)


def default_oracle_chain():
    """The default oracle's models and a 64-layer 24x24 CNN chain of random widths."""
    rng = np.random.default_rng(4)
    widths = [int(w) for w in rng.integers(4, 129, size=65)]
    net = NetworkSpec(tuple(cnn(24, 24, 3, 3, widths[i], widths[i + 1]) for i in range(64)))
    return dict(default_oracle().models), net


def test_long_chain_prices_each_layer_once(monkeypatch):
    models, net = default_oracle_chain()
    derived, priced = [], []
    row, price = TimeModel._row, TimeModel._price_row

    def counting_row(self, config):
        derived.append(config)
        return row(self, config)

    def counting_price(self, features, explanatory):
        priced.append(features)
        return price(self, features, explanatory)

    monkeypatch.setattr(TimeModel, "_row", counting_row)
    monkeypatch.setattr(TimeModel, "_price_row", counting_price)
    _, trace = expand_network(models, net)
    assert len(trace.conflicts) == 48
    changed = sum(e.expanded != e.original or e.reverted for e in trace.entries)
    assert changed == 49
    # each layer's input is derived once, then each conflict option's re-priced layer
    assert len(derived) == len(net) + 2 * len(trace.conflicts)
    # one price per layer, one more per changed or reverted layer, and one
    # per conflict option
    assert len(priced) == len(net) + changed + 2 * len(trace.conflicts) == 209


def test_long_chain_total_is_the_last_conflicts_choice():
    models, net = default_oracle_chain()
    expanded, trace = expand_network(models, net)
    assert not trace.reverted and expanded != net
    last = trace.conflicts[-1]
    chosen = last.time_with_downstream if last.kept == "downstream" else last.time_with_upstream
    assert network_time(models, expanded) == chosen


def test_missing_model_is_an_error(reference_model):
    net = NetworkSpec((fc(3, 5),))
    with pytest.raises(ValueError, match="no model"):
        expand_network({LayerKind.CNN: reference_model}, net)


def test_network_spec_validates_adjacency():
    with pytest.raises(ValueError, match="shared width"):
        NetworkSpec((cnn(24, 24, 3, 3, 3, 8), cnn(24, 24, 3, 3, 9, 16)))
    # mixed families are not width-coupled
    NetworkSpec((cnn(24, 24, 3, 3, 3, 8), fc(100, 10)))


# --- network files and evaluators ---------------------------------------------------


@pytest.mark.parametrize(
    "link",
    [
        {"src": 0, "dst": 1, "field": "bogus"},
        {"src": 0, "dst": 2, "field": "out_channel->in_channel"},
        {"src": 1, "dst": 2, "field": "out_channel->in_dim"},
    ],
    ids=["bogus field", "non-adjacent", "uncoupled kinds"],
)
def test_network_links_must_match_layer_order(link):
    net = NetworkSpec((cnn(24, 24, 3, 3, 3, 8), cnn(24, 24, 3, 3, 8, 16), fc(100, 10)))
    payload = save_network(net)
    assert load_network(payload) == net
    doc = json.loads(payload)
    assert doc["links"] == [{"src": 0, "dst": 1, "field": "out_channel->in_channel"}]
    doc["links"].append(link)
    with pytest.raises(NetworkFormatError):
        load_network(json.dumps(doc))


def test_evaluator_timeout_kills_child_and_removes_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(steering, "_EVALUATOR_TIMEOUT_S", 1.0)
    record = tmp_path / "child.txt"
    script = (
        "import os, sys, time; "
        f"open({str(record)!r}, 'w').write(f'{{os.getpid()}} {{sys.argv[1]}}'); "
        "time.sleep(60)"
    )
    evaluator = CommandEvaluator([sys.executable, "-c", script])
    with pytest.raises(EvaluationError, match="did not finish"):
        evaluator(NetworkSpec((fc(3, 5),)))
    pid, network_path = record.read_text().split(" ", 1)
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)
    assert not os.path.exists(os.path.dirname(network_path))


# --- zero_pad_plan ----------------------------------------------------------------


def materialize(embed):
    """Fill destination cells block by block; returns (copied mask, source count)."""
    dst = np.zeros(embed.new_shape, dtype=bool)
    src_cells = 0
    for src_ranges, dst_ranges in embed.blocks:
        src_extent = [stop - start for start, stop in src_ranges]
        dst_slices = tuple(slice(start, stop) for start, stop in dst_ranges)
        dst_extent = [s.stop - s.start for s in dst_slices]
        assert src_extent == dst_extent
        assert not dst[dst_slices].any()  # destination blocks are disjoint
        dst[dst_slices] = True
        src_cells += int(np.prod(src_extent))
    return dst, src_cells


def test_identical_networks_have_empty_plan():
    net = NetworkSpec((fc(3, 5), fc(5, 7)))
    assert zero_pad_plan(net, net) == ()


def test_fc_row_embedding():
    old = NetworkSpec((fc(3, 5),))
    new = NetworkSpec((fc(4, 5),))
    (plan,) = zero_pad_plan(old, new)
    weight = next(t for t in plan.tensors if t.name == "weight")
    assert weight.old_shape == (3, 5) and weight.new_shape == (4, 5)
    assert weight.blocks == ((((0, 3), (0, 5)), ((0, 3), (0, 5))),)
    mask, copied = materialize(weight)
    assert copied == 15
    assert mask[:3, :].all() and not mask[3, :].any()  # row 3 stays zero


def test_cnn_channel_embedding():
    old = NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    new = NetworkSpec((cnn(24, 24, 3, 3, 44, 64),))
    (plan,) = zero_pad_plan(old, new)
    weight = next(t for t in plan.tensors if t.name == "weight")
    assert weight.old_shape == (3, 3, 43, 64)
    assert weight.new_shape == (3, 3, 44, 64)
    mask, copied = materialize(weight)
    assert copied == 3 * 3 * 43 * 64
    assert not mask[:, :, 43, :].any()  # the new input-channel slice stays zero


@pytest.mark.parametrize("factory,gates", [(gru, 3), (lstm, 4)])
def test_recurrent_gate_blocks(factory, gates):
    old = NetworkSpec((factory(4, 6, 10),))
    new = NetworkSpec((factory(5, 8, 10),))
    (plan,) = zero_pad_plan(old, new)
    weight = next(t for t in plan.tensors if t.name == "weight")
    assert weight.old_shape == (10, gates * 6)
    assert weight.new_shape == (13, gates * 8)
    mask, copied = materialize(weight)
    assert copied == 10 * gates * 6  # every old cell lands exactly once
    bias = next(t for t in plan.tensors if t.name == "bias")
    bias_mask, bias_copied = materialize(bias)
    assert bias_copied == gates * 6
    # each gate block starts at its new offset
    for g in range(gates):
        assert bias_mask[g * 8 : g * 8 + 6].all()
        assert not bias_mask[g * 8 + 6 : (g + 1) * 8].any()


def test_shrinking_plan_is_an_error():
    with pytest.raises(ValueError, match="shrinks"):
        zero_pad_plan(NetworkSpec((fc(4, 5),)), NetworkSpec((fc(3, 5),)))


def test_non_width_change_is_an_error():
    old = NetworkSpec((cnn(24, 24, 3, 3, 4, 4),))
    new = NetworkSpec((cnn(24, 24, 5, 5, 4, 4),))
    with pytest.raises(ValueError, match="non-width"):
        zero_pad_plan(old, new)


# --- network time and objective ----------------------------------------------------


def test_network_time_empty_and_single(reference_model):
    models = {LayerKind.CNN: reference_model}
    assert network_time(models, NetworkSpec(())) == 0.0
    config = cnn(24, 24, 3, 3, 43, 64)
    assert network_time(models, NetworkSpec((config,))) == reference_model.predict(config)


def test_network_time_is_order_free(reference_model):
    fc_model = TimeModel(kind=LayerKind.FC, root=leaf((1e-6, 0.0, 0.0), 0.5))
    models = {LayerKind.CNN: reference_model, LayerKind.FC: fc_model}
    a = cnn(24, 24, 3, 3, 43, 64)
    b = fc(100, 10)
    assert network_time(models, NetworkSpec((a, b))) == pytest.approx(
        network_time(models, NetworkSpec((b, a)))
    )


def test_time_aware_objective_reductions(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    loss = lambda _: 7.5
    assert time_aware_objective(loss, models, net, 0.0) == 7.5
    zero = lambda _: 0.0
    t = network_time(models, net)
    assert time_aware_objective(zero, models, net, 2.0) == pytest.approx(2.0 * t)
    assert time_aware_objective(loss, models, net, 2.0) - time_aware_objective(
        loss, models, net, 1.0
    ) == pytest.approx(t)
    with pytest.raises(ValueError):
        time_aware_objective(loss, models, net, -1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_compression_rejects_bad_lambda(reference_model, lam):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    zero = lambda _: 0.0
    with pytest.raises(ValueError, match="lam"):
        time_aware_objective(zero, models, net, lam)
    with pytest.raises(ValueError, match="lam"):
        greedy_compress(zero, models, net, lam, [[32, 64]])
    with pytest.raises(ValueError, match="lam"):
        brute_force_compress(zero, models, net, lam, [[32, 64]])


@pytest.mark.parametrize(
    "lam, grid",
    [(True, [[32, 64]]), ("1", [[32, 64]]), (1.0, [[2.7]]), (1.0, [[True]]), (1.0, [["8"]]),
     (1.0, [[0, 8]])],
    ids=repr,
)
def test_compression_arguments_follow_the_number_and_integer_rules(reference_model, lam, grid):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    for search in (greedy_compress, brute_force_compress):
        with pytest.raises(ValueError, match="^(lam|layer 0 grid width) must be"):
            search(lambda _: 0.0, models, net, lam, grid)


@pytest.mark.parametrize("src, dst", [(False, 1), (0.0, 1), (0, True), (0, 1.0)], ids=repr)
def test_network_link_ids_are_exact_integers(src, dst):
    net = NetworkSpec((cnn(24, 24, 3, 3, 3, 8), cnn(24, 24, 3, 3, 8, 16)))
    doc = json.loads(save_network(net))
    doc["links"][0].update(src=src, dst=dst)
    with pytest.raises(NetworkFormatError, match="does not join"):
        load_network(json.dumps(doc))


def test_network_layers_must_be_a_list():
    with pytest.raises(NetworkFormatError, match="'layers' list"):
        load_network('{"format_version": "1.0", "layers": {}}')


def test_network_time_raises_on_a_non_finite_total():
    huge = TimeModel(kind=LayerKind.FC, root=leaf((0.0, 0.0, 0.0), 1.5e308))
    net = NetworkSpec((fc(4, 4), fc(4, 4)))
    assert network_time({LayerKind.FC: huge}, NetworkSpec((fc(4, 4),))) == 1.5e308
    with pytest.raises(NumericError, match="non-finite total"):
        network_time({LayerKind.FC: huge}, net)


def _objectives(models, net, lam, loss):
    """The public objective and the search's, each as a thunk."""
    return {
        "time_aware_objective": lambda: time_aware_objective(lambda _: loss, models, net, lam),
        "search": lambda: steering._Objective(lambda _: loss, models, lam, budget=1)(net),
        "greedy": lambda: greedy_compress(lambda _: loss, models, net, lam, [[64]]),
    }


@pytest.mark.parametrize("which", ["time_aware_objective", "search", "greedy"])
def test_an_overflowing_objective_is_a_numeric_error(which):
    models = dict(default_oracle().models)
    net = NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    # every layer time is finite; lam times the total is not
    assert math.isfinite(network_time(models, net))
    with pytest.raises(NumericError, match="compression objective is non-finite"):
        _objectives(models, net, 1e308, 1.0)[which]()


@pytest.mark.parametrize("which", ["time_aware_objective", "search", "greedy"])
@pytest.mark.parametrize("loss", [float("nan"), -5.0, float("inf")], ids=repr)
def test_an_invalid_loss_is_an_evaluation_error(which, loss):
    models = dict(default_oracle().models)
    net = NetworkSpec((cnn(24, 24, 3, 3, 43, 64),))
    with pytest.raises(EvaluationError, match="invalid loss"):
        _objectives(models, net, 1.0, loss)[which]()


def test_the_objectives_score_alike(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 43), cnn(24, 24, 3, 3, 43, 64)))
    search = steering._Objective(lambda _: 2.5, models, 0.3, budget=1)
    assert time_aware_objective(lambda _: 2.5, models, net, 0.3) == search(net)
    assert search(net) == 2.5 + 0.3 * network_time(models, net)


# --- compression search --------------------------------------------------------------


def width_loss(weights):
    """Deterministic loss that rewards wider layers (an accuracy stand-in)."""

    def evaluator(net):
        return sum(
            w / max(getattr(layer, "out_channel", None) or layer.out_dim, 1)
            for w, layer in zip(weights, net.layers)
        )

    return evaluator


def three_layer_instance(seed):
    rng = np.random.default_rng(seed)
    model = random_tree_model(rng, kind=LayerKind.CNN)
    widths = [int(rng.integers(4, 65)) for _ in range(4)]
    layers = tuple(
        cnn(24, 24, 3, 3, widths[i], widths[i + 1]) for i in range(3)
    )
    net = NetworkSpec(layers)
    # every grid offers "keep the original width" plus four alternatives
    grids = [
        sorted({widths[i + 1], *rng.choice(np.arange(4, 65), size=4, replace=False).tolist()})
        for i in range(3)
    ]
    evaluator = width_loss(rng.uniform(5.0, 50.0, size=3))
    return {LayerKind.CNN: model}, net, grids, evaluator


def test_single_layer_pure_time_minimization(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    zero = lambda _: 0.0
    result = greedy_compress(zero, models, net, lam=1.0, width_grid=[[4, 8, 16]])
    times = {
        w: reference_model.predict(cnn(24, 24, 3, 3, 8, w)) for w in (4, 8, 16)
    }
    assert result.layers[0].out_channel == min(times, key=times.get)


def test_greedy_never_worsens_the_objective():
    for seed in range(5):
        models, net, grids, evaluator = three_layer_instance(seed)
        lam = 1.0
        before = time_aware_objective(evaluator, models, net, lam)
        compressed = greedy_compress(evaluator, models, net, lam, grids)
        after = time_aware_objective(evaluator, models, compressed, lam)
        assert after <= before + 1e-9


def test_brute_force_dominates_greedy():
    for seed in range(5):
        models, net, grids, evaluator = three_layer_instance(seed + 100)
        lam = 1.0
        greedy = greedy_compress(evaluator, models, net, lam, grids)
        brute = brute_force_compress(evaluator, models, net, lam, grids)
        greedy_obj = time_aware_objective(evaluator, models, greedy, lam)
        brute_obj = time_aware_objective(evaluator, models, brute, lam)
        assert brute_obj <= greedy_obj + 1e-9


def test_brute_force_lambda_monotonicity():
    models, net, grids, evaluator = three_layer_instance(7)
    times = []
    for lam in (0.0, 0.1, 1.0, 10.0):
        best = brute_force_compress(evaluator, models, net, lam, grids)
        times.append(network_time(models, best))
    assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))


def test_budget_limits_evaluator_calls(reference_model):
    calls = []

    def counting(net):
        calls.append(1)
        return 0.0

    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    greedy_compress(counting, models, net, lam=1.0, width_grid=[[4, 8, 16, 32]], budget=2)
    assert len(calls) <= 2


@pytest.mark.parametrize("budget", [0, -4, 0.5, True, float("nan")])
def test_budget_below_one_is_an_error(reference_model, budget):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    with pytest.raises(ValueError, match="budget"):
        greedy_compress(lambda _: 0.0, models, net, 1.0, [[4, 8, 16]], budget=budget)


def test_empty_grid_is_an_error(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    with pytest.raises(ValueError, match="empty width grid"):
        greedy_compress(lambda _: 0.0, models, net, 1.0, [[]])


def test_brute_force_guards_search_space(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    with pytest.raises(ValueError, match="too large"):
        brute_force_compress(
            lambda _: 0.0, models, net, 1.0, [list(range(1, 1_000_002))]
        )


def test_single_candidate_returned_as_is(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    result = brute_force_compress(lambda _: 0.0, models, net, 1.0, [[16]])
    assert result.layers[0].out_channel == 16


def test_lambda_zero_minimizes_loss_alone(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16),))
    evaluator = width_loss([10.0])
    result = brute_force_compress(evaluator, models, net, 0.0, [[4, 8, 16]])
    assert result.layers[0].out_channel == 16  # widest wins when time is free


# --- brute force against the per-candidate reference -----------------------------------


def reference_expand_network(model_map, net):
    """Reference expansion: per-layer expansion, then the conflict pass inline, priced by the models."""
    entries = [expand_layer(model_map[layer.kind], layer)[1] for layer in net.layers]
    configs = [entry.expanded for entry in entries]
    times = [entry.time_after for entry in entries]
    conflicts = []
    for i, out_field, in_field in steering._shared_widths(configs):
        upstream = getattr(configs[i], out_field)
        downstream = getattr(configs[i + 1], in_field)
        if upstream == downstream:
            continue
        options, totals = {}, {}
        for name, j, changes in (
            ("upstream", i + 1, {in_field: upstream}),
            ("downstream", i, {out_field: downstream}),
        ):
            option_configs, option_times = list(configs), list(times)
            option_configs[j] = dataclasses.replace(configs[j], **changes)
            option_times[j] = model_map[configs[j].kind].predict(option_configs[j])
            options[name] = (option_configs, option_times)
            totals[name] = sum(option_times)
        kept = "downstream" if totals["downstream"] < totals["upstream"] else "upstream"
        configs, times = options[kept]
        conflicts.append(ConflictResolution(i, upstream, downstream,
                                            totals["upstream"], totals["downstream"], kept))
    reverted = sum(times) > sum(entry.time_before for entry in entries)
    trace = ExpansionTrace(tuple(entries), tuple(conflicts), reverted)
    return (net if reverted else NetworkSpec(tuple(configs))), trace


def reference_brute_force(evaluator, model_map, net, lam, grids):
    """Expand and score every ``_apply_widths`` candidate; strict ``<`` keeps the first best."""
    scores = {}
    best = None
    for widths in itertools.product(*grids):
        expanded, _ = reference_expand_network(model_map, steering._apply_widths(net, widths))
        if expanded not in scores:
            scores[expanded] = float(evaluator(expanded)) + lam * network_time(model_map, expanded)
        if best is None or scores[expanded] < best[0]:
            best = (scores[expanded], expanded)
    return best[1]


def _layer(rng, kind, in_width, out_width):
    if kind is LayerKind.CNN:
        extent = int(rng.choice([8, 12, 24]))
        kernel = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        return cnn(extent, extent, kernel, kernel, in_width, out_width, stride=stride)
    if kind is LayerKind.FC:
        return fc(in_width, out_width)
    return (gru if kind is LayerKind.GRU else lstm)(in_width, out_width, int(rng.choice([4, 8])))


def mixed_compression_instance(kinds, seed):
    """A net of the given kinds (coupled and uncoupled junctions), random trees and grids."""
    rng = np.random.default_rng(seed)
    models = {kind: random_tree_model(rng, kind=kind) for kind in dict.fromkeys(kinds)}
    layers, width = [], int(rng.integers(1, 49))
    for i, kind in enumerate(kinds):
        if i and not steering._coupled_kinds(kinds[i - 1], kind):
            width = int(rng.integers(1, 49))
        out_width = int(rng.integers(1, 49))
        layers.append(_layer(rng, kind, width, out_width))
        width = out_width
    grids = [
        sorted({int(w) for w in rng.integers(1, 49, size=int(rng.integers(1, 4)))})
        for _ in kinds
    ]
    return models, NetworkSpec(tuple(layers)), grids, rng.uniform(5.0, 50.0, size=len(kinds))


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(list(LayerKind)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
    loss_scale=st.sampled_from([0.0, 1.0]),
)
def test_brute_force_matches_the_per_candidate_reference(kinds, seed, lam, loss_scale):
    # a zero loss at lam 0 ties every candidate, so the first one must win
    models, net, grids, weights = mixed_compression_instance(kinds, seed)
    weights = loss_scale * weights
    calls = {"table": [], "reference": []}

    def loss(name):
        def evaluator(network):
            calls[name].append(network)
            return width_loss(weights)(network)

        return evaluator

    result = brute_force_compress(loss("table"), models, net, lam, grids)
    expected = reference_brute_force(loss("reference"), models, net, lam, grids)
    assert save_network(result) == save_network(expected)
    assert calls["table"] == calls["reference"]


class _Spent(Exception):
    pass


def reference_apply_widths(net, widths):
    """Every layer's output width set, and each shared next input repaired."""
    layers = list(net.layers)
    for i, width in enumerate(widths):
        out_field = width_fields(layers[i].kind)[1]
        layers[i] = dataclasses.replace(layers[i], **{out_field: int(width)})
        if i + 1 < len(layers) and steering._coupled_kinds(layers[i].kind, layers[i + 1].kind):
            in_field = width_fields(layers[i + 1].kind)[0]
            layers[i + 1] = dataclasses.replace(layers[i + 1], **{in_field: int(width)})
    return NetworkSpec(tuple(layers))


def reference_greedy(evaluator, model_map, net, lam, grids, budget):
    """Coordinate descent that rebuilds every layer of every candidate move."""
    scores = {}

    def score(candidate):
        if candidate not in scores:
            if len(scores) >= budget:
                raise _Spent
            scores[candidate] = float(evaluator(candidate)) + lam * network_time(model_map, candidate)
        return scores[candidate]

    current = net
    try:
        best = score(current)
        while True:
            widths = steering._current_widths(current)
            move = None
            for i, grid in enumerate(grids):
                for width in grid:
                    if width == widths[i]:
                        continue
                    candidate = reference_apply_widths(current, widths[:i] + [width] + widths[i + 1:])
                    value = score(candidate)
                    if value < best and (move is None or value < move[0]):
                        move = (value, candidate)
            if move is None:
                break
            best, current = move
        expanded, _ = reference_expand_network(model_map, current)
        if expanded != current and score(expanded) <= best:
            current = expanded
    except _Spent:
        pass
    return current


CNN, FC, GRU, LSTM = LayerKind.CNN, LayerKind.FC, LayerKind.GRU, LayerKind.LSTM


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(list(LayerKind)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_apply_widths_matches_the_full_rebuild(kinds, seed, data):
    _, net, grids, _ = mixed_compression_instance(kinds, seed)
    widths = [data.draw(st.sampled_from([*grid, 1, 48])) for grid in grids]
    assert steering._apply_widths(net, widths) == reference_apply_widths(net, widths)


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(list(LayerKind)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
    budget=st.one_of(st.integers(1, 12), st.just(1000)),
)
@example(kinds=[CNN, CNN, CNN], seed=3, lam=1.0, budget=1000)
@example(kinds=[CNN, CNN], seed=5, lam=0.1, budget=4)
@example(kinds=[FC, GRU], seed=7, lam=1.0, budget=1000)
@example(kinds=[FC, GRU, GRU], seed=11, lam=10.0, budget=6)
@example(kinds=[CNN, FC], seed=13, lam=1.0, budget=1000)
@example(kinds=[CNN, FC, GRU], seed=17, lam=0.1, budget=3)
def test_greedy_matches_the_apply_widths_reference(kinds, seed, lam, budget):
    models, net, grids, weights = mixed_compression_instance(kinds, seed)
    # wider grids than brute force gets, so the descent takes several moves
    rng = np.random.default_rng(seed)
    grids = [sorted({*grid, *(int(w) for w in rng.integers(1, 49, size=3))}) for grid in grids]
    calls = {"moves": [], "reference": []}

    def loss(name):
        def evaluator(network):
            calls[name].append(network)
            return width_loss(weights)(network)

        return evaluator

    result = greedy_compress(loss("moves"), models, net, lam, grids, budget=budget)
    expected = reference_greedy(loss("reference"), models, net, lam, grids, budget)
    assert save_network(result) == save_network(expected)
    assert calls["moves"] == calls["reference"]
    assert len(calls["moves"]) <= budget


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "kinds",
    [[CNN, CNN, CNN], [FC, GRU], [CNN, FC], [FC, FC, LSTM]],
    ids=lambda kinds: "-".join(kind.value for kind in kinds),
)
def test_brute_force_prices_no_table_config_again(monkeypatch, kinds, seed):
    # expand_layer prices both ends of each table entry, an unchanged one
    # once; the objective reuses those prices and predicts every other config once
    models, net, grids, weights = mixed_compression_instance(kinds, seed)
    predicted, entries, inside = [], [], []
    predict, price, expand = TimeModel.predict, TimeModel._price_row, steering.expand_layer

    def counting_predict(self, config):
        assert not inside
        predicted.append(config)
        return predict(self, config)

    def counting_price(self, features, explanatory):
        if inside:
            inside[-1].append(features)
        return price(self, features, explanatory)

    def recording_expand(model, config):
        inside.append([])
        result = expand(model, config)
        prices, entry = inside.pop(), result[1]
        changed = entry.expanded != entry.original or entry.reverted
        assert prices[0] == _split_row(entry.original)[0] and len(prices) == 1 + changed
        entries.append(entry)
        return result

    monkeypatch.setattr(TimeModel, "predict", counting_predict)
    monkeypatch.setattr(TimeModel, "_price_row", counting_price)
    monkeypatch.setattr(steering, "expand_layer", recording_expand)
    brute_force_compress(width_loss(weights), models, net, 1.0, grids)
    table_sizes = [
        len(grid) * (len(grids[i - 1]) if i and steering._coupled_kinds(kinds[i - 1], kind) else 1)
        for i, (kind, grid) in enumerate(zip(kinds, grids))
    ]
    assert len(entries) == sum(table_sizes)
    table_configs = {c for entry in entries for c in (entry.original, entry.expanded)}
    assert len(predicted) == len(set(predicted))
    assert not table_configs & set(predicted)


def reverting_fc_model():
    """FC tree whose junction conflict on fc(5, 13) -> fc(13, 1) costs more than no expansion.

    Each layer alone expands (out 13 -> 15 under ``out_dim % 3``, in 13 -> 16
    under ``in_dim % 4``), but either consistent choice re-prices the other
    layer onto the expensive leaf: 372 and 385 against 370 unexpanded.
    """
    flops = (1.0, 0.0, 0.0)
    inner = Node(fit=leaf(flops, 100.0).fit, condition=Condition(0, 4, MULTIPLE),
                 left=leaf(flops, 76.0), right=leaf(flops, 100.0))
    root = Node(fit=leaf(flops, 100.0).fit, condition=Condition(1, 3, MULTIPLE),
                left=leaf(flops, 76.0), right=inner)
    return {LayerKind.FC: TimeModel(kind=LayerKind.FC, root=root)}


def test_brute_force_keeps_a_reverted_candidate_unexpanded():
    models = reverting_fc_model()
    net = NetworkSpec((fc(5, 13), fc(13, 1)))
    expanded, trace = expand_network(models, net)
    assert trace.reverted and expanded is net
    conflict = trace.conflicts[0]
    assert (conflict.time_with_upstream, conflict.time_with_downstream) == (372.0, 385.0)
    assert save_network(expanded) == save_network(reference_expand_network(models, net)[0])
    grids = [[12, 13], [1, 2]]
    calls = {"table": [], "reference": []}

    def loss(name):
        def evaluator(network):
            calls[name].append(network)
            return width_loss([500.0, 500.0])(network)

        return evaluator

    result = brute_force_compress(loss("table"), models, net, 1.0, grids)
    assert result == reference_brute_force(loss("reference"), models, net, 1.0, grids)
    assert net in calls["table"] and calls["table"] == calls["reference"]


def alignment_instance(seed):
    """Three 24x24 CNN layers under the default oracle, whose alignment nodes make
    neighbouring expansions disagree on shared widths unless both are multiples of 4."""
    models, chain = default_oracle_chain()
    rng = np.random.default_rng(seed)
    grids = [
        sorted({*(4 * int(w) for w in rng.integers(1, 33, size=2)), int(rng.integers(4, 129))})
        for _ in range(3)
    ]
    return models, NetworkSpec(chain.layers[3 * seed: 3 * seed + 3]), grids


@pytest.mark.parametrize(
    "instance",
    [
        *(lambda seed=seed: alignment_instance(seed) for seed in range(4)),
        lambda: (reverting_fc_model(), NetworkSpec((fc(5, 13), fc(13, 1))), [[12, 13], [1, 2]]),
    ],
    ids=[*(f"alignment-{seed}" for seed in range(4)), "reverting"],
)
def test_brute_force_fallback_matches_the_per_candidate_reference(monkeypatch, instance):
    # only a combination whose entries conflict or revert takes the conflict
    # pass, and only a reverting one is rebuilt unexpanded
    models, net, grids = instance()
    expected_reconciles = expected_reverts = 0
    for widths in itertools.product(*grids):
        _, trace = reference_expand_network(models, steering._apply_widths(net, widths))
        expected_reconciles += bool(trace.conflicts) or trace.reverted
        expected_reverts += trace.reverted
    # both paths are taken
    assert 0 < expected_reconciles < math.prod(map(len, grids))
    counts = {"_reconcile": 0, "_apply_widths": 0}
    for name in counts:
        def counting(*args, original=getattr(steering, name), name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(steering, name, counting)
    calls = {"walk": [], "reference": []}

    def loss(name):
        def evaluator(network):
            calls[name].append(network)
            return width_loss([30.0] * len(network))(network)

        return evaluator

    result = brute_force_compress(loss("walk"), models, net, 1.0, grids)
    assert counts == {"_reconcile": expected_reconciles, "_apply_widths": expected_reverts}
    expected = reference_brute_force(loss("reference"), models, net, 1.0, grids)
    assert save_network(result) == save_network(expected)
    assert calls["walk"] == calls["reference"]


def test_chain_trace_matches_the_reference_conflict_pass():
    models, net = default_oracle_chain()
    expanded, trace = expand_network(models, net)
    expected, expected_trace = reference_expand_network(models, net)
    assert len(trace.conflicts) == 48
    assert save_network(expanded) == save_network(expected)
    assert cli._trace_to_dict(trace) == cli._trace_to_dict(expected_trace)


# --- each piece of pricing work done once -------------------------------------------


def reference_walk_once(model, config, original):
    """The tree walk before deriving once: features and explanatory derived apart."""
    names = feature_names(model.kind)
    expandable = set(width_fields(model.kind))
    current = config
    f = derive_features(current).as_array()
    x = derive_explanatory(current).as_array()
    trail = []
    accepted = []
    node = model.root
    while not node.is_leaf:
        cond = node.condition
        if cond.kind is RANGE:
            truth = bool(cond.holds(f))
            trail.append((cond, truth))
            node = node.left if truth else node.right
            continue
        tau = int(cond.tau)
        value = f[cond.feature_index]
        target = tau * math.ceil(value / tau)
        if target == value:
            expanded_time = float(node.left.fit.predict(x))
            current_time = float(node.right.fit.predict(x))
            node = node.left if expanded_time <= current_time else node.right
            continue
        field = names[cond.feature_index]
        if field in expandable and target <= 2 * getattr(original, field):
            candidate = dataclasses.replace(current, **{field: int(target)})
            f_hat = derive_features(candidate).as_array()
            x_hat = derive_explanatory(candidate).as_array()
            expanded_time = float(node.left.fit.predict(x_hat))
            current_time = float(node.right.fit.predict(x))
            if expanded_time <= current_time and steering._obeys_trail(trail, f_hat):
                accepted.append(AcceptedExpansion(field, tau, expanded_time, current_time))
                current, f, x = candidate, f_hat, x_hat
                node = node.left
                continue
        node = node.right
    return current, accepted


def walk_once(model, config, original):
    """One walk of ``config`` from its own derivation: ``_walk`` without the row."""
    return steering._walk(model, config, original, _split_row(config))[:2]


def width_tree_model(rng, kind):
    """A random tree whose multiple conditions all test a width, so walks round often."""
    model = random_tree_model(rng, kind=kind, max_depth=5)
    names = feature_names(kind)
    widths = [names.index(name) for name in width_fields(kind)]
    for _, node in model.nodes():
        if node.condition is not None and node.condition.kind is MULTIPLE:
            node.condition = Condition(int(rng.choice(widths)), node.condition.tau, MULTIPLE)
    return model


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(LayerKind)), seed=st.integers(0, 2**32 - 1))
def test_walk_once_matches_the_two_derivation_reference(kind, seed):
    rng = np.random.default_rng(seed)
    for model in (width_tree_model(rng, kind), default_oracle().models[kind]):
        for _ in range(10):
            config = random_config(rng, kind)
            walked = walk_once(model, config, config)
            assert walked == reference_walk_once(model, config, config)
            # a second walk starts from the first one's result
            again = walk_once(model, walked[0], config)
            assert again == reference_walk_once(model, walked[0], config)


def test_predict_and_walk_follow_a_condition_rewritten_after_build():
    # routing reads each node's condition as it walks, so a compiled or
    # cached view of the tree would have to see this rewrite too
    names = feature_names(LayerKind.CNN)
    out_channel = names.index("out_channel")
    cheap, dear = leaf((0.0, 0.0, 0.0), 1.0), leaf((0.0, 0.0, 0.0), 5.0)
    root = Node(fit=cheap.fit, condition=Condition(out_channel, 64.0, RANGE), left=cheap, right=dear)
    model = TimeModel(kind=LayerKind.CNN, root=root)
    config = cnn(24, 24, 3, 3, 8, 30)
    assert model.predict(config) == 1.0
    root.condition = Condition(out_channel, 16.0, RANGE)
    assert model.predict(config) == 5.0
    # a multiple condition on a width: the walk rounds it up to the cheaper side
    for tau, width in ((4, 32), (7, 35), (3, 30)):
        root.condition = Condition(out_channel, tau, MULTIPLE)
        walked, _ = walk_once(model, config, config)
        assert walked.out_channel == width
        assert model.predict(config) == (1.0 if 30 % tau == 0 else 5.0)


def reference_shared_widths(layers):
    """The junction list before it was cached per kind sequence."""
    return [
        (i, width_fields(a.kind)[1], width_fields(b.kind)[0])
        for i, (a, b) in enumerate(zip(layers, layers[1:]))
        if steering._coupled_kinds(a.kind, b.kind)
    ]


_ONE_LAYER = {
    LayerKind.FC: fc(4, 4),
    LayerKind.CNN: cnn(8, 8, 3, 3, 4, 4),
    LayerKind.GRU: gru(4, 4, 4),
    LayerKind.LSTM: lstm(4, 4, 4),
}


@given(kinds=st.lists(st.sampled_from(list(LayerKind)), max_size=12))
def test_shared_widths_match_the_list_reference(kinds):
    layers = [_ONE_LAYER[kind] for kind in kinds]
    junctions = steering._shared_widths(layers)
    assert isinstance(junctions, tuple)
    assert list(junctions) == reference_shared_widths(layers)
    # one kind sequence, one computed junction tuple, in a bounded cache
    assert steering._shared_widths(tuple(layers)) is junctions
    assert steering._junctions.cache_info().maxsize is not None


def test_a_memo_hit_hashes_its_key_once(monkeypatch, reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 16), cnn(24, 24, 3, 3, 16, 32)))
    objective = steering._Objective(lambda _: 1.0, models, 1.0, budget=10)
    first = objective(net)
    hashes = []
    config_hash = StructureConfig.__hash__
    monkeypatch.setattr(
        StructureConfig, "__hash__", lambda self: hashes.append(self) or config_hash(self)
    )
    for n in (1, 2, 3):
        assert objective.price(net.layers[0]) == reference_model.predict(net.layers[0])
        assert len(hashes) == n
    # a network hit hashes each of its layers once
    assert objective(net) == first
    assert len(hashes) == 3 + len(net.layers)
    assert objective.calls == 1


def test_a_miss_hashes_each_layer_once_and_colliding_keys_stay_apart(monkeypatch, reference_model):
    models = {LayerKind.CNN: reference_model}
    nets = [NetworkSpec((cnn(24, 24, 3, 3, 8, width),)) for width in (16, 32, 48)]
    objective = steering._Objective(lambda net: net.layers[0].out_channel, models, 0.0, budget=10)
    for net in nets:  # every layer priced already, so only the key hashes
        objective.price(net.layers[0])
    hashes = []
    config_hash = StructureConfig.__hash__
    monkeypatch.setattr(
        StructureConfig, "__hash__", lambda self: hashes.append(self) or config_hash(self)
    )
    assert objective(nets[0], [1.0]) == 16.0
    assert hashes == [nets[0].layers[0]]
    # three networks under one key: each is evaluated once and keeps its own value
    for _ in range(2):
        assert [objective(net, [1.0], key=7) for net in nets] == [16.0, 32.0, 48.0]
    assert objective.calls == 4


def test_steering_value_types_are_slotted(reference_model):
    models = {LayerKind.CNN: reference_model}
    net = NetworkSpec((cnn(24, 24, 3, 3, 8, 43), cnn(24, 24, 3, 3, 43, 64)))
    expanded, trace = expand_network(models, net)
    plan = zero_pad_plan(net, expanded)
    accepted = [a for entry in trace.entries for a in entry.accepted]
    tensors = [t for layer_plan in plan for t in layer_plan.tensors]
    values = [net, trace, *trace.entries, *accepted, *trace.conflicts, *plan, *tensors]
    assert {type(v).__name__ for v in values} == {
        "NetworkSpec", "ExpansionTrace", "LayerExpansion", "AcceptedExpansion",
        "ConflictResolution", "LayerPadPlan", "TensorEmbed",
    }
    for value in values:
        assert not hasattr(value, "__dict__")
        copy = dataclasses.replace(value)
        assert copy == value and hash(copy) == hash(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)
    assert network_from_dict(network_to_dict(expanded)) == expanded
    assert dataclasses.replace(trace.conflicts[0], kept="upstream").kept == "upstream"
    with pytest.raises(ValueError, match="shared width"):
        dataclasses.replace(net, layers=(net.layers[0], expanded.layers[1]))


# --- steering guarantees as properties ---------------------------------------------

_KINDS = st.sampled_from(list(LayerKind))
_DEPTHS = st.integers(0, 4)


def random_network(rng, kinds, max_depth):
    """A random tree per kind, and a net of ``random_config`` layers whose
    coupled input widths are set to the output width before them."""
    models = {kind: random_tree_model(rng, kind, max_depth) for kind in dict.fromkeys(kinds)}
    layers = []
    for kind in kinds:
        config = random_config(rng, kind)
        if layers and steering._coupled_kinds(layers[-1].kind, kind):
            width = getattr(layers[-1], width_fields(layers[-1].kind)[1])
            config = dataclasses.replace(config, **{width_fields(kind)[0]: width})
        layers.append(config)
    return models, NetworkSpec(tuple(layers))


def grids_around(rng, net):
    """Up to four output widths per layer, between half and twice the current
    one, always including the current one."""
    return [
        sorted({width, *(int(w) for w in rng.integers(max(1, width // 2), 2 * width + 1,
                                                      size=int(rng.integers(0, 4))))})
        for width in steering._current_widths(net)
    ]


def growing_loss(weights):
    """A loss that grows with every layer's output width."""

    def evaluator(net):
        return sum(w * width / 100.0 for w, width in zip(weights, steering._current_widths(net)))

    return evaluator


@settings(max_examples=300, deadline=None)
@given(kind=_KINDS, max_depth=_DEPTHS, seed=st.integers(0, 2**32 - 1))
def test_expand_layer_never_slower_never_narrower_and_a_fixed_point(kind, max_depth, seed):
    rng = np.random.default_rng(seed)
    model = random_tree_model(rng, kind, max_depth)
    config = random_config(rng, kind)
    expanded, _ = expand_layer(model, config)
    assert model.predict(expanded) <= model.predict(config)
    for name in width_fields(kind):
        assert getattr(expanded, name) >= getattr(config, name)
    assert expand_layer(model, expanded)[0] == expanded


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(width_fields(LayerKind.CNN)),
    below=st.integers(0, 64),
)
def test_expand_layer_stays_inside_the_domain_at_its_edge(seed, field, below):
    # a width at most 64 below the widest one whose flops and memory stay
    # below 2**53: roundings of either width may cross 2**53, and a walk
    # must not take them
    rng = np.random.default_rng(seed)
    model = width_tree_model(rng, LayerKind.CNN)
    config = random_config(rng, LayerKind.CNN)
    edge = widest(config, field)
    config = dataclasses.replace(config, **{field: max(1, edge - below)})
    with pytest.raises(ValueError, match="too large"):
        _split_row(dataclasses.replace(config, **{field: edge + 1}))
    expanded, _ = expand_layer(model, config)
    assert model.predict(expanded) <= model.predict(config)
    for name in width_fields(LayerKind.CNN):
        assert getattr(expanded, name) >= getattr(config, name)


@pytest.mark.parametrize("search", [greedy_compress, brute_force_compress])
def test_a_grid_width_outside_the_domain_raises_the_pricing_error(search):
    # an output width of 2**26 gives flops of 2**53 + 2**26: the width itself is
    # exact, so it reaches pricing, which rejects it as any bad input
    models = {LayerKind.FC: default_oracle().models[LayerKind.FC]}
    net = NetworkSpec((fc(2**26, 8),))
    with pytest.raises(ValueError, match="^FC config has a size too large for a float$"):
        search(lambda _: 0.0, models, net, 1.0, [[4, 2**26]])


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(_KINDS, max_size=5), max_depth=_DEPTHS, seed=st.integers(0, 2**32 - 1))
def test_expand_network_is_consistent_and_never_slower(kinds, max_depth, seed):
    models, net = random_network(np.random.default_rng(seed), kinds, max_depth)
    expanded, _ = expand_network(models, net)
    assert NetworkSpec(expanded.layers) == expanded  # shared widths agree
    assert [layer.kind for layer in expanded.layers] == kinds
    assert network_time(models, expanded) <= network_time(models, net)


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(_KINDS, min_size=1, max_size=4),
    max_depth=_DEPTHS,
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.0, 0.01, 0.1, 1.0, 10.0]),
    make_loss=st.sampled_from([width_loss, growing_loss]),  # falls or grows with width
)
def test_greedy_never_scores_above_its_input(kinds, max_depth, seed, lam, make_loss):
    rng = np.random.default_rng(seed)
    models, net = random_network(rng, kinds, max_depth)
    grids = grids_around(rng, net)
    loss = make_loss(rng.uniform(5.0, 50.0, size=len(kinds)))
    result = greedy_compress(loss, models, net, lam, grids)
    assert time_aware_objective(loss, models, result, lam) <= time_aware_objective(
        loss, models, net, lam
    )


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(_KINDS, min_size=1, max_size=3),
    max_depth=_DEPTHS,
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.0, 0.01, 0.1, 1.0, 10.0]),
)
def test_brute_force_scores_at_or_below_greedy_for_a_falling_loss(kinds, max_depth, seed, lam):
    # greedy ends at a grid point or its expansion; brute force scores that
    # point's expansion, which a falling loss never scores above the point
    rng = np.random.default_rng(seed)
    models, net = random_network(rng, kinds, max_depth)
    grids = grids_around(rng, net)
    loss = width_loss(rng.uniform(5.0, 50.0, size=len(kinds)))  # never grows with width
    greedy = greedy_compress(loss, models, net, lam, grids)
    brute = brute_force_compress(loss, models, net, lam, grids)
    assert time_aware_objective(loss, models, brute, lam) <= time_aware_objective(
        loss, models, greedy, lam
    )


# --- recurrent floor ------------------------------------------------------------------


def step_leaf_model(kind, coefficient, intercept=1.0):
    w = [1e-8, 2e-6, 0.0, coefficient]
    return TimeModel(kind=kind, root=leaf(w, intercept))


def test_planted_step_coefficient_floor():
    model = step_leaf_model(LayerKind.GRU, 0.666)
    net = NetworkSpec((gru(64, 120, 20),))
    floor = rnn_time_floor(model, net)
    assert floor == pytest.approx(13.32, rel=1e-9)
    assert abs(floor - 14.1) / 14.1 <= 0.10


def test_floor_without_recurrent_layers():
    model = step_leaf_model(LayerKind.GRU, 0.666)
    assert rnn_time_floor(model, NetworkSpec(())) == 0.0


def test_floor_recovered_by_refit():
    planted = step_leaf_model(LayerKind.GRU, 0.5, intercept=0.7)
    rng = np.random.default_rng(4)
    configs = [random_config(rng, LayerKind.GRU) for _ in range(300)]
    times = [planted.predict(c) for c in configs]
    fitted = fit_tree(Dataset.from_records(LayerKind.GRU, configs, times), FitParams())
    floor = rnn_time_floor(fitted, NetworkSpec((gru(32, 64, 10),)))
    assert floor == pytest.approx(5.0, abs=1e-6)


def test_floor_sums_matching_layers_only():
    model = step_leaf_model(LayerKind.GRU, 0.666)
    net = NetworkSpec((gru(8, 16, 20), fc(16, 4)))
    assert rnn_time_floor(model, net) == pytest.approx(13.32, rel=1e-9)


def test_floor_rejects_non_recurrent_model(reference_model):
    with pytest.raises(ValueError):
        rnn_time_floor(reference_model, NetworkSpec(()))
