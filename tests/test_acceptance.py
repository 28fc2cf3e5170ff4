"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Expected values marked as derived were computed with the independent
oracles embedded here (projected-gradient descent, point-evaluation
polynomial solves, exhaustive search) rather than copied from the
implementation under test.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    B_FALSE,
    B_TRUE,
    IN_CHANNEL,
    REFERENCE_GEOMETRY,
    W_FALSE,
    W_TRUE,
    leaf,
    random_config,
    random_tree_model,
    two_leaf_channel_model,
)
from layertime.analysis import channel_time_polynomial, expansion_benefit, safe_region, verify_region
from layertime.cli import main
from layertime.harness import default_oracle, generate_plan, synth_profile, write_profile
from layertime.layers import LayerKind, cnn, derive_explanatory, gru
from layertime.nnls import kkt_residual, nnls
from layertime.steering import (
    NetworkSpec,
    brute_force_compress,
    expand_layer,
    greedy_compress,
    load_network,
    network_time,
    rnn_time_floor,
    save_network,
    time_aware_objective,
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
    load_models,
)


@contextmanager
def criterion(number: int, title: str):
    """Print the criterion's PASS/FAIL line; a PASS line ends with what the body appended."""
    results: list[str] = []
    try:
        yield results
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}" + "".join(f"; {r}" for r in results))


def test_criterion_1_planted_model_recovery():
    with criterion(1, "planted-model recovery at 1% noise"):
        started = time.monotonic()
        oracle = default_oracle(noise=0.01, seed=1300)
        plan = [c for c in generate_plan(n_networks=500, seed=20) if c.kind is LayerKind.CNN]
        plan = plan[:1000]
        assert len(plan) == 1000
        samples = synth_profile(oracle, plan)
        dataset = Dataset.from_records(
            LayerKind.CNN, [s.config for s in samples], [s.time_ms for s in samples]
        )
        rng = np.random.default_rng(0)
        order = rng.permutation(len(dataset))
        test_mask = np.zeros(len(dataset), dtype=bool)
        test_mask[order[: len(dataset) // 4]] = True
        model = fit_tree(dataset.subset(~test_mask), FitParams())
        held_out = dataset.subset(test_mask)
        predictions = model.predict_rows(held_out.features, held_out.explanatory)
        mape = float(np.mean(np.abs(predictions - held_out.times) / held_out.times))
        elapsed = time.monotonic() - started
        assert model.root.condition == Condition(IN_CHANNEL, 4, ConditionKind.MULTIPLE)
        assert mape <= 0.05
        assert elapsed < 30.0


def pg_oracle(A, y, max_iter=20000):
    """Long-run accelerated projected gradient descent."""
    gram = A.T @ A
    aty = A.T @ y
    lipschitz = float(np.linalg.eigvalsh(gram).max())
    if lipschitz <= 0:
        return np.zeros(A.shape[1])
    step = 1.0 / lipschitz
    x = np.zeros(A.shape[1])
    z = x.copy()
    momentum = 1.0
    for _ in range(max_iter):
        x_next = np.maximum(z - step * (gram @ z - aty), 0.0)
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        z = x_next + ((momentum - 1.0) / momentum_next) * (x_next - x)
        if np.abs(x_next - x).max() <= 1e-15 * max(1.0, np.abs(x).max()):
            return x_next
        x, momentum = x_next, momentum_next
    return x


def test_criterion_2_nnls_correctness():
    with criterion(2, "NNLS KKT and loss vs projected-gradient oracle on 500 instances"):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            m = int(rng.integers(3, 201))
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(m, n))
            x_true = rng.normal(size=n)
            y = A @ x_true + rng.normal(scale=rng.uniform(0.0, 2.0), size=m)
            x = nnls(A, y)
            assert x.min() >= 0.0
            assert kkt_residual(A, y, x) <= 1e-8
            reference = pg_oracle(A, y)
            loss = float(np.sum((A @ x - y) ** 2))
            loss_ref = float(np.sum((A @ reference - y) ** 2))
            assert abs(loss - loss_ref) <= 1e-8 * max(1.0, loss_ref)
        # hand example with a negative unconstrained slope
        A = np.array([[x, 1.0] for x in range(1, 6)])
        y = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
        x = nnls(A, y)
        assert x[0] == 0.0
        assert x[1] == 2.0


# coefficients of the published-style per-branch channel polynomials, used
# as the cross-check target for the symbolic substitution
PRINTED_TRUE = (3.53e-4, 2.32e-2, 2.32e-3, 8.11)
PRINTED_FALSE = (3.23e-4, 4.63e-2, 4.63e-3, 12.82)


def test_criterion_3_channel_polynomial_reproduction():
    with criterion(3, "channel polynomial coefficients and the 43->44 expansion"):
        fits = {
            "true": LinearFit(w=np.asarray(W_TRUE), b=B_TRUE, n=0, mape=0.0, mse=0.0),
            "false": LinearFit(w=np.asarray(W_FALSE), b=B_FALSE, n=0, mape=0.0, mse=0.0),
        }
        for name, printed in (("true", PRINTED_TRUE), ("false", PRINTED_FALSE)):
            poly = channel_time_polynomial(fits[name], REFERENCE_GEOMETRY)
            for got, want in zip((poly.a, poly.b, poly.c, poly.d), printed):
                assert abs(got - want) <= 0.01 * abs(want)
        model = two_leaf_channel_model()
        config = cnn(24, 24, 3, 3, 43, 64)
        expanded, entry = expand_layer(model, config)
        assert (expanded.in_channel, expanded.out_channel) == (44, 64)
        assert entry.time_before == pytest.approx(16.0, abs=0.1)
        assert entry.time_after == pytest.approx(10.3, abs=0.1)


def test_criterion_4_safe_region_derivation():
    with criterion(4, "safe-expansion region root and exact four-corner verification"):
        fits = (
            LinearFit(w=np.asarray(W_TRUE), b=B_TRUE, n=0, mape=0.0, mse=0.0),
            LinearFit(w=np.asarray(W_FALSE), b=B_FALSE, n=0, mape=0.0, mse=0.0),
        )
        benefit = expansion_benefit(fits[0], fits[1], REFERENCE_GEOMETRY, delta=3)
        assert benefit.a > 0 and benefit.d < 0  # exactly one positive crossing
        region = verify_region(safe_region(benefit))
        assert region.verified and not region.is_empty
        # sign check on a grid that reaches the square's edges, and at its four corners
        points = np.linspace(1.0, region.bound, 32, endpoint=True)
        u, v = np.meshgrid(points, points)
        assert (benefit.a * u * v + benefit.b * u + benefit.c * v + benefit.d < 0).all()
        corners = [(1.0, 1.0), (1.0, region.bound), (region.bound, 1.0), (region.bound,) * 2]
        assert all(benefit(u, v) < 0 for u, v in corners)
        assert 0.7 * 1288 <= region.bound <= 1.4 * 1288


def test_criterion_5_rnn_time_floor():
    with criterion(5, "per-step overhead floor of a 20-step recurrent layer"):
        model = TimeModel(
            kind=LayerKind.GRU, root=leaf((1e-8, 2e-6, 0.0, 0.666), 0.9)
        )
        net = NetworkSpec((gru(64, 120, 20),))
        floor = rnn_time_floor(model, net)
        assert floor == pytest.approx(13.32, rel=1e-9)
        assert abs(floor - 14.1) / 14.1 <= 0.10


def test_criterion_6_expansion_properties():
    with criterion(6, "expansion safety, idempotence, and monotonicity on 200 pairs"):
        rng = np.random.default_rng(606)
        kinds = [LayerKind.CNN] * 100 + [LayerKind.FC] * 50 + [LayerKind.GRU] * 50
        for kind in kinds:
            model = random_tree_model(rng, kind=kind)
            config = random_config(rng, kind)
            expanded, _ = expand_layer(model, config)
            assert model.predict(expanded) <= model.predict(config)
            again, _ = expand_layer(model, expanded)
            assert again == expanded
            for name in (
                ("in_channel", "out_channel") if kind is LayerKind.CNN else ("in_dim", "out_dim")
            ):
                assert getattr(expanded, name) >= getattr(config, name)


def width_loss(weights):
    def evaluator(net):
        return sum(w / layer.out_channel for w, layer in zip(weights, net.layers))

    return evaluator


def compression_instance(seed):
    rng = np.random.default_rng(seed)
    model = random_tree_model(rng, kind=LayerKind.CNN)
    widths = [int(rng.integers(4, 65)) for _ in range(4)]
    net = NetworkSpec(
        tuple(cnn(24, 24, 3, 3, widths[i], widths[i + 1]) for i in range(3))
    )
    grids = [
        sorted({widths[i + 1], *rng.choice(np.arange(4, 65), size=5, replace=False).tolist()})
        for i in range(3)
    ]
    evaluator = width_loss(rng.uniform(5.0, 50.0, size=3))
    return {LayerKind.CNN: model}, net, grids, evaluator


def test_criterion_7_compression_optimality():
    with criterion(7, "greedy vs exhaustive compression and lambda monotonicity"):
        within = 0
        for seed in range(50):
            models, net, grids, evaluator = compression_instance(seed)
            greedy = greedy_compress(evaluator, models, net, 1.0, grids)
            brute = brute_force_compress(evaluator, models, net, 1.0, grids)
            greedy_obj = time_aware_objective(evaluator, models, greedy, 1.0)
            brute_obj = time_aware_objective(evaluator, models, brute, 1.0)
            assert brute_obj <= greedy_obj + 1e-9  # the oracle dominates
            if greedy_obj <= brute_obj * 1.05:
                within += 1
        assert within >= 40  # at least 80 percent of 50 instances
        for seed in range(50):
            models, net, grids, evaluator = compression_instance(seed)
            previous = math.inf
            for lam in (0.0, 0.1, 1.0, 10.0):
                best = brute_force_compress(evaluator, models, net, lam, grids)
                t = network_time(models, best)
                assert t <= previous + 1e-9
                previous = t


def test_criterion_8_end_to_end_pipeline(tmp_path):
    with criterion(8, "plan -> synth -> fit -> expand -> compress pipeline"):
        started = time.monotonic()
        plan = tmp_path / "plan.jsonl"
        profile = tmp_path / "profile.jsonl"
        model_file = tmp_path / "model.json"
        net_file = tmp_path / "net.json"
        expanded_file = tmp_path / "expanded.json"
        compressed_file = tmp_path / "compressed.json"

        assert main(["plan", "--networks", "120", "--seed", "18", "--out", str(plan)]) == 0
        assert main(["synth", "--plan", str(plan), "--oracle", "default", "--out", str(profile)]) == 0
        assert main(["fit", "--dataset", str(profile), "--seed", "2", "--out", str(model_file)]) == 0

        # geometry large enough that width-dependent cost dominates the
        # per-layer setup intercepts
        demo = NetworkSpec(
            (
                cnn(112, 112, 3, 3, 3, 43),
                cnn(112, 112, 3, 3, 43, 61),
                cnn(112, 112, 3, 3, 61, 37),
            )
        )
        net_file.write_bytes(save_network(demo))
        assert main([
            "expand", "--model", str(model_file), "--network", str(net_file),
            "--out", str(expanded_file),
        ]) == 0
        assert main([
            "compress", "--model", str(model_file), "--network", str(net_file),
            "--lambda", "1.0", "--out", str(compressed_file),
        ]) == 0

        models = load_models(model_file.read_bytes())
        uncompressed = network_time(models, load_network(net_file.read_bytes()))
        expanded = network_time(models, load_network(expanded_file.read_bytes()))
        compressed = network_time(models, load_network(compressed_file.read_bytes()))
        elapsed = time.monotonic() - started
        assert expanded <= uncompressed
        assert compressed <= 0.5 * uncompressed
        assert elapsed < 120.0


# criterion 9: fixed before the bound was chosen
HEADLINE_SEEDS = range(24)
HEADLINE_LAMBDAS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0)
HEADLINE_FRACTIONS = np.arange(2, 9) / 8  # 0.25, 0.375, ..., 1.0


def headline_instance(seed):
    """Three 24x24, 3x3 CNN layers of widths 16-128, width grids at fractions
    of each layer's width, and a loss that falls with width."""
    rng = np.random.default_rng([9, seed])
    widths = [int(w) for w in rng.integers(16, 129, size=4)]
    net = NetworkSpec(tuple(cnn(24, 24, 3, 3, widths[i], widths[i + 1]) for i in range(3)))
    grids = [sorted({round(w * f) for f in HEADLINE_FRACTIONS}) for w in widths[1:]]
    return net, grids, width_loss(rng.uniform(5.0, 50.0, size=3))


def flop_proxy(models, net):
    """A one-leaf CNN model whose time is proportional to FLOPs, equal to the
    real model's on ``net``: the size-driven compression the paper compares to."""
    flops = sum(derive_explanatory(layer).flops for layer in net.layers)
    w = np.array([network_time(models, net) / flops, 0.0, 0.0])
    fit = LinearFit(w=w, b=0.0, n=0, mape=0.0, mse=0.0)
    return {LayerKind.CNN: TimeModel(kind=LayerKind.CNN, root=Node(fit=fit))}


def test_criterion_9_model_steered_compression_beats_size_driven():
    with criterion(9, "model-steered vs FLOP-proxy compression at matched loss") as results:
        real = {LayerKind.CNN: default_oracle().models[LayerKind.CNN]}
        ratios = []
        for seed in HEADLINE_SEEDS:
            net, grids, loss = headline_instance(seed)
            proxy = flop_proxy(real, net)
            steered = [brute_force_compress(loss, real, net, lam, grids) for lam in HEADLINE_LAMBDAS]
            priced = [(loss(found), network_time(real, found)) for found in steered]
            for lam in HEADLINE_LAMBDAS:
                sized = brute_force_compress(loss, proxy, net, lam, grids)
                # the fastest model-steered result that loses no more than the sized one
                sized_loss = loss(sized)
                matched = [t for steered_loss, t in priced if steered_loss <= sized_loss]
                assert matched, f"seed {seed}, lambda {lam}: no model-steered result matches"
                ratios.append(min(matched) / network_time(real, sized))
        median = float(np.median(ratios))
        # the paper's claim is a direction: steering by the model is faster
        assert median < 1.0
        results.append(f"median time ratio {median:.3f} over {len(ratios)} comparisons")


# criterion 10: fixed before measuring; plan seed 2 at noise 0.04 fits a tree
# whose small leaves misprice the headline layers, and it stays in
LEARNED_NOISES = (0.02, 0.04)
LEARNED_SEEDS = range(1, 9)
LEARNED_INSTANCES = HEADLINE_SEEDS[:4]  # few enough for a test of a few seconds


def steered_prices(models, real, net, grids, loss):
    """``(loss, oracle time)`` of the brute-force result steered by ``models``, per lambda."""
    found = (brute_force_compress(loss, models, net, lam, grids) for lam in HEADLINE_LAMBDAS)
    return [(loss(net_found), network_time(real, net_found)) for net_found in found]


def fastest_within(prices, loss_bound):
    """The least oracle time among results losing at most ``loss_bound`` (inf if none)."""
    return min((t for loss, t in prices if loss <= loss_bound), default=math.inf)


def test_criterion_10_learned_model_steered_compression_beats_size_driven():
    title = "learned-model-steered vs FLOP-proxy compression, priced on the oracle"
    with criterion(10, title) as results:
        real = {LayerKind.CNN: default_oracle().models[LayerKind.CNN]}
        instances = []
        for seed in LEARNED_INSTANCES:
            net, grids, loss = headline_instance(seed)
            sized = steered_prices(flop_proxy(real, net), real, net, grids, loss)
            by_oracle = steered_prices(real, real, net, grids, loss)
            instances.append((net, grids, loss, sized, by_oracle))
        ratios = []
        for noise in LEARNED_NOISES:
            for seed in LEARNED_SEEDS:
                plan = generate_plan(n_networks=120, seed=seed)
                plan = [c for c in plan if c.kind is LayerKind.CNN]
                samples = synth_profile(default_oracle(noise=noise, seed=seed), plan)
                dataset = Dataset.from_records(
                    LayerKind.CNN, [s.config for s in samples], [s.time_ms for s in samples]
                )
                learned = {LayerKind.CNN: fit_tree(dataset, FitParams())}
                device_ratios, regrets = [], []
                for net, grids, loss, sized, by_oracle in instances:
                    by_learned = steered_prices(learned, real, net, grids, loss)
                    for sized_loss, sized_time in sized:
                        # at the loss of the sized result: against it, and against the oracle
                        time_learned = fastest_within(by_learned, sized_loss)
                        device_ratios.append(time_learned / sized_time)
                        regrets.append(time_learned / fastest_within(by_oracle, sized_loss))
                ratios += device_ratios
                results.append(
                    f"noise {noise} seed {seed}: ratio {np.median(device_ratios):.3f}, "
                    f"regret {np.median(regrets):.3f}"
                )
        median = float(np.median(ratios))
        # the paper's claim is a direction: steering by a learned model is faster
        assert median < 1.0
        results.append(f"median time ratio {median:.3f} over {len(ratios)} comparisons")
