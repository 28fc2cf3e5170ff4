"""Command-line front end: plan, synth, fit, predict, analyze, expand, compress.

All subcommands are deterministic under fixed seeds and write their primary
outputs to explicit paths.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ConvGeometry,
    coefficient_pvalues,
    expansion_benefit,
    safe_region,
    verify_region,
)
from .harness import (
    ProfileFormatError,
    default_oracle,
    generate_plan,
    ingest_profile,
    load_oracle,
    load_plan,
    save_plan,
    synth_profile,
    write_profile,
)
from .layers import LayerKind, config_from_dict, config_to_dict, feature_names, width_fields
from .nnls import NumericError
from .steering import (
    CommandEvaluator,
    EvaluationError,
    NetworkFormatError,
    brute_force_compress,
    expand_network,
    greedy_compress,
    load_network,
    network_time,
    save_network,
)
from .tree import (
    ConditionKind,
    Dataset,
    FitParams,
    ModelFormatError,
    fit_tree,
    load_models,
    save_models,
)

__all__ = ["main"]

_DEFAULT_WIDTH_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="layertime",
        description="Learn per-layer execution-time models from profiles and "
        "steer structure compression toward minimum predicted latency.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("plan", help="generate a random profiling plan")
    p.add_argument("--scope", default="default")
    p.add_argument("--networks", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("synth", help="synthesize a profile from an oracle")
    p.add_argument("--plan", required=True)
    p.add_argument("--oracle", default="default", help="oracle file path, or 'default'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit per-kind time models from a profile")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-leaf", type=int, default=FitParams.min_leaf)
    p.add_argument("--mape-stop", type=float, default=FitParams.mape_stop)
    p.add_argument("--max-depth", type=int, default=FitParams.max_depth)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict one layer's execution time")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True, help="path to a flat config record")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("analyze", help="significance and safe-expansion report")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset")
    p.add_argument("--config", help="CNN config fixing the geometry for region analysis")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("expand", help="expand a network to execution-time local minima")
    p.add_argument("--model", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="optional path for the expansion trace")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("compress", help="latency-aware width compression")
    p.add_argument("--model", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--evaluator-cmd", help="external loss command; omitted = zero loss")
    p.add_argument(
        "--width-grid",
        default=",".join(str(f) for f in _DEFAULT_WIDTH_FRACTIONS),
        help="comma-separated width fractions of each layer's original width",
    )
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--brute-force", action="store_true", help="use the exhaustive oracle search")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compress)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        print("error: usage: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3
    except (
        ModelFormatError,
        ProfileFormatError,
        NetworkFormatError,
        EvaluationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2


def _cmd_plan(args) -> int:
    if args.networks < 1:
        raise _UsageError("--networks must be >= 1")
    plan = generate_plan(scope=args.scope, n_networks=args.networks, seed=args.seed)
    save_plan(plan, args.out)
    print(f"plan: {len(plan)} components across {args.networks} networks -> {args.out}")
    return 0


def _load_oracle_arg(spec: str):
    if spec == "default":
        return default_oracle()
    return load_oracle(Path(spec).read_bytes())


def _cmd_synth(args) -> int:
    plan = load_plan(args.plan)
    oracle = _load_oracle_arg(args.oracle)
    write_profile(synth_profile(oracle, plan), args.out)
    print(f"synth: {len(plan)} records -> {args.out}")
    return 0


def _split_dataset(dataset: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    n = len(dataset)
    order = rng.permutation(n)
    n_test = n // 4
    test_mask = np.zeros(n, dtype=bool)
    test_mask[order[:n_test]] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)


def _cmd_fit(args) -> int:
    try:
        params = FitParams(
            mape_stop=args.mape_stop, min_leaf=args.min_leaf, max_depth=args.max_depth
        )
    except ValueError as exc:
        raise _UsageError(f"bad fit parameter: {exc}") from exc
    data = ingest_profile(args.dataset)
    if not data:
        print("error: data: profile contains no records", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    models = {}
    for kind in sorted(data, key=lambda k: k.value):
        train, test = _split_dataset(data[kind], rng)
        if len(train) < params.min_leaf:
            print(
                f"warning: {kind.value}: only {len(train)} training records "
                f"(min-leaf {params.min_leaf}); fitting a single leaf"
            )
        model = fit_tree(train, params)
        models[kind] = model
        if len(test):
            predictions = model.predict_rows(test.features, test.explanatory)
            mape = float(np.mean(np.abs(predictions - test.times) / test.times))
            print(
                f"{kind.value}: nodes={model.n_nodes} "
                f"train={len(train)} test={len(test)} test_mape={100 * mape:.1f}%"
            )
        else:
            print(
                f"{kind.value}: nodes={model.n_nodes} train={len(train)} test=0 "
                f"train_mape={100 * model.root.fit.mape:.1f}%"
            )
    Path(args.out).write_bytes(save_models(models))
    print(f"fit: {len(models)} models -> {args.out}")
    return 0


def _load_config_file(path: str):
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(record)


def _cmd_predict(args) -> int:
    models = load_models(Path(args.model).read_bytes())
    config = _load_config_file(args.config)
    model = models.get(config.kind)
    if model is None:
        print(f"error: data: no model for layer kind {config.kind.value}", file=sys.stderr)
        return 2
    print(f"{model.predict(config):.3f} ms")
    return 0


def _cmd_analyze(args) -> int:
    models = load_models(Path(args.model).read_bytes())
    report: dict = {"format_version": "1.0", "significance": {}, "regions": []}

    if args.dataset:
        data = ingest_profile(args.dataset)
        for kind in sorted(data, key=lambda k: k.value):
            significance = coefficient_pvalues(data[kind])
            report["significance"][kind.value] = [
                {
                    "variable": v.name,
                    "coefficient": v.coefficient,
                    "t_statistic": v.t_statistic,
                    "p_value": v.p_value,
                    "degenerate": v.degenerate,
                }
                for v in significance.variables
            ]
            summary = ", ".join(
                f"{v.name}={v.p_value:.3f}" for v in significance.variables
            )
            print(f"{kind.value} p-values: {summary}")

    if args.config:
        config = _load_config_file(args.config)
        if config.kind is not LayerKind.CNN:
            print("error: data: region analysis needs a CNN config", file=sys.stderr)
            return 2
        model = models.get(LayerKind.CNN)
        if model is None:
            print("error: data: no CNN model in the model file", file=sys.stderr)
            return 2
        setting = ConvGeometry.from_config(config)
        names = feature_names(LayerKind.CNN)
        for node_id, node in model.nodes():
            cond = node.condition
            if cond is None or cond.kind is not ConditionKind.MULTIPLE:
                continue
            feature = names[cond.feature_index]
            if feature not in ("in_channel", "out_channel"):
                continue
            delta = int(cond.tau) - 1
            benefit = expansion_benefit(
                node.left.fit, node.right.fit, setting, delta, axis=feature
            )
            region = verify_region(
                safe_region(benefit, condition=cond, setting=setting, delta=delta)
            )
            report["regions"].append(
                {
                    "node": node_id,
                    "feature": feature,
                    "tau": int(cond.tau),
                    "delta": delta,
                    "polynomial": {
                        "a": benefit.a,
                        "b": benefit.b,
                        "c": benefit.c,
                        "d": benefit.d,
                    },
                    "bound": region.bound,
                    "verified": region.verified,
                }
            )
            bound = "inf" if region.bound == float("inf") else f"{region.bound:.3f}"
            print(
                f"region: node {node_id} {feature} % {int(cond.tau)} -> "
                f"bound {bound} verified={region.verified}"
            )

    Path(args.out).write_text(
        json.dumps(report, sort_keys=True, indent=1), encoding="utf-8"
    )
    print(f"analyze: report -> {args.out}")
    return 0


def _trace_to_dict(trace) -> dict:
    return {
        "rule": trace.rule,
        "reverted": trace.reverted,
        "entries": [
            {
                "original": config_to_dict(e.original),
                "expanded": config_to_dict(e.expanded),
                "time_before": e.time_before,
                "time_after": e.time_after,
                "reverted": e.reverted,
                "accepted": [
                    {
                        "feature": a.feature,
                        "tau": a.tau,
                        "expanded_time": a.expanded_time,
                        "current_time": a.current_time,
                    }
                    for a in e.accepted
                ],
            }
            for e in trace.entries
        ],
        "conflicts": [
            {
                "junction": c.junction,
                "upstream_width": c.upstream_width,
                "downstream_width": c.downstream_width,
                "time_with_upstream": c.time_with_upstream,
                "time_with_downstream": c.time_with_downstream,
                "kept": c.kept,
            }
            for c in trace.conflicts
        ],
    }


def _cmd_expand(args) -> int:
    models = load_models(Path(args.model).read_bytes())
    net = load_network(Path(args.network).read_bytes())
    expanded, trace = expand_network(models, net)
    for i, entry in enumerate(trace.entries):
        print(
            f"layer {i} ({entry.original.kind.value}): "
            f"{entry.time_before:.3f} ms -> {entry.time_after:.3f} ms"
        )
    before = network_time(models, net)
    after = network_time(models, expanded)
    print(f"total: {before:.3f} ms -> {after:.3f} ms")
    Path(args.out).write_bytes(save_network(expanded))
    if args.trace:
        Path(args.trace).write_text(
            json.dumps(_trace_to_dict(trace), sort_keys=True, indent=1),
            encoding="utf-8",
        )
    print(f"expand: network -> {args.out}")
    return 0


def _parse_width_grid(spec: str, net) -> list[list[int]]:
    try:
        fractions = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --width-grid: {exc}") from exc
    # written so that NaN fails it too
    if not fractions or any(not 0 < f <= 1 for f in fractions):
        raise _UsageError("--width-grid needs fractions in (0, 1]")
    grids = []
    for layer in net.layers:
        width = getattr(layer, width_fields(layer.kind)[1])
        grids.append(sorted({max(1, round(width * f)) for f in fractions}))
    return grids


def _cmd_compress(args) -> int:
    models = load_models(Path(args.model).read_bytes())
    net = load_network(Path(args.network).read_bytes())
    if not 0 <= args.lam < math.inf:
        raise _UsageError("--lambda must be finite and >= 0")
    if args.budget < 1:
        raise _UsageError("--budget must be >= 1")
    evaluate = (
        CommandEvaluator(args.evaluator_cmd) if args.evaluator_cmd else (lambda _: 0.0)
    )
    # the objective printed below reuses the losses the search already paid for
    losses: dict = {}

    def evaluator(network) -> float:
        if network not in losses:
            losses[network] = float(evaluate(network))
        return losses[network]

    grids = _parse_width_grid(args.width_grid, net)
    if args.brute_force:
        compressed = brute_force_compress(evaluator, models, net, args.lam, grids)
    else:
        compressed = greedy_compress(
            evaluator, models, net, args.lam, grids, budget=args.budget
        )
    before = network_time(models, net)
    after = network_time(models, compressed)
    print(f"time: {before:.3f} ms -> {after:.3f} ms")
    loss_before = evaluator(net)
    loss_after = evaluator(compressed)
    print(
        f"objective: {loss_before + args.lam * before:.3f} -> "
        f"{loss_after + args.lam * after:.3f}"
    )
    Path(args.out).write_bytes(save_network(compressed))
    print(f"compress: network -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
