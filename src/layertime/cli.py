"""Command-line front end: plan, synth, fit, predict, analyze, expand, compress.

All subcommands are deterministic under fixed seeds and write their primary
outputs to explicit paths.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure.

The module imports only the standard library: numpy and the model core load
once argparse has accepted a subcommand, so ``--help`` and arguments that do
not parse never pay for them.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module
from pathlib import Path

__all__ = ["main"]

_DEFAULT_WIDTH_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


def _deferred(module: str, name: str):
    """A stand-in for ``module.name`` that imports ``module`` when first called.

    Each subcommand then loads only the modules it runs.  The stand-ins stay
    module-level names that the subcommands look up at call time, so
    replacing ``layertime.cli.<name>`` (as ``bench/tracer.py`` does) reaches
    every call.
    """
    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


fit_tree = _deferred("tree", "fit_tree")
generate_plan = _deferred("harness", "generate_plan")
synth_profile = _deferred("harness", "synth_profile")
coefficient_pvalues = _deferred("analysis", "coefficient_pvalues")
expand_network = _deferred("steering", "expand_network")
network_time = _deferred("steering", "network_time")
greedy_compress = _deferred("steering", "greedy_compress")
brute_force_compress = _deferred("steering", "brute_force_compress")


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
    # omitted (None): the FitParams default
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--mape-stop", type=float)
    p.add_argument("--max-depth", type=int)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict one layer's execution time")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True, help="path to a flat config record")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("analyze", help="significance and safe-expansion report")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset")
    p.add_argument("--config", help="CNN config fixing the region geometry; a region certifies "
                   "its node's two fits, which price a layer only when both children are leaves")
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
        if getattr(args, "func", None) is None:
            raise _UsageError("a subcommand is required (see --help)")
    except _UsageError as exc:
        return _fail("usage", exc, 1)
    # only a subcommand that will run pays for numpy and the model core
    import numpy as np

    from .nnls import NumericError

    try:
        # a non-finite result is reported once, as a NumericError, not also
        # as numpy's overflow warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as exc:
        return _fail("usage", exc, 1)
    except NumericError as exc:
        return _fail("numeric", exc, 3)
    except Exception as exc:  # every *FormatError, OSError, EvaluationError and the rest
        return _fail("data", exc, 2)


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print ``exc`` as one ``error: {kind}: …`` line, its own line breaks joined by `` | ``."""
    message = " | ".join(str(exc).splitlines())
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def _cmd_plan(args) -> int:
    from .harness import save_plan

    if args.networks < 1:
        raise _UsageError("--networks must be >= 1")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    plan = generate_plan(n_networks=args.networks, seed=args.seed)
    save_plan(plan, args.out)
    print(f"plan: {len(plan)} components across {args.networks} networks -> {args.out}")
    return 0


def _load(path: str, decode):
    """``decode`` of the bytes of the file at ``path``; a ``ValueError`` names the file."""
    data = Path(path).read_bytes()  # an OSError names it already
    try:
        return decode(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_config(data: bytes):
    from .layers import config_from_dict
    from .tree import _parse_json

    return config_from_dict(_parse_json(data, ValueError))


def _cmd_synth(args) -> int:
    from .harness import default_oracle, load_oracle, load_plan, write_profile

    plan = load_plan(args.plan)
    oracle = default_oracle() if args.oracle == "default" else _load(args.oracle, load_oracle)
    write_profile(synth_profile(oracle, plan), args.out)
    print(f"synth: {len(plan)} records -> {args.out}")
    return 0


def _split_dataset(dataset: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    import numpy as np

    n = len(dataset)
    order = rng.permutation(n)
    n_test = n // 4
    test_mask = np.zeros(n, dtype=bool)
    test_mask[order[:n_test]] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)


def _cmd_fit(args) -> int:
    import numpy as np

    from .harness import ingest_profile
    from .tree import FitParams, save_models

    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    given = {"mape_stop": args.mape_stop, "min_leaf": args.min_leaf, "max_depth": args.max_depth}
    try:
        params = FitParams(**{name: v for name, v in given.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(f"bad fit parameter: {exc}") from exc
    data = ingest_profile(args.dataset)
    if not data:
        raise ValueError("profile contains no records")
    rng = np.random.default_rng(args.seed)
    models = {}
    for kind in data:
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


def _cmd_predict(args) -> int:
    from .tree import _model_for, load_models

    models = _load(args.model, load_models)
    config = _load(args.config, _load_config)
    print(f"{_model_for(models, config.kind).predict(config):.3f} ms")
    return 0


def _cmd_analyze(args) -> int:
    from dataclasses import asdict

    from .analysis import ConvGeometry, _regions
    from .harness import ingest_profile
    from .layers import LayerKind, _width_at
    from .tree import FORMAT_VERSION, _dump, load_models

    models = _load(args.model, load_models)
    # JSON has no infinity: an exact fit's infinite t and an unbounded region's bound are null
    report: dict = {"format_version": FORMAT_VERSION, "significance": {}, "regions": []}

    if args.dataset:
        data = ingest_profile(args.dataset)
        for kind in data:
            significance = coefficient_pvalues(data[kind])
            report["significance"][kind.value] = [
                {
                    "variable": v.name,
                    "coefficient": v.coefficient,
                    "t_statistic": None if math.isinf(v.t_statistic) else v.t_statistic,
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
        config = _load(args.config, _load_config)
        if config.kind is not LayerKind.CNN:
            raise ValueError("region analysis needs a CNN config")
        model = models.get(LayerKind.CNN)
        if model is None:
            raise ValueError("no CNN model in the model file")
        for node_id, region in _regions(model, ConvGeometry.from_config(config)).items():
            feature = _width_at(LayerKind.CNN, region.condition.feature_index)
            report["regions"].append(
                {
                    "node": node_id,
                    "feature": feature,
                    "tau": region.condition.tau,
                    "delta": region.delta,
                    "polynomial": asdict(region.contour),
                    "bound": None if math.isinf(region.bound) else region.bound,
                    "verified": region.verified,
                }
            )
            bound = "inf" if region.bound == float("inf") else f"{region.bound:.3f}"
            print(
                f"region: node {node_id} {feature} % {region.condition.tau} -> "
                f"bound {bound} verified={region.verified}"
            )

    Path(args.out).write_bytes(_dump(report))
    print(f"analyze: report -> {args.out}")
    return 0


def _trace_to_dict(trace) -> dict:
    from dataclasses import asdict

    from .layers import config_to_dict

    doc = asdict(trace)
    # the layer configs hold enums, so they take their canonical flat encoding
    for entry, layer in zip(doc["entries"], trace.entries):
        entry["original"] = config_to_dict(layer.original)
        entry["expanded"] = config_to_dict(layer.expanded)
    return doc


def _cmd_expand(args) -> int:
    """Expand ``--network``: price both totals, write ``--trace``, then ``--out``, then print.

    A non-finite total or a failed write thus leaves no ``--out`` file and
    prints no result.
    """
    from .steering import load_network, save_network
    from .tree import _dump, load_models

    models = _load(args.model, load_models)
    net = _load(args.network, load_network)
    expanded, trace = expand_network(models, net)
    before = network_time(models, net)
    after = network_time(models, expanded)
    if args.trace:
        Path(args.trace).write_bytes(_dump(_trace_to_dict(trace)))
    Path(args.out).write_bytes(save_network(expanded))
    for i, entry in enumerate(trace.entries):
        print(
            f"layer {i} ({entry.original.kind.value}): "
            f"{entry.time_before:.3f} ms -> {entry.time_after:.3f} ms"
        )
    print(f"total: {before:.3f} ms -> {after:.3f} ms")
    print(f"expand: network -> {args.out}")
    return 0


def _parse_width_grid(spec: str, net) -> list[list[int]]:
    from .steering import _current_widths

    try:
        fractions = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --width-grid: {exc}") from exc
    # written so that NaN fails it too
    if not fractions or any(not 0 < f <= 1 for f in fractions):
        raise _UsageError("--width-grid needs fractions in (0, 1]")
    return [sorted({max(1, round(w * f)) for f in fractions}) for w in _current_widths(net)]


def _cmd_compress(args) -> int:
    from .steering import CommandEvaluator, load_network, save_network, time_aware_objective
    from .tree import load_models

    models = _load(args.model, load_models)
    net = _load(args.network, load_network)
    if not 0 <= args.lam < math.inf:
        raise _UsageError("--lambda must be finite and >= 0")
    if args.budget < 1:
        raise _UsageError("--budget must be >= 1")
    try:
        evaluate = (
            CommandEvaluator(args.evaluator_cmd)
            if args.evaluator_cmd is not None
            else (lambda _: 0.0)
        )
    except ValueError as exc:  # an empty or unbalanced command
        raise _UsageError(f"bad --evaluator-cmd: {exc}") from exc
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
    # the search may never have scored the input network
    objective_before = time_aware_objective(evaluator, models, net, args.lam)
    objective_after = time_aware_objective(evaluator, models, compressed, args.lam)
    print(f"time: {before:.3f} ms -> {after:.3f} ms")
    print(f"objective: {objective_before:.3f} -> {objective_after:.3f}")
    Path(args.out).write_bytes(save_network(compressed))
    print(f"compress: network -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
