"""Structure expansion to execution-time local minima and compression steering.

Expansion walks a fitted condition tree, rounding width coordinates up to
the moduli of multiple-condition nodes whenever the node's own fits say
the rounded structure runs no slower.  Whole networks are expanded layer
by layer, pricing each layer once; a width conflict between neighbours
re-prices only the layer each choice changes and keeps the choice with
the smaller total predicted time.  Compression couples an external loss
evaluator with the predicted network time into one objective and searches
layer widths by coordinate descent (or exhaustively, as a test oracle).

Expansion is pure given an immutable model.  Evaluator calls are assumed
expensive and side-effect-free; the search invokes the evaluator at most
``budget`` times.
"""

from __future__ import annotations

import functools
import itertools
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .layers import (
    RECURRENT_KINDS,
    LayerKind,
    StructureConfig,
    _integer,
    _n_features,
    _number,
    _row_values,
    _with_widths,
    config_from_dict,
    config_to_dict,
    explanatory_names,
    feature_names,
    width_fields,
)
# unused here: bound so that tracers which wrap these names per module find them
from .layers import derive_explanatory, derive_features  # noqa: F401
from .nnls import NumericError
from .tree import (
    FORMAT_VERSION,
    ConditionKind,
    TimeModel,
    _check_version,
    _dump,
    _holds,
    _model_for,
    _parse_json,
    _route,
)

__all__ = [
    "NetworkSpec",
    "NetworkFormatError",
    "EvaluationError",
    "AcceptedExpansion",
    "LayerExpansion",
    "ConflictResolution",
    "ExpansionTrace",
    "ACCEPTANCE_RULE",
    "CommandEvaluator",
    "expand_layer",
    "expand_network",
    "zero_pad_plan",
    "TensorEmbed",
    "LayerPadPlan",
    "network_time",
    "time_aware_objective",
    "greedy_compress",
    "brute_force_compress",
    "rnn_time_floor",
    "save_network",
    "load_network",
    "network_to_dict",
    "network_from_dict",
]

#: Expansions commit only when the expanded structure is predicted to run
#: no slower than the structure as it stands.
ACCEPTANCE_RULE = "accept when expanded_time <= current_time"

# width growth cap, as a multiple of the original coordinate
_EXPANSION_CAP = 2

# wall-clock limit on one external loss evaluation, in seconds
_EVALUATOR_TIMEOUT_S = 600.0


class NetworkFormatError(ValueError):
    """A serialized network document cannot be decoded."""


class EvaluationError(RuntimeError):
    """An external loss evaluation failed."""


_DENSE_KINDS = frozenset({LayerKind.FC, LayerKind.GRU, LayerKind.LSTM})


def _coupled_kinds(a: LayerKind, b: LayerKind) -> bool:
    # consecutive layers share a width only within the same family
    if a is LayerKind.CNN and b is LayerKind.CNN:
        return True
    return a in _DENSE_KINDS and b in _DENSE_KINDS


def _shared_widths(layers: Sequence[StructureConfig]) -> tuple[tuple[int, str, str], ...]:
    """``(i, output field of layer i, input field of layer i + 1)`` per coupled pair."""
    return _junctions(tuple([layer.kind for layer in layers]))


@functools.lru_cache(maxsize=128)
def _junctions(kinds: tuple[LayerKind, ...]) -> tuple[tuple[int, str, str], ...]:
    # the junctions depend on the kind sequence alone, so each is found once
    return tuple(
        (i, width_fields(a)[1], width_fields(b)[0])
        for i, (a, b) in enumerate(zip(kinds, kinds[1:]))
        if _coupled_kinds(a, b)
    )


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Ordered layer configurations with consistent shared widths."""

    layers: tuple[StructureConfig, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        for i, out_field, in_field in _shared_widths(self.layers):
            a, b = self.layers[i], self.layers[i + 1]
            if getattr(a, out_field) != getattr(b, in_field):
                raise ValueError(
                    f"layers {i} and {i + 1} disagree on their shared width: "
                    f"{getattr(a, out_field)} vs {getattr(b, in_field)}"
                )

    def __len__(self) -> int:
        return len(self.layers)


@dataclass(frozen=True, slots=True)
class AcceptedExpansion:
    """One committed rounding, with the two node predictions that allowed it."""

    feature: str
    tau: int
    expanded_time: float
    current_time: float


@dataclass(frozen=True, slots=True)
class LayerExpansion:
    original: StructureConfig
    expanded: StructureConfig
    time_before: float
    time_after: float
    accepted: tuple[AcceptedExpansion, ...] = ()
    reverted: bool = False


@dataclass(frozen=True, slots=True)
class ConflictResolution:
    """A junction where neighbouring expansions disagreed on the shared width."""

    junction: int
    upstream_width: int
    downstream_width: int
    time_with_upstream: float
    time_with_downstream: float
    kept: str


@dataclass(frozen=True, slots=True)
class ExpansionTrace:
    entries: tuple[LayerExpansion, ...]
    conflicts: tuple[ConflictResolution, ...] = ()
    reverted: bool = False
    rule: str = ACCEPTANCE_RULE


def _obeys_trail(trail: list, features: Sequence[float]) -> bool:
    return all(
        _holds(cond.kind, cond.tau, features[cond.feature_index]) == truth for cond, truth in trail
    )


def _walk_once(
    model: TimeModel, config: StructureConfig, original: StructureConfig
) -> tuple[StructureConfig, list[AcceptedExpansion]]:
    n = _n_features(model.kind)
    current = config
    # routed on the Python floats of one derivation, priced on its explanatory array
    values = _row_values(current)
    f, x = values[:n], np.array(values[n:])
    trail: list = []
    accepted: list[AcceptedExpansion] = []
    node = model.root
    while node.condition is not None:
        cond = node.condition
        if cond.kind is ConditionKind.RANGE:
            truth = _holds(cond.kind, cond.tau, f[cond.feature_index])
            trail.append((cond, truth))
            node = node.left if truth else node.right
            continue
        tau = cond.tau
        value = f[cond.feature_index]
        target = tau * math.ceil(value / tau)
        if target == value:
            # already on the multiple: branch toward the cheaper sibling fit
            expanded_time = float(node.left.fit.predict(x))
            current_time = float(node.right.fit.predict(x))
            node = node.left if expanded_time <= current_time else node.right
            continue
        field = feature_names(model.kind)[cond.feature_index]
        expandable = field in width_fields(model.kind)
        if expandable and target <= _EXPANSION_CAP * getattr(original, field):
            candidate = _with_widths(current, **{field: target})
            values = _row_values(candidate)
            f_hat, x_hat = values[:n], np.array(values[n:])
            expanded_time = float(node.left.fit.predict(x_hat))
            current_time = float(node.right.fit.predict(x))
            if expanded_time <= current_time and _obeys_trail(trail, f_hat):
                accepted.append(
                    AcceptedExpansion(
                        feature=field,
                        tau=tau,
                        expanded_time=expanded_time,
                        current_time=current_time,
                    )
                )
                current, f, x = candidate, f_hat, x_hat
                node = node.left
                continue
        node = node.right
    return current, accepted


def expand_layer(
    model: TimeModel, config: StructureConfig
) -> tuple[StructureConfig, LayerExpansion]:
    """Round a layer's widths up to nearby execution-time local minima.

    The tree walk is iterated to a fixed point (each committed rounding
    strictly grows an integer width under a hard 2x cap, so the iteration
    terminates), and the result is kept only if the full-model prediction
    did not get worse.  Hence the returned configuration never predicts
    slower than the input, never shrinks a coordinate, and re-expanding it
    is a no-op.  The input is priced before the walk, so
    :meth:`TimeModel.predict` rejects a config of another kind than the model's.
    """
    time_before = model.predict(config)
    width_total = sum(getattr(config, name) for name in width_fields(config.kind))
    current = config
    accepted: list[AcceptedExpansion] = []
    for _ in range(_EXPANSION_CAP * width_total + 1):
        walked, walk_accepted = _walk_once(model, current, config)
        if walked == current:
            break
        accepted.extend(walk_accepted)
        current = walked
    time_after = model.predict(current)
    reverted = time_after > time_before
    if reverted:
        current = config
        time_after = time_before
        accepted = []
    entry = LayerExpansion(
        original=config,
        expanded=current,
        time_before=time_before,
        time_after=time_after,
        accepted=tuple(accepted),
        reverted=reverted,
    )
    return current, entry


def expand_network(
    model_map: Mapping[LayerKind, TimeModel], net: NetworkSpec
) -> tuple[NetworkSpec, ExpansionTrace]:
    """Expand every layer, then reconcile neighbouring width conflicts.

    Layers are processed in order, and each layer's predicted time is kept.
    When an expanded output width and the next layer's expanded input
    width disagree, each consistent choice re-prices only the one layer it
    changes, and the choice with the smaller network total is kept.  The
    result is adjacency-consistent and never predicts slower in total than
    the input network.
    """
    entries = tuple(
        expand_layer(_model_for(model_map, layer.kind), layer)[1] for layer in net.layers
    )
    expanded, conflicts, _ = _reconcile(
        entries, lambda config: _model_for(model_map, config.kind).predict(config)
    )
    trace = ExpansionTrace(entries=entries, conflicts=conflicts, reverted=expanded is None)
    return (net if expanded is None else expanded), trace


def _reconcile(
    entries: Sequence[LayerExpansion], price: Callable[[StructureConfig], float]
) -> tuple[NetworkSpec | None, tuple[ConflictResolution, ...], list[float]]:
    """Resolve the width conflicts between expanded neighbours, in layer order.

    ``price`` gives a configuration's predicted time.  Returns the
    reconciled network, or ``None`` when it predicts slower in total than
    the unexpanded layers, together with the conflicts met on the way and
    the per-layer times of the network returned (of the unexpanded layers
    for ``None``).
    """
    configs = [entry.expanded for entry in entries]
    times = [entry.time_after for entry in entries]

    conflicts: list[ConflictResolution] = []
    for i, out_field, in_field in _shared_widths(configs):
        upstream = getattr(configs[i], out_field)
        downstream = getattr(configs[i + 1], in_field)
        if upstream == downstream:
            continue
        # each choice changes one layer, so only that layer is re-priced
        with_upstream = _with_widths(configs[i + 1], **{in_field: upstream})
        upstream_times = list(times)
        upstream_times[i + 1] = price(with_upstream)
        with_downstream = _with_widths(configs[i], **{out_field: downstream})
        downstream_times = list(times)
        downstream_times[i] = price(with_downstream)
        upstream_total, downstream_total = sum(upstream_times), sum(downstream_times)
        if downstream_total < upstream_total:
            kept, configs[i], times = "downstream", with_downstream, downstream_times
        else:
            kept, configs[i + 1], times = "upstream", with_upstream, upstream_times
        conflicts.append(
            ConflictResolution(i, upstream, downstream, upstream_total, downstream_total, kept)
        )

    times_before = [entry.time_before for entry in entries]
    if sum(times) > sum(times_before):
        return None, tuple(conflicts), times_before
    return NetworkSpec(tuple(configs)), tuple(conflicts), times


def network_time(model_map: Mapping[LayerKind, TimeModel], net: NetworkSpec) -> float:
    """Total predicted execution time of a network, in milliseconds.

    Raises :class:`NumericError` when the total is not finite, although
    every layer's time may be.
    """
    total = sum(_model_for(model_map, c.kind).predict(c) for c in net.layers)
    if not math.isfinite(total):
        raise NumericError(f"network predicts a non-finite total time ({total})")
    return total


def time_aware_objective(
    evaluator: Callable[[NetworkSpec], float],
    model_map: Mapping[LayerKind, TimeModel],
    net: NetworkSpec,
    lam: float,
) -> float:
    """Compression objective: evaluator loss plus ``lam`` times predicted time.

    Raises :class:`EvaluationError` when the loss is not a finite number
    >= 0, and :class:`NumericError` when the objective is not finite.
    """
    lam = _number("lam", lam, 0)
    times = (_model_for(model_map, c.kind).predict(c) for c in net.layers)
    return _score(evaluator(net), lam, times)


def _score(loss, lam: float, times: Iterable[float]) -> float:
    """``loss + lam * sum(times)``, the one scoring of every compression objective.

    The loss is checked before ``times`` is read, so a lazy ``times``
    prices nothing for an invalid loss.
    """
    loss = float(loss)
    if not math.isfinite(loss) or loss < 0:
        raise EvaluationError(f"evaluator returned invalid loss {loss!r}")
    # the same terms in the same order as network_time
    value = loss + lam * sum(times)
    if not math.isfinite(value):
        raise NumericError(f"compression objective is non-finite ({value})")
    return value


# --- zero-padding plans ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TensorEmbed:
    """Where each old weight block lands inside the expanded tensor.

    ``blocks`` pairs source ranges with destination ranges, one
    ``(start, stop)`` per axis; everything outside the destination blocks
    is zero-filled.  Weight layouts: FC ``(in, out)``; CNN
    ``(kh, kw, in_c, out_c)``; GRU/LSTM gates concatenated along the
    columns of ``(in + out, gates * out)``.
    """

    name: str
    old_shape: tuple[int, ...]
    new_shape: tuple[int, ...]
    blocks: tuple[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True, slots=True)
class LayerPadPlan:
    index: int
    kind: LayerKind
    tensors: tuple[TensorEmbed, ...]


def _origin_embed(name: str, old_shape: tuple[int, ...], new_shape: tuple[int, ...]) -> TensorEmbed:
    ranges = tuple((0, extent) for extent in old_shape)
    return TensorEmbed(name=name, old_shape=old_shape, new_shape=new_shape,
                       blocks=((ranges, ranges),))


def _layer_embeds(old: StructureConfig, new: StructureConfig) -> list[TensorEmbed]:
    kind = old.kind
    if kind is LayerKind.FC:
        return [
            _origin_embed("weight", (old.in_dim, old.out_dim), (new.in_dim, new.out_dim)),
            _origin_embed("bias", (old.out_dim,), (new.out_dim,)),
        ]
    if kind is LayerKind.CNN:
        kernel = (old.kernel_height, old.kernel_width)
        return [
            _origin_embed(
                "weight", kernel + (old.in_channel, old.out_channel),
                kernel + (new.in_channel, new.out_channel),
            ),
            _origin_embed("bias", (old.out_channel,), (new.out_channel,)),
        ]
    gates = 3 if kind is LayerKind.GRU else 4
    i0, o0 = old.in_dim, old.out_dim
    i1, o1 = new.in_dim, new.out_dim
    row_blocks = [((0, i0), (0, i0)), ((i0, i0 + o0), (i1, i1 + o0))]
    col_blocks = [((g * o0, (g + 1) * o0), (g * o1, g * o1 + o0)) for g in range(gates)]
    weight_blocks = tuple(
        ((rows_src, cols_src), (rows_dst, cols_dst))
        for rows_src, rows_dst in row_blocks
        for cols_src, cols_dst in col_blocks
    )
    bias_blocks = tuple(((src,), (dst,)) for src, dst in col_blocks)
    return [
        TensorEmbed(
            name="weight",
            old_shape=(i0 + o0, gates * o0),
            new_shape=(i1 + o1, gates * o1),
            blocks=weight_blocks,
        ),
        TensorEmbed(
            name="bias", old_shape=(gates * o0,), new_shape=(gates * o1,),
            blocks=bias_blocks,
        ),
    ]


def zero_pad_plan(old: NetworkSpec, new: NetworkSpec) -> tuple[LayerPadPlan, ...]:
    """Index plan embedding each old weight block into its expanded shape.

    Purely a shape/indices artifact: applying it copies the old blocks and
    zero-fills the rest, which leaves the network function unchanged.
    Only width coordinates may differ between ``old`` and ``new``, and
    never downward.
    """
    if len(old.layers) != len(new.layers):
        raise ValueError("networks must have the same number of layers")
    plans: list[LayerPadPlan] = []
    for i, (a, b) in enumerate(zip(old.layers, new.layers)):
        if a.kind is not b.kind:
            raise ValueError(f"layer {i} changes kind: {a.kind.value} -> {b.kind.value}")
        widths = set(width_fields(a.kind))
        for name in config_to_dict(a):
            if name == "kind" or name in widths:
                continue
            if getattr(a, name) != getattr(b, name):
                raise ValueError(f"layer {i} changes non-width field {name}")
        for name in widths:
            if getattr(b, name) < getattr(a, name):
                raise ValueError(
                    f"layer {i} shrinks {name}: {getattr(a, name)} -> {getattr(b, name)}"
                )
        if a == b:
            continue
        plans.append(LayerPadPlan(index=i, kind=a.kind, tensors=tuple(_layer_embeds(a, b))))
    return tuple(plans)


# --- compression search ------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


class _Objective:
    """Caching, budget-limited view of the compression objective."""

    def __init__(self, evaluator, model_map, lam, budget):
        self.evaluator = evaluator
        self.model_map = model_map
        self.lam = lam
        self.budget = budget
        self.calls = 0
        # frozen configs make networks hashable, with field-wise equality
        self.cache: dict[NetworkSpec, float] = {}
        self.prices: dict[StructureConfig, float] = {}

    # one dict lookup per hit, so a hit hashes its key once
    def price(self, config: StructureConfig) -> float:
        """Predicted time of one layer, each distinct configuration priced once."""
        predicted = self.prices.get(config)
        if predicted is None:
            predicted = _model_for(self.model_map, config.kind).predict(config)
            self.prices[config] = predicted
        return predicted

    def __call__(self, net: NetworkSpec, times: Sequence[float] | None = None) -> float:
        """The objective of ``net``; ``times``, if given, are its layers' prices."""
        value = self.cache.get(net)
        if value is None:
            if self.calls >= self.budget:
                raise _BudgetExhausted
            self.calls += 1
            if times is None:
                times = (self.price(c) for c in net.layers)
            value = _score(self.evaluator(net), self.lam, times)
            self.cache[net] = value
        return value


def _check_grid(net: NetworkSpec, width_grid: Sequence[Sequence[int]]) -> list[list[int]]:
    if len(width_grid) != len(net.layers):
        raise ValueError("width_grid must give one candidate list per layer")
    grids: list[list[int]] = []
    for i, grid in enumerate(width_grid):
        widths = sorted({_integer(f"layer {i} grid width", w, 1) for w in grid})
        if not widths:
            raise ValueError(f"empty width grid for layer {i}")
        grids.append(widths)
    return grids


def _apply_widths(net: NetworkSpec, widths: Sequence[int]) -> NetworkSpec:
    layers = list(net.layers)
    next_inputs = {i: in_field for i, _, in_field in _shared_widths(layers)}
    for i, width in enumerate(widths):
        out_field = width_fields(layers[i].kind)[1]
        # a valid network already gives a shared next input this width too
        if getattr(layers[i], out_field) == width:
            continue
        layers[i] = _with_widths(layers[i], **{out_field: width})
        if i in next_inputs:
            layers[i + 1] = _with_widths(layers[i + 1], **{next_inputs[i]: width})
    return NetworkSpec(tuple(layers))


def _current_widths(net: NetworkSpec) -> list[int]:
    return [getattr(layer, width_fields(layer.kind)[1]) for layer in net.layers]


def greedy_compress(
    evaluator: Callable[[NetworkSpec], float],
    model_map: Mapping[LayerKind, TimeModel],
    net: NetworkSpec,
    lam: float,
    width_grid: Sequence[Sequence[int]],
    budget: int = 1000,
) -> NetworkSpec:
    """Coordinate descent over layer widths, then a final expansion pass.

    Repeatedly applies the single-layer width move (neighbouring input
    widths repaired) that most decreases the objective, stopping at a
    local optimum or when the evaluator budget (at least 1 call) runs
    out.  The converged network is expanded to nearby execution-time
    local minima, and the expansion is kept only if it does not worsen
    the objective, so the result never scores above the input network.
    """
    lam = _number("lam", lam, 0)
    budget = _integer("budget", budget, 1)
    grids = _check_grid(net, width_grid)
    objective = _Objective(evaluator, model_map, lam, budget)
    current = net
    try:
        best = objective(current)
        while True:
            # strictly better than the best so far, so a tie goes to the first move
            move = None
            widths = _current_widths(current)
            for i, grid in enumerate(grids):
                for width in grid:
                    if width == widths[i]:
                        continue
                    candidate_widths = list(widths)
                    candidate_widths[i] = width
                    candidate = _apply_widths(current, candidate_widths)
                    value = objective(candidate)
                    if value < best:
                        best, move = value, candidate
            if move is None:
                break
            current = move
        expanded, _ = expand_network(model_map, current)
        if expanded != current and objective(expanded) <= best:
            current = expanded
    except _BudgetExhausted:
        pass
    return current


def _width_tables(
    model_map: Mapping[LayerKind, TimeModel], net: NetworkSpec, grids: list[list[int]]
) -> list[tuple[int | None, dict[tuple[int | None, int], LayerExpansion]]]:
    """Expansion of each layer under every width pair ``_apply_widths`` gives it.

    Layer i depends only on ``w[i]`` and, when it shares its input width
    with layer ``j = i - 1``, on ``w[j]``.  One ``(j, table)`` per layer;
    the table is keyed on ``(w[j], w[i])``, or on ``(None, w[i])`` with
    ``j = None`` when the input width is not shared.
    """
    tables = []
    sources = {i + 1: i for i, _, _ in _shared_widths(net.layers)}
    for i, layer in enumerate(net.layers):
        model = _model_for(model_map, layer.kind)
        in_field, out_field = width_fields(layer.kind)
        j = sources.get(i)
        table = {}
        for w_in in [None] if j is None else grids[j]:
            for w_out in grids[i]:
                changes = {out_field: w_out} if j is None else {in_field: w_in, out_field: w_out}
                table[w_in, w_out] = expand_layer(model, _with_widths(layer, **changes))[1]
        tables.append((j, table))
    return tables


def brute_force_compress(
    evaluator: Callable[[NetworkSpec], float],
    model_map: Mapping[LayerKind, TimeModel],
    net: NetworkSpec,
    lam: float,
    width_grid: Sequence[Sequence[int]],
) -> NetworkSpec:
    """Exact grid minimizer of the compression objective (test oracle).

    Every width combination is expanded before scoring, exactly as
    ``expand_network`` would expand it; ties go to the lexicographically
    smallest widths.  Each layer is expanded once per width pair it can
    take, and the objective never predicts a configuration that a table
    entry already priced: each combination is scored from the layer times
    that reconciling its entries settled on.
    """
    lam = _number("lam", lam, 0)
    grids = _check_grid(net, width_grid)
    total = math.prod(len(grid) for grid in grids)
    if total > 1_000_000:
        raise ValueError(f"search space of {total} candidates is too large")
    objective = _Objective(evaluator, model_map, lam, budget=math.inf)
    tables = _width_tables(model_map, net, grids)
    # expand_layer already predicted both ends of every entry, so only a
    # conflict's re-priced layer can reach a model
    for _, table in tables:
        for entry in table.values():
            objective.prices[entry.original] = entry.time_before
            objective.prices[entry.expanded] = entry.time_after
    # every objective is finite, and the grids are not empty, so some combination wins
    best_value, best = math.inf, net
    for widths in itertools.product(*grids):
        entries = [
            table[None if j is None else widths[j], width]
            for (j, table), width in zip(tables, widths)
        ]
        expanded, _, times = _reconcile(entries, objective.price)
        if expanded is None:
            expanded = _apply_widths(net, widths)
        value = objective(expanded, times)
        if value < best_value:
            best_value, best = value, expanded
    return best


def rnn_time_floor(model: TimeModel, net: NetworkSpec) -> float:
    """Irreducible per-step setup time of the network's recurrent layers.

    Each matching layer is routed at its minimal structure (both dims 1)
    and contributes ``step count x leaf step coefficient``: the part of
    its time that no width compression can remove.
    """
    if model.kind not in RECURRENT_KINDS:
        raise ValueError(f"model kind {model.kind.value} is not recurrent")
    step_index = explanatory_names(model.kind).index("step")
    n = _n_features(model.kind)
    floor = 0.0
    for layer in net.layers:
        if layer.kind is not model.kind:
            continue
        values = _row_values(_with_widths(layer, in_dim=1, out_dim=1))
        leaf = _route(model.root, values[:n])
        floor += layer.step * float(leaf.fit.w[step_index])
    return floor


# --- network files and external evaluators -----------------------------------


def network_to_dict(net: NetworkSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "layers": [config_to_dict(layer) for layer in net.layers],
        "links": [
            {"src": i, "dst": i + 1, "field": f"{out_field}->{in_field}"}
            for i, out_field, in_field in _shared_widths(net.layers)
        ],
    }


def network_from_dict(doc: dict) -> NetworkSpec:
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise NetworkFormatError("network document must be an object with a 'layers' list")
    _check_version(doc, NetworkFormatError)
    try:
        layers = tuple(config_from_dict(record) for record in doc["layers"])
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"malformed layer record: {exc}") from exc
    try:
        net = NetworkSpec(layers)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc
    # links are derived from layer order; a listed one must be one of them
    links = doc.get("links", [])
    if not isinstance(links, list):
        raise NetworkFormatError("'links' must be a list")
    derived = network_to_dict(net)["links"]
    for link in links:
        # true == 1 and 1.0 == 1 in Python, so the ids must also be exact ints
        if link not in derived or type(link["src"]) is not int or type(link["dst"]) is not int:
            raise NetworkFormatError(
                f"link {link!r} does not join adjacent layers by their shared width"
            )
    return net


def save_network(net: NetworkSpec) -> bytes:
    return _dump(network_to_dict(net))


def load_network(data: bytes | str) -> NetworkSpec:
    return network_from_dict(_parse_json(data, NetworkFormatError))


class CommandEvaluator:
    """Loss evaluator backed by an external command.

    The command is invoked with the path of a network file appended to its
    arguments and must print a single non-negative loss on stdout; a
    nonzero exit status, or running longer than ten minutes, is an
    evaluation failure.
    """

    def __init__(self, command: str | Sequence[str]):
        # imported here: only an external evaluator needs shlex and subprocess
        import shlex

        self.argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.argv:
            raise ValueError("evaluator command must not be empty")

    def __call__(self, net: NetworkSpec) -> float:
        import subprocess

        with tempfile.TemporaryDirectory(prefix="layertime-eval-") as workdir:
            path = Path(workdir) / "network.json"
            path.write_bytes(save_network(net))
            try:
                proc = subprocess.run(
                    [*self.argv, str(path)],
                    capture_output=True,
                    text=True,
                    timeout=_EVALUATOR_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired as exc:
                raise EvaluationError(
                    f"evaluator did not finish within {exc.timeout:g} s"
                ) from exc
        if proc.returncode != 0:
            raise EvaluationError(
                f"evaluator exited with status {proc.returncode}: {proc.stderr.strip()}"
            )
        tokens = proc.stdout.split()
        if not tokens:
            raise EvaluationError("evaluator printed no loss value")
        try:
            loss = float(tokens[0])
        except ValueError as exc:
            raise EvaluationError(f"evaluator printed a non-numeric loss: {tokens[0]!r}") from exc
        if not math.isfinite(loss) or loss < 0:
            raise EvaluationError(f"evaluator returned invalid loss {loss!r}")
        return loss
