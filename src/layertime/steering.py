"""Structure expansion to execution-time local minima and compression steering.

Expansion walks a fitted condition tree, rounding width coordinates up to
the moduli of multiple-condition nodes whenever the node's own fits say
the rounded structure runs no slower.  Each committed rounding strictly
grows an integer width, never past twice its original, so the walks end.
Whole networks are expanded layer by layer, pricing each layer once; a
width conflict between neighbours re-prices only the layer each choice
changes and keeps the choice with the smaller total predicted time.
Compression couples an external loss evaluator with the predicted network
time into one objective and searches layer widths by coordinate descent
(or exhaustively, as a test oracle).

Expansion is pure given an immutable model.  Evaluator calls are assumed
expensive and side-effect-free; the search invokes the evaluator at most
``budget`` times.
"""

from __future__ import annotations

import functools
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .layers import (
    RECURRENT_KINDS,
    LayerKind,
    StructureConfig,
    _integer,
    _number,
    _split_row,
    _width_at,
    _with_widths,
    config_from_dict,
    config_to_dict,
    explanatory_names,
    width_fields,
)
# unused here: bound so that tracers which wrap these names per module find them
from .layers import derive_explanatory, derive_features  # noqa: F401
from .nnls import NumericError
from .tree import (
    FORMAT_VERSION,
    _RANGE,
    TimeModel,
    _check_version,
    _dump,
    _holds,
    _leaf_time,
    _model_for,
    _parse_json,
    _round_up,
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


def _coupled_kinds(a: LayerKind, b: LayerKind) -> bool:
    # consecutive layers share a width only within the same family: CNN or dense
    return (a is LayerKind.CNN) is (b is LayerKind.CNN)


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


def _network(layers: tuple[StructureConfig, ...]) -> NetworkSpec:
    """A network of layers whose shared widths the caller has just made agree.

    It skips the check of ``NetworkSpec.__post_init__``, which would only
    repeat the caller's.
    """
    net = object.__new__(NetworkSpec)
    object.__setattr__(net, "layers", layers)
    return net


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


def _walk(
    model: TimeModel, config: StructureConfig, original: StructureConfig, row: tuple[list, list]
) -> tuple[StructureConfig, list[AcceptedExpansion], tuple[list, list]]:
    """One walk from the root, rounding widths toward cheaper multiples.

    ``row`` is ``config``'s ``(features, explanatory)``.  Returns the walked
    config, the roundings committed, and the walked config's row, which the
    next walk starts from.  A walk that commits nothing returns ``config``
    itself.
    """
    current = config
    # routed and priced on the Python floats of one derivation
    f, x = row
    trail: list = []
    accepted: list[AcceptedExpansion] = []
    node = model.root
    while node.condition is not None:
        cond = node.condition
        if cond.kind is _RANGE:
            truth = _holds(cond.kind, cond.tau, f[cond.feature_index])
            trail.append((cond, truth))
            node = node.left if truth else node.right
            continue
        tau = cond.tau
        if _holds(cond.kind, tau, f[cond.feature_index]):
            # routed onto the multiple: branch toward the cheaper sibling fit
            expanded_time = _leaf_time(node.left.fit, x)
            current_time = _leaf_time(node.right.fit, x)
            node = node.left if expanded_time <= current_time else node.right
            continue
        field = _width_at(model.kind, cond.feature_index)
        if field is not None:
            width = getattr(current, field)
            target = _round_up(width, tau)
            if width < target <= _EXPANSION_CAP * getattr(original, field):
                candidate = _with_widths(current, **{field: target})
                f_hat, x_hat = _split_row(candidate)
                expanded_time = _leaf_time(node.left.fit, x_hat)
                current_time = _leaf_time(node.right.fit, x)
                if expanded_time <= current_time and _obeys_trail(trail, f_hat):
                    accepted.append(AcceptedExpansion(field, tau, expanded_time, current_time))
                    current, f, x = candidate, f_hat, x_hat
                    node = node.left
                    continue
        node = node.right
    return current, accepted, (f, x)


def expand_layer(
    model: TimeModel, config: StructureConfig
) -> tuple[StructureConfig, LayerExpansion]:
    """Round a layer's widths up to nearby execution-time local minima.

    The tree walk is iterated to a fixed point, and the result is kept only
    if the full-model prediction did not get worse.  Hence the returned
    configuration never predicts slower than the input and never shrinks a
    coordinate.  Re-expanding it is nearly always a no-op, but not always:
    the 2x cap is taken from the walk's input, so a rounding the cap
    blocked may pass once the width has grown (a small random tree takes
    (1, 3) to (1, 4), and (1, 4) to (1, 8)).  The iteration ends: each
    committed rounding strictly grows an integer width to the least
    multiple of a node's modulus above it, so a width never passes the
    next common multiple of those moduli at or above its start, nor twice
    its original.  The input is derived and priced once, before the walk, so
    a config of another kind than the model's is rejected as
    :meth:`TimeModel.predict` rejects it.
    """
    row = model._row(config)
    time_before = model._price_row(*row)
    in_field, out_field = width_fields(config.kind)
    width_total = getattr(config, in_field) + getattr(config, out_field)
    current = config
    accepted: list[AcceptedExpansion] = []
    for _ in range(_EXPANSION_CAP * width_total + 1):
        # every committed rounding grows a width, so a walk that commits
        # nothing is the fixed point
        current, walk_accepted, row = _walk(model, current, config, row)
        if not walk_accepted:
            break
        accepted.extend(walk_accepted)
    # an unchanged layer keeps its price; a changed one is priced from its walk's row
    time_after = time_before if current is config else model._price_row(*row)
    reverted = time_after > time_before
    if reverted:
        current = config
        time_after = time_before
        accepted = []
    entry = LayerExpansion(config, current, time_before, time_after, tuple(accepted), reverted)
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

    The fixed point is per layer: each entry's expansion is one that
    :func:`expand_layer` leaves unchanged, but a conflict can move a shared
    width off it, so expanding the result again may change it.
    """
    entries = tuple(
        expand_layer(_model_for(model_map, layer.kind), layer)[1] for layer in net.layers
    )
    expanded, conflicts, _ = _reconcile(
        entries,
        lambda config: _model_for(model_map, config.kind).predict(config),
        _shared_widths(net.layers),
    )
    trace = ExpansionTrace(entries=entries, conflicts=conflicts, reverted=expanded is None)
    return (net if expanded is None else expanded), trace


def _reconcile(
    entries: Sequence[LayerExpansion],
    price: Callable[[StructureConfig], float],
    junctions: Sequence[tuple[int, str, str]],
) -> tuple[NetworkSpec | None, tuple[ConflictResolution, ...], list[float]]:
    """Resolve the width conflicts between expanded neighbours, in layer order.

    ``price`` gives a configuration's predicted time, and ``junctions`` are
    the layers' :func:`_shared_widths`.  Returns the
    reconciled network, or ``None`` when it predicts slower in total than
    the unexpanded layers, together with the conflicts met on the way and
    the per-layer times of the network returned (of the unexpanded layers
    for ``None``).
    """
    configs = [entry.expanded for entry in entries]
    times = [entry.time_after for entry in entries]

    conflicts: list[ConflictResolution] = []
    for i, out_field, in_field in junctions:
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
    return _network(tuple(configs)), tuple(conflicts), times


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


def _layer_key(layers: Sequence[StructureConfig]) -> int:
    """The objective's cache key of a network: the hash of its layers' hashes."""
    return hash(tuple(map(hash, layers)))


class _Objective:
    """Caching, budget-limited view of the compression objective."""

    def __init__(self, evaluator, model_map, lam, budget):
        self.evaluator = evaluator
        self.model_map = model_map
        self.lam = lam
        self.budget = budget
        self.calls = 0
        # keyed on _layer_key, so a lookup and its store hash the network once;
        # each slot keeps its network, and a second network of the same key
        # goes to ``collided``
        self.cache: dict[int, tuple[NetworkSpec, float]] = {}
        self.collided: dict[NetworkSpec, float] = {}
        self.prices: dict[StructureConfig, float] = {}

    # one dict lookup per hit, so a hit hashes its key once
    def price(self, config: StructureConfig) -> float:
        """Predicted time of one layer, each distinct configuration priced once."""
        predicted = self.prices.get(config)
        if predicted is None:
            predicted = _model_for(self.model_map, config.kind).predict(config)
            self.prices[config] = predicted
        return predicted

    def __call__(
        self, net: NetworkSpec, times: Sequence[float] | None = None, key: int | None = None
    ) -> float:
        """The objective of ``net``.

        ``times``, if given, are its layers' prices, and ``key``, if given,
        is its :func:`_layer_key`.
        """
        if key is None:
            key = _layer_key(net.layers)
        slot = self.cache.get(key)
        if slot is not None and slot[0].layers == net.layers:
            return slot[1]
        value = None if slot is None else self.collided.get(net)
        if value is None:
            if self.calls >= self.budget:
                raise _BudgetExhausted
            self.calls += 1
            if times is None:
                times = (self.price(c) for c in net.layers)
            value = _score(self.evaluator(net), self.lam, times)
            if slot is None:
                self.cache[key] = net, value
            else:
                self.collided[net] = value
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


@functools.lru_cache(maxsize=128)
def _width_plan(kinds: tuple[LayerKind, ...]) -> tuple[tuple[str, str | None], ...]:
    """Per layer: its output width field, and the next layer's input field if they share it."""
    next_inputs = {i: in_field for i, _, in_field in _junctions(kinds)}
    return tuple((width_fields(kind)[1], next_inputs.get(i)) for i, kind in enumerate(kinds))


def _apply_widths(net: NetworkSpec, widths: Sequence[int]) -> NetworkSpec:
    layers = list(net.layers)
    plan = _width_plan(tuple([layer.kind for layer in layers]))
    for i, width in enumerate(widths):
        out_field, next_input = plan[i]
        # a valid network already gives a shared next input this width too
        if getattr(layers[i], out_field) == width:
            continue
        layers[i] = _with_widths(layers[i], **{out_field: width})
        if next_input is not None:
            layers[i + 1] = _with_widths(layers[i + 1], **{next_input: width})
    return _network(tuple(layers))


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
    model_map: Mapping[LayerKind, TimeModel],
    net: NetworkSpec,
    grids: list[list[int]],
    links: Mapping[int, tuple[str, str]],
) -> list[dict[int | None, list[tuple[int, LayerExpansion, int]]]]:
    """Expansion of each layer under every width pair ``_apply_widths`` gives it.

    Layer i depends only on ``w[i]`` and, when it shares its input width
    with layer ``i - 1`` (``i in links``), on ``w[i - 1]``.  One table per
    layer maps that source width (``None`` when the input width is not
    shared) to a row of ``(w[i], expansion, hash of the expanded config)``
    in grid order.
    """
    tables = []
    for i, layer in enumerate(net.layers):
        model = _model_for(model_map, layer.kind)
        in_field, out_field = width_fields(layer.kind)
        table = {}
        for w_in in grids[i - 1] if i in links else [None]:
            row = table[w_in] = []
            for w_out in grids[i]:
                changes = {out_field: w_out} if w_in is None else {in_field: w_in, out_field: w_out}
                entry = expand_layer(model, _with_widths(layer, **changes))[1]
                row.append((w_out, entry, hash(entry.expanded)))
        tables.append(table)
    return tables


def brute_force_compress(
    evaluator: Callable[[NetworkSpec], float],
    model_map: Mapping[LayerKind, TimeModel],
    net: NetworkSpec,
    lam: float,
    width_grid: Sequence[Sequence[int]],
) -> NetworkSpec:
    """Best expanded width combination of the grid (test oracle).

    Every width combination is expanded before scoring, exactly as
    ``expand_network`` would expand it, and only that expanded form (the
    combination itself when its expansion reverts) is scored; ties go to
    the lexicographically smallest widths.  This is the grid's exact
    minimizer when expanding never worsens the objective, as for a loss
    that never grows with width.  For a loss that grows with width an
    unexpanded combination can score lower, and ``greedy_compress``, which
    scores its moves unexpanded, can then end below this search.

    Each layer is expanded once per width pair it can take, and the
    objective never predicts a configuration that a table entry already
    priced: each combination is scored from the layer times that
    reconciling its entries settled on.  The combinations are walked as a
    prefix tree, so each entry is looked up and each junction checked once
    per prefix; only a combination whose entries conflict or revert goes
    through the conflict pass.
    """
    lam = _number("lam", lam, 0)
    grids = _check_grid(net, width_grid)
    total = math.prod(len(grid) for grid in grids)
    if total > 1_000_000:
        raise ValueError(f"search space of {total} candidates is too large")
    objective = _Objective(evaluator, model_map, lam, budget=math.inf)
    junctions = _shared_widths(net.layers)
    # layer i + 1 shares its input width with layer i's output
    links = {i + 1: (out_field, in_field) for i, out_field, in_field in junctions}
    tables = _width_tables(model_map, net, grids, links)
    # expand_layer already predicted both ends of every entry, so only a
    # conflict's re-priced layer can reach a model
    for table in tables:
        for row in table.values():
            for _, entry, _ in row:
                objective.prices[entry.original] = entry.time_before
                objective.prices[entry.expanded] = entry.time_after
    # every objective is finite, and the grids are not empty, so some combination wins
    best_value, best = math.inf, net
    for cells, layers, keys, after, before, agree in _combinations(tables, links):
        # the conflict pass keeps agreeing entries unless their total reverts;
        # summed by sum(), as it sums, since sum() of floats is compensated
        # from Python 3.12 on and a running sum would not keep its bits there
        if agree and sum(after) <= sum(before):
            candidate = _network(layers)
            # hash(keys) is the _layer_key of layers, from the tables' hashes
            value = objective(candidate, after, hash(keys))
        else:
            candidate, _, times = _reconcile([c[1] for c in cells], objective.price, junctions)
            if candidate is None:
                candidate = _apply_widths(net, [c[0] for c in cells])
            value = objective(candidate, times)
        if value < best_value:
            best_value, best = value, candidate
    return best


def _combinations(
    tables: list[dict[int | None, list[tuple[int, LayerExpansion, int]]]],
    links: Mapping[int, tuple[str, str]],
    i: int = 0,
    prefix: tuple = ((), (), (), (), (), True),
) -> Iterator[tuple]:
    """Every combination of the width tables' cells, in the order of ``itertools.product``.

    A combination is ``(cells, layers, keys, after, before, agree)``: its
    cells, its entries' expanded configs and their hashes, its entries'
    times after and before expansion, and whether the expanded configs agree
    on every junction.  ``links`` maps a layer to the (output, input) fields
    it shares with the layer before.  The walk is depth first, so each
    prefix is built, and each of its junctions checked, once.
    """
    if i == len(tables):
        yield prefix  # an empty network's one combination
        return
    cells, layers, keys, after, before, agree = prefix
    link = links.get(i)
    last = i + 1 == len(tables)
    for cell in tables[i][cells[-1][0] if link else None]:
        entry = cell[1]
        expanded = entry.expanded
        combination = (
            cells + (cell,),
            layers + (expanded,),
            keys + (cell[2],),
            after + (entry.time_after,),
            before + (entry.time_before,),
            agree and (link is None or getattr(layers[-1], link[0]) == getattr(expanded, link[1])),
        )
        if last:
            yield combination
        else:
            yield from _combinations(tables, links, i + 1, combination)


def rnn_time_floor(model: TimeModel, net: NetworkSpec) -> float:
    """Irreducible per-step setup time of the network's recurrent layers.

    Each matching layer is routed at its minimal structure (both dims 1)
    and contributes ``step count x leaf step coefficient``: the part of
    its time that no width compression can remove.
    """
    if model.kind not in RECURRENT_KINDS:
        raise ValueError(f"model kind {model.kind.value} is not recurrent")
    step_index = explanatory_names(model.kind).index("step")
    floor = 0.0
    for layer in net.layers:
        if layer.kind is not model.kind:
            continue
        features, _ = _split_row(_with_widths(layer, in_dim=1, out_dim=1))
        leaf = _route(model.root, features)
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
