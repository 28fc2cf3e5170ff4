"""Tree-structured piecewise-linear regression of layer execution time.

A fitted model is a binary tree of split conditions with a non-negatively
constrained linear fit at every node.  Growth is breadth-first: a node
stops when its own fit is already accurate enough, when too little data
remains, at the depth cap, or when no candidate condition can split it.

Split search scores all candidate conditions of a node at once, in three
steps.  One matrix product gives every candidate's per-side Gram sums, and
one batched solve bounds each side's NNLS error from below and above.  The
candidates whose lower bound can still reach the best upper bound are
screened by a batched NNLS over all column supports.  Only the few that
screen within a narrow band of the best are refitted row-exact, so the
chosen split and its fits are those that fitting every candidate row-exact
would choose.  Fitted models are immutable and safe to share between
threads; fitting mutates only node-local state.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import operator
from collections import deque
from collections.abc import Sequence as _SequenceABC
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Mapping, Sequence

import numpy as np

from .layers import (
    _EXACT,
    _FIELDS_BY_KIND,
    LayerKind,
    StructureConfig,
    _integer,
    _n_features,
    _number,
    _split_columns,
    _split_row,
    _too_large,
    explanatory_names,
)
# unused here: bound so that tracers which wrap these names per module find them
from .layers import derive_explanatory, derive_features  # noqa: F401
from .nnls import NumericError, _column_scale, nnls

__all__ = [
    "ConditionKind",
    "Condition",
    "Dataset",
    "LinearFit",
    "FitParams",
    "Node",
    "TimeModel",
    "ModelFormatError",
    "FORMAT_VERSION",
    "nnls_fit",
    "enumerate_conditions",
    "partition",
    "impurity",
    "fit_tree",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "save_models",
    "load_models",
]

FORMAT_VERSION = "1.0"


class ModelFormatError(ValueError):
    """A serialized model document cannot be decoded."""


class ConditionKind(enum.Enum):
    RANGE = "range"
    MULTIPLE = "multiple"


@dataclass(frozen=True, slots=True)
class Condition:
    """Split predicate on one feature.

    ``RANGE`` keeps records with ``f[j] <= tau`` (cache and working-set
    regimes); ``MULTIPLE`` keeps records with ``f[j] % tau == 0``
    (loop-unrolling and alignment effects).
    """

    feature_index: int
    tau: float
    kind: ConditionKind

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is not ConditionKind.RANGE and kind is not ConditionKind.MULTIPLE:
            raise ValueError(f"condition kind must be a ConditionKind, got {kind!r}")
        index, tau = self.feature_index, self.tau  # valid ints and floats skip the calls
        if type(index) is not int or index < 0:
            object.__setattr__(self, "feature_index", _integer("feature_index", index, 0))
        if not (isinstance(tau, float) and 0 < tau < math.inf):
            tau = _number("tau", tau, 0, strict=True)
        multiple = kind is ConditionKind.MULTIPLE
        if multiple and (tau != int(tau) or tau < 2):
            raise ValueError(f"multiple condition needs integer tau >= 2, got {self.tau}")
        object.__setattr__(self, "tau", int(tau) if multiple else float(tau))

    def holds(self, features: np.ndarray) -> np.ndarray:
        """Evaluate the predicate on a feature row or an (n, F) matrix, by :func:`_holds`."""
        column = np.asarray(features, dtype=float)[..., self.feature_index]
        return _holds(self.kind, self.tau, column)


# bound once, as layers binds its hot enum members
_RANGE = ConditionKind.RANGE


def _holds(kind: ConditionKind, tau, value):
    """The one split predicate: ``value <= tau`` (range) or ``value % tau == 0`` (multiple).

    ``value`` and ``tau`` are Python floats or broadcasting numpy arrays.  Features are
    non-negative and ``fmod`` is exact, so on Python floats ``<=`` and ``%`` give the
    bits numpy's ``less_equal`` and ``remainder`` give.
    """
    if kind is _RANGE:
        return value <= tau
    return value % tau == 0


def _round_up(width: int, tau: int) -> int:
    """The one channel rounding: the least multiple of ``tau`` at or above ``width``, in integers."""
    return tau * -(-width // tau)


def _route(node: "Node", features: Sequence[float]) -> "Node":
    """The leaf that a row of feature values reaches from ``node``.

    The conditions are read as the walk meets them, so a condition
    rewritten on a built model is followed.
    """
    while node.condition is not None:
        condition = node.condition
        holds = _holds(condition.kind, condition.tau, features[condition.feature_index])
        node = node.left if holds else node.right
    return node


@dataclass(frozen=True, eq=False)
class Dataset:
    """Profiling records of one layer kind: features, explanatory vectors, times."""

    kind: LayerKind
    features: np.ndarray
    explanatory: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        explanatory = np.atleast_2d(np.asarray(self.explanatory, dtype=float))
        times = np.asarray(self.times, dtype=float).ravel()
        n = times.shape[0]
        if features.shape[0] != n or explanatory.shape[0] != n:
            raise ValueError("features, explanatory, and times must agree in length")
        for name, values in (("features", features), ("explanatory", explanatory),
                             ("times", times)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if n and times.min() <= 0:
            raise ValueError("all measured times must be > 0")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "explanatory", explanatory)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.shape[0]

    @classmethod
    def from_records(
        cls,
        kind: LayerKind,
        configs: Sequence[StructureConfig],
        times: Sequence[float],
    ) -> "Dataset":
        if len(configs) != len(times):
            raise ValueError("configs and times must agree in length")
        for config in configs:
            if config.kind is not kind:
                raise ValueError(
                    f"dataset of kind {kind.value} got a {config.kind.value} config"
                )
        times = np.asarray(times, dtype=float)
        if len(configs) == 0:
            n_vars = len(explanatory_names(kind))
            return cls(kind, np.zeros((0, _n_features(kind))), np.zeros((0, n_vars)), times)
        names = _FIELDS_BY_KIND[kind]
        values = map(operator.attrgetter(*names), configs)
        # every config obeys the constructor, so only a size of 2**53 or more is refused
        split = _split_columns(kind, dict(zip(names, zip(*values))))
        if split is None:
            raise _too_large(kind)
        return cls(kind, *split, times)

    def subset(self, mask: np.ndarray) -> "Dataset":
        mask = np.asarray(mask, dtype=bool)
        return Dataset(
            kind=self.kind,
            features=self.features[mask],
            explanatory=self.explanatory[mask],
            times=self.times[mask],
        )


@dataclass(frozen=True, eq=False, slots=True)
class LinearFit:
    """Non-negative linear model ``y = w . x + b`` with its training errors."""

    w: np.ndarray
    b: float
    n: int
    mape: float
    mse: float

    def __post_init__(self) -> None:
        w = self.w
        # fitting passes a float array; every other weight is checked
        if not (isinstance(w, np.ndarray) and w.dtype == float):
            w = np.array([_number("weight", v) for v in w], dtype=float)
            object.__setattr__(self, "w", w)
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.size and w.min() < 0:
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "b", _number("intercept", self.b, 0))
        object.__setattr__(self, "n", _integer("n", self.n, 0))
        for name in ("mape", "mse"):  # not required finite, so any fit's errors reload
            object.__setattr__(self, name, _number(name, getattr(self, name)))

    def predict(self, explanatory: np.ndarray) -> np.ndarray:
        return np.asarray(explanatory, dtype=float) @ self.w + self.b


def _leaf_time(fit: LinearFit, explanatory) -> float:
    """``float(fit.predict(explanatory))`` for one row (a list or a 1-D array).

    ``w.dot`` runs the BLAS ``ddot`` that the one-row ``@`` runs, and the
    intercept is the same IEEE add, so the bits agree, at a fraction of the
    ``@`` call's cost.
    """
    return float(fit.w.dot(explanatory)) + fit.b


@dataclass(frozen=True)
class FitParams:
    """Stopping rules and candidate-condition generation settings."""

    mape_stop: float = 0.05
    min_leaf: int = 15
    max_depth: int = 12
    multiple_taus: tuple[int, ...] = (2, 3, 4, 6, 8, 16, 32, 64, 128)
    range_quantiles: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "mape_stop", _number("mape_stop", self.mape_stop, 0, strict=True))
        for name, least in (("min_leaf", 2), ("max_depth", 0), ("range_quantiles", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if not isinstance(self.multiple_taus, (list, tuple)):
            raise ValueError(f"multiple_taus must be a list or tuple, got {self.multiple_taus!r}")
        taus = tuple(_integer("multiple_taus entry", t, 2) for t in self.multiple_taus)
        object.__setattr__(self, "multiple_taus", taus)


@dataclass(eq=False, slots=True)
class Node:
    """One tree node: a fit, and for internal nodes a condition plus children."""

    fit: LinearFit
    condition: Condition | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.condition is None


@dataclass(frozen=True, eq=False, slots=True)
class TimeModel:
    """Immutable fitted execution-time model for one layer kind."""

    kind: LayerKind
    root: Node
    fit_params: FitParams = field(default_factory=FitParams)

    def __post_init__(self) -> None:
        for _, node in self.nodes():
            has_children = node.left is not None and node.right is not None
            no_children = node.left is None and node.right is None
            if not (has_children or no_children):
                raise ValueError("every node must have zero or two children")
            if has_children == (node.condition is None):
                raise ValueError("internal nodes carry a condition, leaves do not")

    def nodes(self) -> Iterator[tuple[int, Node]]:
        """Breadth-first (id, node) pairs; ids are the serialization ids."""
        queue: deque[Node] = deque([self.root])
        i = 0
        while queue:
            node = queue.popleft()
            yield i, node
            i += 1
            if node.left is not None:
                queue.append(node.left)
                queue.append(node.right)

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    def route_features(self, features: np.ndarray) -> Node:
        """The leaf that one feature row reaches, routed as :meth:`predict` routes."""
        return _route(self.root, np.asarray(features, dtype=float).tolist())

    def predict(self, config: StructureConfig) -> float:
        """Predicted execution time in milliseconds for one configuration.

        Raises :class:`NumericError` when the leaf's law overflows to a
        non-finite time.
        """
        return self._price_row(*self._row(config))

    def _row(self, config: StructureConfig) -> tuple[list[float], list[float]]:
        """``config``'s ``(features, explanatory)``, for a config of the model's kind."""
        if config.kind is not self.kind:
            raise ValueError(f"model fits {self.kind.value} layers, got {config.kind.value}")
        return _split_row(config)

    def _price_row(self, features: Sequence[float], explanatory) -> float:
        """The one price of a derived row: its leaf's law at ``explanatory``.

        Routed on the features alone, so an out-of-range feature index
        raises ``IndexError``; a non-finite time raises :class:`NumericError`.
        """
        time = _leaf_time(_route(self.root, features).fit, explanatory)
        if not math.isfinite(time):
            raise self._non_finite(time)
        return time

    def _non_finite(self, time: float) -> NumericError:
        """The error for a prediction ``time`` that is not finite."""
        return NumericError(f"{self.kind.value} model predicts a non-finite time ({time})")

    def predict_rows(self, features: np.ndarray, explanatory: np.ndarray) -> np.ndarray:
        """Vector of predictions for pre-derived feature/explanatory rows.

        All rows route together, one tree level at a time: each internal
        node splits the rows that reach it by :func:`_holds` on their
        feature column, reading its condition as the walk meets it, and
        each leaf prices its rows by the BLAS ``ddot`` that :func:`_leaf_time`
        runs, one row at a time (a stack of one-row ``@`` one-column
        products), plus the same intercept add.  So each row's bits equal
        :meth:`predict`'s on that row.
        Raises :class:`ValueError` when the row counts differ, and
        :class:`NumericError` for the first row, in row order, whose
        prediction is not finite.  Rows that a node or a leaf cannot read
        (an out-of-range feature index, a row of the wrong width) are priced
        row by row instead, so they raise :meth:`predict`'s error for the
        first row that meets it.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        explanatory = np.atleast_2d(np.asarray(explanatory, dtype=float))
        if features.shape[0] != explanatory.shape[0]:
            raise ValueError("features and explanatory must agree in row count")
        n = features.shape[0]
        times = np.empty(n)
        level = [(self.root, np.arange(n))] if n else []
        try:
            # a non-finite feature or time is found below, not warned about
            with np.errstate(all="ignore"):
                while level:
                    below = []
                    for node, rows in level:
                        condition = node.condition
                        if condition is None:
                            fit = node.fit
                            law = explanatory[rows][:, None, :] @ fit.w[:, None]
                            times[rows] = law[:, 0, 0] + fit.b
                            continue
                        column = features[rows, condition.feature_index]
                        holds = _holds(condition.kind, condition.tau, column)
                        for child, reached in ((node.left, rows[holds]), (node.right, rows[~holds])):
                            if reached.size:
                                below.append((child, reached))
                    level = below
        except (IndexError, ValueError):
            rows = zip(features.tolist(), explanatory.tolist())
            return np.array([self._price_row(f, x) for f, x in rows])
        finite = np.isfinite(times)
        if not finite.all():
            raise self._non_finite(float(times[np.argmin(finite)]))
        return times


def _model_for(models: Mapping[LayerKind, TimeModel], kind: LayerKind) -> TimeModel:
    """The model of ``kind`` in a kind-keyed family, or a ``ValueError`` naming the kind."""
    model = models.get(kind)
    if model is None:
        raise ValueError(f"no model for layer kind {kind.value}")
    return model


def _design(dataset: Dataset) -> np.ndarray:
    """The dataset's explanatory columns followed by an intercept column of ones."""
    return np.hstack([dataset.explanatory, np.ones((len(dataset), 1))])


def nnls_fit(dataset: Dataset) -> LinearFit:
    """Best non-negative linear fit of a dataset, with its in-sample errors."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot fit an empty dataset")
    design = _design(dataset)
    coef = nnls(design, dataset.times)
    residual = design @ coef - dataset.times
    return LinearFit(
        w=coef[:-1].copy(),  # a copy, so the fit keeps no view of the whole solution alive
        b=float(coef[-1]),
        n=n,
        mape=float(np.mean(np.abs(residual) / dataset.times)),
        mse=float(np.mean(residual**2)),
    )


class _Candidates(_SequenceABC):
    """The candidate conditions of a node, held as arrays.

    Each :class:`Condition` is built when it is read, so a split search
    builds only those of the contenders it refits.  It equals a list of the
    same conditions, as the list it stands for would.
    """

    __slots__ = ("_features", "_taus", "_multiple")

    def __init__(self, features: np.ndarray, taus: np.ndarray, multiple: np.ndarray) -> None:
        self._features, self._taus, self._multiple = features, taus, multiple

    def __len__(self) -> int:
        return self._taus.shape[0]

    def __getitem__(self, i: int) -> Condition:
        kind = ConditionKind.MULTIPLE if self._multiple[i] else _RANGE
        return Condition(int(self._features[i]), self._taus[i], kind)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, _Candidates)):
            return list(self) == list(other)
        return NotImplemented


def _multiple_masks(columns: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """``_holds(MULTIPLE, moduli[:, None, None], columns)`` for (features, rows) columns.

    Columns of integers below ``2**53`` in magnitude, under moduli below it,
    take int64 ``%``, which gives the booleans of the float ``%`` (exact on
    such values) at a fraction of its cost; every other column takes
    :func:`_holds`.
    """
    masks = np.empty((moduli.shape[0], *columns.shape), dtype=bool)
    integral = np.zeros(columns.shape[0], dtype=bool)
    if moduli.size and moduli.max() < _EXACT:
        integral = ((columns == np.trunc(columns)) & (np.abs(columns) < _EXACT)).all(axis=1)
        ints = columns[integral].astype(np.int64)
        masks[:, integral] = ints % moduli.astype(np.int64)[:, None, None] == 0
    masks[:, ~integral] = _holds(ConditionKind.MULTIPLE, moduli[:, None, None], columns[~integral])
    return masks


def _candidates(dataset: Dataset, params: FitParams) -> tuple[_Candidates, np.ndarray]:
    """Candidate split conditions of a node's data and their (candidates, rows) masks.

    The masks of every varying feature are built at once: one (tau, feature,
    row) array for the moduli and one for the quantile thresholds, counted
    along the rows.  Candidates come feature by feature: the moduli in their
    order, then the distinct thresholds in ascending order.
    """
    n = len(dataset)
    if n == 0:
        empty = _Candidates(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=bool))
        return empty, np.zeros((0, 0), dtype=bool)
    features = dataset.features
    varying = np.flatnonzero(features.min(axis=0) < features.max(axis=0))
    columns = np.ascontiguousarray(features[:, varying].T)
    moduli = np.array(params.multiple_taus, dtype=float)
    quantile_levels = np.linspace(0.0, 1.0, params.range_quantiles + 2)[1:-1]
    # sorted per feature, so equal thresholds are neighbours: a threshold is
    # usable once, where its run starts, and only above zero
    thresholds = np.sort(np.quantile(features, quantile_levels, axis=0)[:, varying], axis=0)
    usable = thresholds > 0
    usable[1:] &= thresholds[1:] != thresholds[:-1]
    masks = np.concatenate([
        _multiple_masks(columns, moduli),
        _holds(_RANGE, thresholds[:, :, None], columns),
    ])
    n_left = np.count_nonzero(masks, axis=2)
    passing = (params.min_leaf <= n_left) & (n_left <= n - params.min_leaf)
    passing[moduli.shape[0]:] &= usable
    # (feature, candidate) pairs in feature-major order
    feature, candidate = np.nonzero(passing.T)
    taus = np.concatenate([np.broadcast_to(moduli[:, None], (moduli.shape[0], varying.size)),
                           thresholds])
    conditions = _Candidates(
        varying[feature], taus[candidate, feature], candidate < moduli.shape[0]
    )
    return conditions, masks[candidate, feature]


def enumerate_conditions(dataset: Dataset, params: FitParams) -> list[Condition]:
    """Candidate split conditions for a node's data.

    Per feature: multiple conditions for each configured modulus that
    populates both residue classes, and range conditions at deduplicated
    empirical quantiles.  Candidates leaving either side with fewer than
    ``min_leaf`` records are dropped, so the list may be empty.
    """
    return list(_candidates(dataset, params)[0])


def partition(dataset: Dataset, condition: Condition) -> tuple[Dataset, Dataset]:
    """Split records into (satisfying, complement), preserving order."""
    mask = condition.holds(dataset.features)
    return dataset.subset(mask), dataset.subset(~mask)


def _weighted_impurity(n_left: int, mse_left: float, n_right: int, mse_right: float) -> float:
    # size-weighted mean of the two side errors
    return (n_left * mse_left + n_right * mse_right) / (n_left + n_right)


def impurity(dataset: Dataset, condition: Condition) -> float:
    """Size-weighted mean squared error of the two side fits under a condition."""
    mask = condition.holds(dataset.features)
    if mask.all() or not mask.any():
        raise ValueError("condition produces a one-sided partition")
    return _exact_split(dataset, condition, mask).impurity


@dataclass(frozen=True, eq=False)
class _Split:
    condition: Condition
    mask: np.ndarray
    left_fit: LinearFit
    right_fit: LinearFit
    impurity: float


def _tie_break_key(condition: Condition) -> tuple[int, int, float]:
    # prefer multiple over range, then lower feature index, then smaller tau
    return (
        0 if condition.kind is ConditionKind.MULTIPLE else 1,
        condition.feature_index,
        condition.tau,
    )


# Screened impurities within this relative band of the best one (plus an
# absolute floor for sums that cancel to near zero) are confirmed exactly.
_SCREEN_BAND = 1e-6
_SCREEN_FLOOR = 1e-9
# Supports whose unit-diagonal Gram block has a smaller eigenvalue are
# treated as singular and skipped.
_SINGULAR = 1e-12


def _screen_floor(dataset: Dataset) -> float:
    """Absolute part of the screening band, in impurity units."""
    # the sums' rounding grows like n·eps times the node's mean square time
    rounding = max(_SCREEN_FLOOR, 16 * len(dataset) * np.finfo(float).eps)
    return rounding * float(np.mean(dataset.times**2))


def _split_sums(dataset: Dataset, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gram matrices, ``Aᵀy`` and ``yᵀy`` of both sides of every candidate.

    ``A`` is the node's design (explanatory columns plus an intercept),
    max-abs scaled as :func:`nnls` scales it.  Rows ``0..C-1`` of each
    result are the candidates' left sides, rows ``C..2C-1`` their right.
    """
    design = _design(dataset)
    rows = np.hstack([design / _column_scale(design), dataset.times[:, None]])
    k = design.shape[1]
    upper = np.triu_indices(k + 1)
    products = rows[:, upper[0]] * rows[:, upper[1]]
    left = masks.astype(float) @ products
    sums = np.concatenate([left, products.sum(axis=0) - left])
    augmented = np.empty((sums.shape[0], k + 1, k + 1))
    augmented[:, upper[0], upper[1]] = sums
    augmented[:, upper[1], upper[0]] = sums
    return augmented[:, :k, :k], augmented[:, :k, k], augmented[:, k, k]


def _unit_scaled(gram: np.ndarray, aty: np.ndarray) -> tuple[np.ndarray, ...]:
    """Non-zero columns, unit-diagonal Grams, scaled ``Aᵀy``, and which unit Grams
    have their smallest eigenvalue above ``_SINGULAR`` (a zero column's is 0)."""
    norm = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    nonzero = norm > 0.0
    norm = np.where(nonzero, norm, 1.0)
    unit = gram / (norm[:, :, None] * norm[:, None, :])
    return nonzero, unit, aty / norm, np.linalg.eigvalsh(unit)[:, 0] > _SINGULAR


def _batched_nnls_sse(gram: np.ndarray, aty: np.ndarray, yty: np.ndarray) -> np.ndarray:
    """Minimum of ``||A x - y||²`` over ``x >= 0`` for a batch of problems.

    Each problem is given by its Gram matrix, ``Aᵀy`` and ``yᵀy``.  Every
    support (non-empty column subset) is solved unconstrained, with one
    batched solve over all supports of each size; a support counts where
    its Gram block is non-singular and its solution strictly positive.  An
    NNLS optimum always lies on such a support or at ``x = 0``, so the
    minimum over them is exact up to rounding.  For non-negative columns,
    skipping a near-singular support costs at most about
    ``k · _SINGULAR · yᵀy``.
    """
    k = aty.shape[1]
    # eigenvalues interlace, so a well-conditioned problem has no singular
    # support, and only the others need a check per support
    nonzero, unit, scaled_aty, robust = _unit_scaled(gram, aty)
    best = yty.copy()
    for size in range(1, k + 1):
        cols = np.array(list(itertools.combinations(range(k), size)))
        # all supports of one size at once, as (support, problem) pairs; each
        # support's blocks keep the layout that indexing one support at a
        # time gives (problem fastest, then row, then column), because
        # einsum's summation order follows the memory layout
        blocks = unit[:, cols[:, :, None], cols[:, None, :]].transpose(1, 3, 2, 0)
        g = np.ascontiguousarray(blocks).transpose(0, 3, 2, 1)
        ok = nonzero[:, cols].all(axis=2).T
        check = ok & ~robust
        if check.any():
            ok[check] = np.linalg.eigvalsh(g[check])[:, 0] > _SINGULAR
        g[~ok] = np.eye(size)
        b = scaled_aty[:, cols].transpose(1, 0, 2)
        z = np.linalg.solve(g, b[..., None])[..., 0]
        ok &= (z > 0.0).all(axis=2)
        # stationary form: first-order insensitive to the solve's error
        sse = yty - 2.0 * (b * z).sum(axis=2) + np.einsum("tbi,tbij,tbj->tb", z, g, z)
        ok &= sse < best
        best = np.minimum(best, np.where(ok, sse, np.inf).min(axis=0))
    return best


def _sse_bounds(
    gram: np.ndarray, aty: np.ndarray, yty: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on :func:`_batched_nnls_sse` of every problem.

    One batched solve on the unit-scaled Grams gives the unconstrained
    least-squares error: every support's error, and ``yᵀy`` at ``x = 0``,
    is at least as large, so it is the lower bound.  One active-set step
    gives the upper bound: re-solve with the non-positive coefficients
    pinned at zero (identity rows and columns, zero right-hand side) and
    clip at zero.  That point is feasible, so its error is at least the
    NNLS optimum.  Both are evaluated in the screen's stationary form.

    A problem with a zero column, or whose unit Gram has its smallest
    eigenvalue at or below ``_SINGULAR``, gets ``(0, inf)``.  Above that
    guard the screen skips no support (eigenvalues interlace), so it holds
    the NNLS optimum up to rounding and the two bounds bracket it; below,
    the screen may skip the optimal support and report more than a
    feasible point's error.  The stationary form raises the lower bound by
    only the second-order ``δᵀ G δ`` of the solve error ``δ``.  On the
    400-network synthetic fit profiles of seeds 1 to 6, no lower bound of
    a problem above the guard exceeded its screen by more than
    ``5e-16 · yᵀy``, far below the band's floor of ``1e-9 · yᵀy``.
    """
    k = aty.shape[1]
    _, unit, scaled_aty, bounded = _unit_scaled(gram, aty)
    unit[~bounded] = np.eye(k)
    z = np.linalg.solve(unit, scaled_aty[..., None])[..., 0]
    free = z > 0.0
    pinned = np.where(free[:, :, None] & free[:, None, :], unit, np.eye(k))
    x = np.linalg.solve(pinned, np.where(free, scaled_aty, 0.0)[..., None])[..., 0]
    x = np.maximum(x, 0.0)

    def sse(v: np.ndarray) -> np.ndarray:
        return yty - 2.0 * (scaled_aty * v).sum(axis=1) + np.einsum("bi,bij,bj->b", v, unit, v)

    return np.where(bounded, sse(z), 0.0), np.where(bounded, sse(x), np.inf)


def _screened_impurities(dataset: Dataset, masks: np.ndarray) -> np.ndarray:
    """Screened impurity of every candidate, or a lower bound for the hopeless.

    A candidate whose lower-bound impurity exceeds the best upper-bound
    impurity by twice the screening band cannot come within the band of
    the lowest screen, so it is not screened and reports its (finite)
    lower bound.  The factor 2 is headroom for the bounds rounding
    differently from the screen.  The winner's lower bound is at most its
    screen, the lowest one, which is at most every candidate's upper
    bound, so the winner always survives.
    """
    gram, aty, yty = _split_sums(dataset, masks)
    count, n = masks.shape[0], len(dataset)
    lower, upper = ((sse[:count] + sse[count:]) / n for sse in _sse_bounds(gram, aty, yty))
    best = float(upper.min())
    survive = ~(lower > best + 2.0 * (_SCREEN_BAND * abs(best) + _screen_floor(dataset)))
    sides = np.concatenate([survive, survive])
    sse = _batched_nnls_sse(gram[sides], aty[sides], yty[sides])
    half = sse.shape[0] // 2
    lower[survive] = (sse[:half] + sse[half:]) / n
    return lower


def _exact_split(dataset: Dataset, condition: Condition, mask: np.ndarray) -> _Split:
    left_fit = nnls_fit(dataset.subset(mask))
    right_fit = nnls_fit(dataset.subset(~mask))
    return _Split(
        condition=condition,
        mask=mask,
        left_fit=left_fit,
        right_fit=right_fit,
        impurity=_weighted_impurity(left_fit.n, left_fit.mse, right_fit.n, right_fit.mse),
    )


def _best_split(dataset: Dataset, params: FitParams) -> _Split | None:
    """The impurity-minimizing candidate condition of a node, or ``None``.

    All candidates are scored in batched passes: their side sums come from
    one matrix product, :func:`_sse_bounds` bounds their side NNLS errors,
    and only the candidates whose lower bound can still reach the band are
    screened by :func:`_batched_nnls_sse` (the others report their lower
    bound, which lies above the band).  Only the contenders, whose
    screened impurity lies within a small band of the best, are refitted
    row-exact with :func:`nnls_fit`.  Among those, every split within a
    relative ``1e-12`` of the lowest impurity ties, and
    :func:`_tie_break_key` picks one.  The chosen condition and its fits
    are therefore exactly those of scoring every candidate with
    :func:`nnls_fit`.
    """
    candidates, masks = _candidates(dataset, params)
    if not candidates:
        return None
    screened = _screened_impurities(dataset, masks)
    finite = np.isfinite(screened)
    contenders = ~finite
    if finite.any():
        lowest = float(screened[finite].min())
        contenders |= screened <= lowest + _SCREEN_BAND * abs(lowest) + _screen_floor(dataset)
    splits = [
        _exact_split(dataset, candidates[i], masks[i]) for i in np.flatnonzero(contenders)
    ]
    best = min(split.impurity for split in splits)
    threshold = best + 1e-12 * abs(best)
    eligible = [split for split in splits if split.impurity <= threshold]
    return min(eligible, key=lambda split: _tie_break_key(split.condition))


def fit_tree(dataset: Dataset, params: FitParams | None = None) -> TimeModel:
    """Grow the condition tree breadth-first.

    Every node records its own fit.  A dequeued node becomes a leaf when
    its in-sample MAPE is below ``mape_stop``, when it holds fewer than
    ``min_leaf`` records, at ``max_depth``, or when no candidate condition
    survives; otherwise the impurity-minimizing condition splits it and
    both children are fitted and enqueued.
    """
    if params is None:
        params = FitParams()
    if len(dataset) == 0:
        raise ValueError("cannot fit an empty dataset")
    root = Node(fit=nnls_fit(dataset))
    queue: deque[tuple[Node, Dataset, int]] = deque([(root, dataset, 0)])
    while queue:
        node, data, depth = queue.popleft()
        if node.fit.mape < params.mape_stop:
            continue
        if len(data) < params.min_leaf:
            continue
        if depth >= params.max_depth:
            continue
        split = _best_split(data, params)
        if split is None:
            continue
        node.condition = split.condition
        node.left = Node(fit=split.left_fit)
        node.right = Node(fit=split.right_fit)
        queue.append((node.left, data.subset(split.mask), depth + 1))
        queue.append((node.right, data.subset(~split.mask), depth + 1))
    return TimeModel(kind=dataset.kind, root=root, fit_params=params)


# --- serialization ---------------------------------------------------------


def model_to_dict(model: TimeModel) -> dict:
    ordered = list(model.nodes())
    ids = {id(node): i for i, node in ordered}
    nodes = []
    for i, node in ordered:
        cond, fit = node.condition, node.fit
        # the fit's own fields are already Python numbers
        nodes.append(
            {
                "id": i,
                "cond": None if cond is None else
                {"feature": cond.feature_index, "tau": cond.tau, "kind": cond.kind.value},
                "w": fit.w.tolist(),
                "b": fit.b, "n": fit.n, "mape": fit.mape, "mse": fit.mse,
                "left": ids[id(node.left)] if node.left is not None else None,
                "right": ids[id(node.right)] if node.right is not None else None,
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "layer_kind": model.kind.value,
        "fit_params": asdict(model.fit_params),
        "nodes": nodes,
    }


def _check_version(doc: dict, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``doc`` carries a ``format_version`` of this major."""
    version = doc.get("format_version")
    major = FORMAT_VERSION.split(".", 1)[0]
    if not isinstance(version, str) or "." not in version:
        raise error(f"missing or malformed format_version: {version!r}")
    if version.split(".", 1)[0] != major:
        raise error(f"unsupported format_version {version!r} (expected major {major})")


def _fit_params_from_dict(doc: dict) -> FitParams:
    if not isinstance(doc, dict):
        raise ModelFormatError("'fit_params' must be an object")
    # unknown keys, such as the noise_seed of older files, are ignored
    return FitParams(**{f.name: doc[f.name] for f in fields(FitParams) if f.name in doc})


def model_from_dict(doc: dict) -> TimeModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be an object")
    _check_version(doc, ModelFormatError)
    try:
        kind = LayerKind(doc["layer_kind"])
        ids = [_integer("node id", nd["id"]) for nd in doc["nodes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not ids:
        raise ModelFormatError("model document has no nodes")
    node_docs: dict[int, dict] = {}
    for node_id, nd in zip(ids, doc["nodes"]):
        if node_id in node_docs:
            raise ModelFormatError(f"node id {node_id} appears more than once")
        node_docs[node_id] = nd
    # fitted trees may hold any width; a stored one must match its kind
    n_features = _n_features(kind)
    n_vars = len(explanatory_names(kind))

    def decode(node_id: int) -> tuple[Node, int | None, int | None]:
        try:
            nd = node_docs[node_id]
        except KeyError:
            raise ModelFormatError(f"missing node id {node_id}") from None
        try:
            fit = LinearFit(w=nd["w"], b=nd["b"], n=nd.get("n", 0),
                            mape=nd.get("mape", 0.0), mse=nd.get("mse", 0.0))
            condition = None
            if nd.get("cond") is not None:
                cd = nd["cond"]
                condition = Condition(
                    feature_index=cd["feature"], tau=cd["tau"], kind=ConditionKind(cd["kind"])
                )
            left_id, right_id = nd.get("left"), nd.get("right")
            if left_id is not None and right_id is not None:
                left_id, right_id = _integer("left", left_id), _integer("right", right_id)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed node {node_id}: {exc}") from exc
        if fit.w.shape != (n_vars,):
            raise ModelFormatError(
                f"node {node_id}: {kind.value} fits need {n_vars} weights, got {fit.w.size}"
            )
        if condition is not None and condition.feature_index >= n_features:
            raise ModelFormatError(
                f"node {node_id}: feature {condition.feature_index} is out of range "
                f"for the {n_features} {kind.value} features"
            )
        if (left_id is None) != (right_id is None):
            raise ModelFormatError(f"node {node_id} has exactly one child")
        return Node(fit=fit, condition=condition), left_id, right_id

    # depth-first from an explicit stack, left child first; every id may be
    # reached once, so a cycle or a child shared by two parents is an error
    root = None
    seen: set[int] = set()
    stack: list[tuple[Node | None, str, int]] = [(None, "", 0)]
    while stack:
        parent, side, node_id = stack.pop()
        if node_id in seen:
            raise ModelFormatError(f"node {node_id} is reached twice (a cycle or a shared child)")
        seen.add(node_id)
        node, left_id, right_id = decode(node_id)
        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
        if left_id is not None:
            stack += [(node, "right", right_id), (node, "left", left_id)]
    unreachable = node_docs.keys() - seen
    if unreachable:
        raise ModelFormatError(f"node {min(unreachable)} is not reachable from node 0")

    try:
        return TimeModel(
            kind=kind, root=root, fit_params=_fit_params_from_dict(doc.get("fit_params", {}))
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def _dump(doc) -> bytes:
    """The one encoding of every document: sorted keys, one-space indent, UTF-8."""
    return json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")


def _parse_json(data: bytes | str, error: type[ValueError], where: str = ""):
    """Decode one JSON document or record, raising ``error`` when it is not valid JSON.

    Bytes must be UTF-8, as JSON text is (RFC 8259).  ``where`` (a path, or
    ``path:line`` for a record) prefixes the message.
    """
    prefix = f"{where}: " if where else ""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{prefix}not valid UTF-8: {exc}") from exc
    try:
        return json.loads(data)
    # ValueError also covers an integer literal too long to parse
    except (ValueError, RecursionError) as exc:  # the latter: nested too deeply
        raise error(f"{prefix}not valid JSON: {exc}") from exc


def save_model(model: TimeModel) -> bytes:
    """Serialize a model; ``load_model`` restores it with identical predictions."""
    return _dump(model_to_dict(model))


def load_model(data: bytes | str) -> TimeModel:
    return model_from_dict(_parse_json(data, ModelFormatError))


def save_models(models: dict[LayerKind, TimeModel]) -> bytes:
    """Serialize a kind-keyed family of models into one document."""
    return _dump(_models_to_dict(models))


def _models_to_dict(models: dict[LayerKind, TimeModel]) -> dict:
    """A versioned document whose ``models`` list holds each model in kind order."""
    return {
        "format_version": FORMAT_VERSION,
        "models": [model_to_dict(models[kind]) for kind in sorted(models, key=lambda k: k.value)],
    }


def _models_from_dict(doc) -> dict[LayerKind, TimeModel]:
    """The kind-keyed models of a versioned document with a ``models`` list."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must be a JSON object")
    _check_version(doc, ModelFormatError)
    entries = doc.get("models")
    if not isinstance(entries, list):
        raise ModelFormatError("'models' must be a list of model documents")
    models: dict[LayerKind, TimeModel] = {}
    for entry in entries:
        model = model_from_dict(entry)
        if model.kind in models:
            raise ModelFormatError(f"duplicate model for kind {model.kind.value}")
        models[model.kind] = model
    return models


def load_models(data: bytes | str) -> dict[LayerKind, TimeModel]:
    doc = _parse_json(data, ModelFormatError)
    if isinstance(doc, dict) and "models" not in doc:
        # single-model document
        model = model_from_dict(doc)
        return {model.kind: model}
    return _models_from_dict(doc)
