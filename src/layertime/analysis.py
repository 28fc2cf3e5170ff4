"""Statistical and analytical post-processing of fitted time models.

Covers per-variable significance of the explanatory vector, the expansion
benefit of rounding a channel count up at a multiple-condition node, the
square region in channel space where that rounding provably helps, and a
simplified predictor that snaps configurations up before routing.  All
functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .layers import (
    LayerKind,
    Padding,
    StructureConfig,
    _derived,
    _integer,
    _too_large,
    _with_widths,
    cnn,
    conv_output_dims,
    explanatory_names,
    feature_names,
    width_fields,
)
from .nnls import NumericError
from .tree import Condition, ConditionKind, Dataset, LinearFit, TimeModel, _design

__all__ = [
    "VariableSignificance",
    "SignificanceReport",
    "ConvGeometry",
    "ChannelPolynomial",
    "ExpansionRegion",
    "SimplifiedTimeModel",
    "coefficient_pvalues",
    "channel_time_polynomial",
    "expansion_benefit",
    "safe_region",
    "verify_region",
    "simplify_model",
]

# default outer edge when verifying an unbounded region: four times the
# largest channel count the profiling scope can produce
_VERIFY_CAP = 1024.0

_BISECT_TOL = 1e-6  # bisection stops once its bracket is this narrow, in channels


@dataclass(frozen=True)
class VariableSignificance:
    name: str
    coefficient: float
    t_statistic: float
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class SignificanceReport:
    """Per-variable two-sided t-test results for one layer kind."""

    kind: LayerKind
    variables: tuple[VariableSignificance, ...]

    def __getitem__(self, name: str) -> VariableSignificance:
        for variable in self.variables:
            if variable.name == name:
                return variable
        raise KeyError(name)


def coefficient_pvalues(dataset: Dataset) -> SignificanceReport:
    """Ordinary least-squares t-test per explanatory variable.

    The tests are unconstrained on purpose: they ask whether each variable
    carries any signal at all, not whether the constrained fit uses it.
    Collinear columns are reported as degenerate with p = 1, and a fit
    with numerically zero residual pins p to 0/1 by whether the variable
    participates in the exact fit.
    """
    names = explanatory_names(dataset.kind)
    k = len(names)
    n = len(dataset)
    if n <= k + 2:
        raise ValueError(f"need more than {k + 2} records, got {n}")
    X = dataset.explanatory
    y = dataset.times
    design = _design(dataset)

    rank = np.linalg.matrix_rank(design)
    degenerate = np.zeros(k, dtype=bool)
    if rank < k + 1:
        for j in range(k):
            reduced = np.delete(design, j, axis=1)
            if np.linalg.matrix_rank(reduced) == rank:
                degenerate[j] = True

    keep = np.concatenate([~degenerate, [True]])
    kept = design[:, keep]
    beta_kept, *_ = np.linalg.lstsq(kept, y, rcond=None)
    beta = np.zeros(k + 1)
    beta[keep] = beta_kept
    residual = y - design @ beta
    dof = n - k - 1
    rss = float(residual @ residual)
    total = float(np.sum((y - y.mean()) ** 2))

    # a numerically exact fit: a variable either participates or it does not
    exact = rss <= 1e-18 * max(total, 1.0)
    if exact:
        y_scale = max(float(np.abs(y).max()), 1e-300)
    else:
        covariance = rss / dof * np.linalg.pinv(kept.T @ kept)
        se = np.zeros(k + 1)
        se[keep] = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    variables: list[VariableSignificance] = []
    for j, name in enumerate(names):
        if exact:
            contribution = abs(beta[j]) * float(np.abs(X[:, j]).max(initial=0.0))
            active = contribution > 1e-9 * y_scale and not degenerate[j]
            t, p = (math.inf, 0.0) if active else (0.0, 1.0)
        elif degenerate[j] or se[j] == 0.0:
            t, p = 0.0, 1.0
        else:
            t = float(beta[j] / se[j])
            p = _t_two_sided_pvalue(t, dof)
        variables.append(VariableSignificance(name, float(beta[j]), t, p, bool(degenerate[j])))
    return SignificanceReport(kind=dataset.kind, variables=tuple(variables))


def _t_two_sided_pvalue(t: float, dof: int) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``dof`` degrees of freedom.

    Equals the regularized incomplete beta ``I_x(dof/2, 1/2)`` at
    ``x = dof / (dof + t²)``, evaluated by its continued fraction on the
    side where that converges fast, so small p-values keep their
    relative precision.
    """
    a, b = 0.5 * dof, 0.5
    t2 = t * t
    x, y = dof / (dof + t2), t2 / (dof + t2)  # y = 1 - x without cancellation
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete beta continued fraction
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 100_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / clamp(1.0 + numerator * d)
            c = clamp(1.0 + numerator / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise NumericError("incomplete beta continued fraction did not converge")


# --- channel-space polynomials ----------------------------------------------


@dataclass(frozen=True)
class ConvGeometry:
    """Fixed convolution geometry; only the channel counts stay free."""

    in_height: int
    in_width: int
    kernel_height: int
    kernel_width: int
    stride: int
    padding: Padding

    def __post_init__(self) -> None:
        if isinstance(self.padding, str):
            object.__setattr__(self, "padding", Padding(self.padding))

    @classmethod
    def from_config(cls, config: StructureConfig) -> "ConvGeometry":
        if config.kind is not LayerKind.CNN:
            raise ValueError("geometry comes from a CNN config")
        return cls(
            in_height=config.in_height,
            in_width=config.in_width,
            kernel_height=config.kernel_height,
            kernel_width=config.kernel_width,
            stride=config.stride,
            padding=config.padding,
        )

    def output_dims(self) -> tuple[int, int]:
        return conv_output_dims(
            self.in_height,
            self.in_width,
            self.kernel_height,
            self.kernel_width,
            self.stride,
            self.padding,
        )


@dataclass(frozen=True)
class ChannelPolynomial:
    """``a*u*v + b*u + c*v + d`` over (in_channel u, out_channel v)."""

    a: float
    b: float
    c: float
    d: float

    def __call__(self, u: float, v: float) -> float:
        return self.a * u * v + self.b * u + self.c * v + self.d

    def diagonal(self, c: float) -> float:
        return self(c, c)


def channel_time_polynomial(fit: LinearFit, setting: ConvGeometry) -> ChannelPolynomial:
    """Expand a leaf fit into a polynomial in the two channel counts.

    Substitutes the convolutional sizes, with the geometry fixed, into
    ``w . x + b``.  Every CNN size is bilinear in the channels, so the
    sizes of the one-channel layer are the polynomial's coefficients.
    """
    mem_in, mem_out, mem_inter, param_size, flops = _derived(cnn(
        setting.in_height, setting.in_width, setting.kernel_height, setting.kernel_width,
        1, 1, setting.stride, setting.padding,
    ))
    w = np.asarray(fit.w, dtype=float)
    if w.shape != (3,):
        raise ValueError("convolutional fits have exactly three weights")
    # at u = v = 1: flops and param_size - 1 (the kernel taps) are the u*v
    # coefficients, mem_in + mem_inter the u one and mem_out the v one
    try:
        uv_flops, uv_taps, u_mem, v_mem = (
            float(flops), float(param_size - 1), float(mem_in + mem_inter), float(mem_out)
        )
    except OverflowError:
        raise _too_large(LayerKind.CNN) from None
    return ChannelPolynomial(
        a=w[0] * uv_flops + w[2] * uv_taps,
        b=w[1] * u_mem,
        c=w[1] * v_mem,
        d=fit.b + w[2],
    )


def expansion_benefit(
    leaf_true: LinearFit,
    leaf_false: LinearFit,
    setting: ConvGeometry,
    delta: int,
    axis: str = "in_channel",
) -> ChannelPolynomial:
    """Predicted-time change of rounding one channel axis up by ``delta``.

    Returns the polynomial ``y_true(shifted) - y_false(unshifted)``, where
    the true-branch leaf prices the expanded layer and the false-branch
    leaf prices the layer as it stands.  Negative values mean the
    expansion speeds the layer up.
    """
    delta = _integer("delta", delta, 0)
    if axis not in width_fields(LayerKind.CNN):
        raise ValueError(f"axis must be in_channel or out_channel, got {axis!r}")
    pt = channel_time_polynomial(leaf_true, setting)
    pf = channel_time_polynomial(leaf_false, setting)
    if axis == "in_channel":
        return ChannelPolynomial(
            a=pt.a - pf.a,
            b=pt.b - pf.b,
            c=pt.a * delta + pt.c - pf.c,
            d=pt.d + pt.b * delta - pf.d,
        )
    return ChannelPolynomial(
        a=pt.a - pf.a,
        b=pt.a * delta + pt.b - pf.b,
        c=pt.c - pf.c,
        d=pt.d + pt.c * delta - pf.d,
    )


@dataclass(frozen=True)
class ExpansionRegion:
    """Square channel region inside which an expansion always helps.

    ``bound`` is the largest diagonal channel count with a provably
    negative benefit: 0 marks an empty region, ``inf`` an unbounded one.
    """

    contour: ChannelPolynomial
    bound: float
    condition: Condition | None = None
    setting: ConvGeometry | None = None
    delta: int | None = None
    verified: bool = False

    @property
    def is_empty(self) -> bool:
        return self.bound <= 0

    def contains(self, u: float, v: float) -> bool:
        return not self.is_empty and 1 <= u <= self.bound and 1 <= v <= self.bound


def _bisect_root(poly: ChannelPolynomial, lo: float, hi: float) -> float:
    # invariant: diagonal(lo) < 0 <= diagonal(hi); returns the low end so
    # the benefit stays strictly negative at the reported bound
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if poly.diagonal(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def safe_region(
    benefit: ChannelPolynomial,
    condition: Condition | None = None,
    setting: ConvGeometry | None = None,
    delta: int | None = None,
) -> ExpansionRegion:
    """Largest square ``[1, bound]^2`` on which the benefit stays negative.

    The diagonal restriction ``a*c^2 + (b+c)*c + d`` has at most one
    upward zero crossing past ``c = 1``; it is located by bisection.  A
    benefit that is already non-negative at ``c = 1`` yields an empty
    region, and one that never crosses zero yields an unbounded region.
    """
    a = benefit.a
    slope = benefit.b + benefit.c

    def make(bound: float) -> ExpansionRegion:
        return ExpansionRegion(
            contour=benefit, bound=bound, condition=condition, setting=setting, delta=delta
        )

    if benefit.diagonal(1.0) >= 0:
        return make(0.0)
    if a > 0:
        hi = 2.0
        while benefit.diagonal(hi) < 0:
            hi *= 2.0
            if hi > 1e15:
                return make(math.inf)
        return make(_bisect_root(benefit, 1.0, hi))
    if a == 0:
        if slope <= 0:
            return make(math.inf)
        root = -benefit.d / slope
        if root <= 1.0:
            return make(0.0)
        return make(_bisect_root(benefit, 1.0, root + 1.0))
    vertex = -slope / (2.0 * a)
    if vertex <= 1.0 or benefit.diagonal(vertex) < 0:
        return make(math.inf)
    return make(_bisect_root(benefit, 1.0, vertex))


def verify_region(region: ExpansionRegion, grid: int = 32) -> ExpansionRegion:
    """Check the sign property on a grid inside the claimed square.

    The benefit must be strictly negative at every sampled (u, v) point;
    any failure demotes the region to empty.  Unbounded regions are
    checked out to a fixed practical edge.  ``grid`` must be an integer >= 1.
    """
    grid = _integer("grid", grid, 1)
    if region.bound <= 1.0:
        # the square [1, bound]^2 holds no whole-channel points
        return dc_replace(region, bound=0.0, verified=False)
    edge = min(region.bound, _VERIFY_CAP)
    points = np.linspace(1.0, edge, grid, endpoint=False)
    u, v = np.meshgrid(points, points)
    if not (region.contour(u, v) < 0).all():
        return dc_replace(region, bound=0.0, verified=False)
    return dc_replace(region, verified=True)


class SimplifiedTimeModel:
    """Snap-then-route wrapper around a fitted model.

    Inside the joint verified region, configurations are first rounded up
    to the regions' multiples before prediction (never predicting above
    the base model); outside it, predictions match the base model exactly.
    """

    def __init__(self, base: TimeModel, regions: Sequence[ExpansionRegion]):
        self.base = base
        self.regions = tuple(regions)

    @property
    def kind(self) -> LayerKind:
        return self.base.kind

    def _snap(self, config: StructureConfig) -> StructureConfig | None:
        names = feature_names(self.base.kind)
        updates: dict[str, int] = {}
        for region in self.regions:
            field = names[region.condition.feature_index]
            u = getattr(config, "in_channel", None)
            v = getattr(config, "out_channel", None)
            if u is None or v is None or not region.contains(u, v):
                return None
            if region.setting is not None and (
                ConvGeometry.from_config(config) != region.setting
            ):
                return None
            tau = region.condition.tau
            value = getattr(config, field)
            updates[field] = tau * -(-value // tau)
        if not updates:
            return None
        return _with_widths(config, **updates)

    def predict(self, config: StructureConfig) -> float:
        baseline = self.base.predict(config)
        snapped = self._snap(config)
        if snapped is None:
            return baseline
        return min(baseline, self.base.predict(snapped))


def simplify_model(
    model: TimeModel, regions: Sequence[ExpansionRegion]
) -> SimplifiedTimeModel:
    """Build the snap-then-route predictor from verified regions.

    Regions must carry a multiple condition on a channel count and pass
    verification; empty (demoted) regions are ignored.  Two regions
    disagreeing on the modulus of the same feature are contradictory.
    """
    names = feature_names(model.kind)
    usable: list[ExpansionRegion] = []
    by_feature: dict[int, int] = {}
    for region in regions:
        if region.is_empty:
            continue
        if not region.verified:
            raise ValueError("only verified regions may simplify a model")
        if region.condition is None or region.condition.kind is not ConditionKind.MULTIPLE:
            raise ValueError("regions must carry a multiple condition")
        tau = region.condition.tau
        j = region.condition.feature_index
        # only a channel count is a width that snapping rounds without changing the function
        if j >= len(names) or names[j] not in width_fields(LayerKind.CNN):
            raise ValueError("regions must split on in_channel or out_channel")
        if j in by_feature and by_feature[j] != tau:
            raise ValueError(
                f"contradictory regions on feature {j}: moduli {by_feature[j]} and {tau}"
            )
        by_feature[j] = tau
        usable.append(region)
    return SimplifiedTimeModel(base=model, regions=usable)
