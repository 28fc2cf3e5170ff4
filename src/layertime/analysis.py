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
from typing import Callable, Sequence

import numpy as np

from .layers import (
    LayerKind,
    Padding,
    StructureConfig,
    _derived,
    _integer,
    _too_large,
    _width_at,
    _with_widths,
    cnn,
    conv_output_dims,
    explanatory_names,
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

_BISECT_TOL = 1e-6  # bisection stops once its bracket is this narrow, in channels
# the farthest a crossing is sought, so that the bisection's lo + hi stays finite
_FAR = 2.0**1022


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

    # a numerically exact fit: a variable either participates or it does not.
    # Relative to y . y, so the test reads the same in any unit of time
    exact = rss <= 1e-18 * float(y @ y)
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

    ``bound`` is the largest edge ``B`` of a square ``[1, B]^2`` with a
    provably negative benefit: 0 marks an empty region, ``inf`` an
    unbounded one.
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


def _bisect_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    # invariant: g(lo) < 0; returns the low end so the benefit stays strictly
    # negative at the reported bound.  Far out the float spacing exceeds the
    # tolerance, so the search also stops once no float lies between the ends.
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def _first_crossing(
    g: Callable[[float], float], quadratic: float, slope: float, constant: float
) -> float:
    """First upward zero crossing past ``t = 1`` of ``g``, given ``g(1) < 0``.

    ``g(t) = quadratic*t^2 + slope*t + constant`` has at most one such
    crossing.  Returns its low end, 0 when it lies at or below 1, and
    ``inf`` when ``g`` never crosses.  The search ends at ``_FAR``.
    """
    if quadratic > 0:
        hi = 2.0
        while g(hi) < 0:
            if hi == _FAR:
                return hi
            hi *= 2.0
        return _bisect_root(g, 1.0, hi)
    if quadratic == 0:
        if slope <= 0:
            return math.inf
        root = -constant / slope
        if root <= 1.0:
            return 0.0
        return _bisect_root(g, 1.0, min(root + 1.0, _FAR))
    vertex = -slope / (2.0 * quadratic)
    if vertex <= 1.0 or g(vertex) < 0:
        return math.inf
    return _bisect_root(g, 1.0, min(vertex, _FAR))


def safe_region(
    benefit: ChannelPolynomial,
    condition: Condition | None = None,
    setting: ConvGeometry | None = None,
    delta: int | None = None,
) -> ExpansionRegion:
    """Largest square ``[1, bound]^2`` on which the benefit stays negative.

    The benefit is bilinear, so its maximum over a square lies at a corner,
    and the square is safe exactly when the benefit is negative at its four
    corners.  ``bound`` is therefore the first zero crossing past 1 of the
    two edges ``f(1, t)`` and ``f(t, 1)``, both linear in ``t``, and of the
    diagonal ``f(t, t)``, whichever comes first.  A benefit that is not
    negative at ``(1, 1)`` yields an empty region, and one that crosses
    on none of the three yields an unbounded region.
    """
    a, b, c, d = benefit.a, benefit.b, benefit.c, benefit.d
    bound = 0.0
    if benefit(1.0, 1.0) < 0:
        bound = min(
            _first_crossing(benefit.diagonal, a, b + c, d),
            _first_crossing(lambda t: benefit(1.0, t), 0.0, a + c, b + d),
            _first_crossing(lambda t: benefit(t, 1.0), 0.0, a + b, c + d),
        )
    return ExpansionRegion(
        contour=benefit,
        bound=bound if bound > 1.0 else 0.0,
        condition=condition,
        setting=setting,
        delta=delta,
    )


def verify_region(region: ExpansionRegion) -> ExpansionRegion:
    """Certify exactly that the benefit is negative on the claimed square.

    A finite square ``[1, B]^2`` is certified by the benefit's sign at its
    four corners, where a bilinear function takes its maximum.  An
    unbounded one is certified by ``f(1, 1) < 0`` with ``a <= 0``,
    ``a + b <= 0`` and ``a + c <= 0``, under which the benefit never grows
    along either axis.  Any failure, a NaN corner included, demotes the
    region to empty.
    """
    f, bound = region.contour, region.bound
    if bound == math.inf:
        safe = f(1.0, 1.0) < 0 and f.a <= 0 and f.a + f.b <= 0 and f.a + f.c <= 0
    else:
        # a square [1, bound]^2 with bound <= 1 holds no whole-channel points
        safe = bound > 1.0 and all(f(u, v) < 0 for u in (1.0, bound) for v in (1.0, bound))
    if not safe:
        return dc_replace(region, bound=0.0, verified=False)
    return dc_replace(region, verified=True)


class SimplifiedTimeModel:
    """Snap-then-route wrapper around a fitted model.

    Inside the joint verified region, configurations are first rounded up
    to the regions' multiples before prediction (never predicting above
    the base model); outside it, predictions match the base model exactly.

    Regions must pass verification and carry a multiple condition on a
    channel count, and two regions on one feature must agree on the modulus,
    or ``ValueError`` is raised; empty (demoted) regions are ignored.
    """

    def __init__(self, base: TimeModel, regions: Sequence[ExpansionRegion]):
        usable: list[ExpansionRegion] = []
        by_feature: dict[int, int] = {}
        for region in regions:
            if region.is_empty:
                continue
            if not region.verified:
                raise ValueError("only verified regions may simplify a model")
            if region.condition is None or region.condition.kind is not ConditionKind.MULTIPLE:
                raise ValueError("regions must carry a multiple condition")
            j, tau = region.condition.feature_index, region.condition.tau
            # only a channel count is a width that snapping rounds without changing the function
            if _width_at(base.kind, j) not in width_fields(LayerKind.CNN):
                raise ValueError("regions must split on in_channel or out_channel")
            if by_feature.setdefault(j, tau) != tau:
                raise ValueError(
                    f"contradictory regions on feature {j}: moduli {by_feature[j]} and {tau}"
                )
            usable.append(region)
        self.base = base
        self.regions = tuple(usable)

    @property
    def kind(self) -> LayerKind:
        return self.base.kind

    def _snap(self, config: StructureConfig) -> StructureConfig | None:
        updates: dict[str, int] = {}
        for region in self.regions:
            field = _width_at(self.kind, region.condition.feature_index)
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
    """Build the snap-then-route predictor; :class:`SimplifiedTimeModel` checks the regions."""
    return SimplifiedTimeModel(base=model, regions=regions)
