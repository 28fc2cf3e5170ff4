"""Output checks shared by the benchmark workloads.

Every check is an invariant that any correct version of layertime
satisfies, computed with the public API; none pins a digest or a golden
number.  A check records one attempt in a :class:`Checker` and, when it
does not hold, one failure with a message, so a run's ``failed`` count is
the number of broken invariants plus failed operations.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

import numpy as np

from layertime import layers, steering, tree
from layertime.layers import LayerKind

#: ``fit`` must reach this held-out MAPE on every kind of the 1%-noise
#: README profile (acceptance criterion 1 asks for the same).
CLI_FIT_MAPE_PCT = 5.0

#: The compressed demo network must predict at most this share of the
#: input network's time (acceptance criterion 8).
COMPRESS_SHARE = 0.5

#: Slack for comparing two objectives computed along different paths.
OBJECTIVE_SLACK = 1e-9

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# An unbounded safe region is printed as "bound inf" by design
# (ExpansionRegion documents inf as "unbounded"), so that one token is
# a result, not a numeric failure.
_UNBOUNDED_REGION = re.compile(r"^region: .* -> bound inf verified=(True|False)$")
_FIT_LINE = re.compile(r"^(FC|CNN|GRU|LSTM): nodes=\d+ train=\d+ test=\d+ test_mape=([0-9.]+)%$")
_PLAN_LINE = re.compile(r"^plan: (\d+) components across \d+ networks -> ")
_PREDICT_LINE = re.compile(r"^(-?[0-9]+\.[0-9]{3}) ms$")


class Checker:
    """Counts attempted operations and checks, and keeps each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return bool(ok)


# --- cli_pipeline -------------------------------------------------------------


def check_stage(chk: Checker, stage: str, returncode: int, stdout: str) -> None:
    """A stage exits 0 and prints no NaN or infinite result."""
    chk.expect(returncode == 0, f"{stage}: exit status {returncode}")
    bad = [
        line
        for line in stdout.splitlines()
        if _NON_FINITE.search(line) and not _UNBOUNDED_REGION.match(line)
    ]
    chk.expect(not bad, f"{stage}: non-finite result printed: {bad[:3]}")


def printed_plan_count(stdout: str) -> int | None:
    for line in stdout.splitlines():
        match = _PLAN_LINE.match(line)
        if match:
            return int(match.group(1))
    return None


def check_record_counts(
    chk: Checker, printed: int | None, plan_records: int, profile_records: int
) -> None:
    """The plan and the profile hold as many records as ``plan`` printed."""
    chk.expect(printed is not None, "plan: no component count printed")
    chk.expect(plan_records == printed, f"plan file has {plan_records} records, plan printed {printed}")
    chk.expect(
        profile_records == printed,
        f"profile has {profile_records} records, plan printed {printed}",
    )


def check_fit_report(chk: Checker, stdout: str, kinds: Iterable[LayerKind]) -> None:
    """``fit`` prints a held-out MAPE of at most 5% for every kind."""
    printed = {}
    for line in stdout.splitlines():
        match = _FIT_LINE.match(line)
        if match:
            printed[match.group(1)] = float(match.group(2))
    for kind in kinds:
        mape = printed.get(kind.value)
        chk.expect(
            mape is not None and mape <= CLI_FIT_MAPE_PCT,
            f"fit: {kind.value} held-out MAPE {mape}% (limit {CLI_FIT_MAPE_PCT}%)",
        )


def check_predict(chk: Checker, stdout: str, expected_ms: float) -> None:
    """``predict`` prints the in-process prediction, to 3 decimals."""
    lines = stdout.strip().splitlines()
    match = _PREDICT_LINE.match(lines[-1]) if lines else None
    chk.expect(
        match is not None and match.group(1) == f"{expected_ms:.3f}",
        f"predict printed {lines[-1:]!r}, in-process model gives {expected_ms:.3f} ms",
    )


def check_expanded_total(chk: Checker, what: str, before_ms: float, after_ms: float) -> None:
    """An expanded network never predicts slower than its input."""
    chk.expect(
        math.isfinite(after_ms) and after_ms <= before_ms,
        f"{what}: expanded net predicts {after_ms} ms > input {before_ms} ms",
    )


def check_compressed_total(chk: Checker, before_ms: float, after_ms: float) -> None:
    """The compressed demo net predicts at most half the input's time."""
    chk.expect(
        math.isfinite(after_ms) and after_ms <= COMPRESS_SHARE * before_ms,
        f"compress: {after_ms} ms is above {COMPRESS_SHARE} x input {before_ms} ms",
    )


def check_same_digests(chk: Checker, what: str, digests: Sequence[str]) -> None:
    """Output bytes hash identically across the repetitions of a run."""
    chk.expect(len(set(digests)) <= 1, f"{what}: output bytes differ across repetitions")


# --- fit_heavy ----------------------------------------------------------------


def check_predictions(chk: Checker, kind: LayerKind, predictions: np.ndarray) -> None:
    """Every prediction is finite and positive."""
    predictions = np.asarray(predictions, dtype=float)
    chk.expect(
        predictions.size > 0 and bool(np.all(np.isfinite(predictions) & (predictions > 0))),
        f"{kind.value}: {predictions.size} predictions include a non-finite or non-positive value",
    )


def planted_cnn_root() -> tree.Condition:
    """The root condition the default oracle plants: ``in_channel % 4``."""
    in_channel = layers.feature_names(LayerKind.CNN).index("in_channel")
    return tree.Condition(in_channel, 4, tree.ConditionKind.MULTIPLE)


def check_cnn_root(chk: Checker, model: tree.TimeModel) -> None:
    """The fitted CNN tree splits first on the planted condition."""
    chk.expect(
        model.root.condition == planted_cnn_root(),
        f"CNN root condition {model.root.condition} is not the planted in_channel % 4",
    )


def mape_window_pct(noise: float) -> tuple[float, float]:
    """Held-out MAPE window, in percent, for multiplicative noise ``noise``.

    With ``t = truth * (1 + e)`` and ``e ~ N(0, noise)``, even the true
    model scores ``E|e| / (1 + e)``, about ``noise * sqrt(2 / pi)``.  Half
    of that is the floor (lower means test rows leaked into training);
    twice the noise is the ceiling (higher means the fit lost the law).
    """
    floor = 0.5 * noise * math.sqrt(2.0 / math.pi)
    return 100.0 * floor, 100.0 * 2.0 * noise


def check_heldout_mape(chk: Checker, kind: LayerKind, mape_pct: float, noise: float) -> None:
    lo, hi = mape_window_pct(noise)
    chk.expect(
        math.isfinite(mape_pct) and lo <= mape_pct <= hi,
        f"{kind.value}: held-out MAPE {mape_pct:.2f}% outside [{lo:.2f}, {hi:.2f}]% for noise {noise}",
    )


def check_bit_identical(chk: Checker, kind: LayerKind, before: np.ndarray, after: np.ndarray) -> None:
    """Predictions survive a save/load round trip bit for bit."""
    before = np.ascontiguousarray(before, dtype=float)
    after = np.ascontiguousarray(after, dtype=float)
    chk.expect(
        before.shape == after.shape and before.tobytes() == after.tobytes(),
        f"{kind.value}: predictions changed across save_models/load_models",
    )


# --- steer --------------------------------------------------------------------


def check_compression(
    chk: Checker, label: str, input_obj: float, greedy_obj: float, brute_obj: float
) -> None:
    """Brute force is never beaten by greedy, and greedy never loses ground."""
    chk.expect(
        math.isfinite(brute_obj) and brute_obj <= greedy_obj + OBJECTIVE_SLACK,
        f"{label}: brute-force objective {brute_obj} above greedy {greedy_obj}",
    )
    chk.expect(
        math.isfinite(greedy_obj) and greedy_obj <= input_obj + OBJECTIVE_SLACK,
        f"{label}: greedy objective {greedy_obj} above the input's {input_obj}",
    )


def _widths(net: steering.NetworkSpec) -> list[tuple[int, int]]:
    return [
        tuple(getattr(layer, name) for name in layers.width_fields(layer.kind))
        for layer in net.layers
    ]


def check_chain(
    chk: Checker,
    label: str,
    models,
    original: steering.NetworkSpec,
    expanded: steering.NetworkSpec,
    re_expanded: steering.NetworkSpec | None,
) -> None:
    """An expanded chain is no slower, never narrower, a fixed point, and paddable.

    ``re_expanded`` is the result of expanding ``expanded`` again; pass
    ``None`` to skip that (costly) check.
    """
    before = steering.network_time(models, original)
    after = steering.network_time(models, expanded)
    check_expanded_total(chk, label, before, after)
    shrunk = [
        i
        for i, (old, new) in enumerate(zip(_widths(original), _widths(expanded)))
        if new[0] < old[0] or new[1] < old[1]
    ]
    chk.expect(
        len(original.layers) == len(expanded.layers) and not shrunk,
        f"{label}: expansion shrank the widths of layers {shrunk[:5]}",
    )
    if re_expanded is not None:
        chk.expect(re_expanded == expanded, f"{label}: re-expanding the chain changed it")
    try:
        steering.zero_pad_plan(original, expanded)
        padded = True
    except ValueError:
        padded = False
    chk.expect(padded, f"{label}: zero_pad_plan rejects the expansion")
