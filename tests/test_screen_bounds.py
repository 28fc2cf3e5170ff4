"""The NNLS error bounds bracket the screen, and pruning by them keeps every contender."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layertime import tree
from layertime.harness import default_oracle, generate_plan, synth_profile
from layertime.tree import (
    _SCREEN_BAND,
    _SINGULAR,
    Dataset,
    FitParams,
    _batched_nnls_sse,
    _candidates,
    _screen_floor,
    _screened_impurities,
    _split_sums,
    _sse_bounds,
    fit_tree,
    save_models,
)
from test_fit_path import reference_nnls_sse
from test_split_search import split_datasets
from test_tree import planted_cnn_dataset, planted_depth2_model


def guarded(gram: np.ndarray) -> np.ndarray:
    """Problems with a zero column or a near-singular unit Gram."""
    norm = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    zero = (norm == 0.0).any(axis=1)
    norm = np.where(norm > 0.0, norm, 1.0)
    unit = gram / (norm[:, :, None] * norm[:, None, :])
    return zero | (np.linalg.eigvalsh(unit)[:, 0] <= _SINGULAR)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(2, 40),
    k=st.integers(1, 5),
    rows=st.integers(1, 30),
    degenerate=st.sampled_from(["none", "zero", "duplicate", "both", "near"]),
    perturbation=st.sampled_from([1e-9, 1e-7, 1e-6, 1e-5]),
)
def test_sse_bounds_bracket_the_nnls_error(seed, batch, k, rows, degenerate, perturbation):
    rng = np.random.default_rng(seed)
    design = rng.uniform(0.0, 1.0, size=(batch, rows, k))
    if degenerate in ("zero", "both"):
        design[rng.random(batch) < 0.5, :, rng.integers(k)] = 0.0
    if degenerate in ("duplicate", "both", "near") and k > 1:
        a, b = rng.choice(k, size=2, replace=False)
        design[:, :, b] = design[:, :, a]
        if degenerate == "near":
            # near-singular Grams on both sides of the guard
            design[:, :, b] += perturbation * rng.standard_normal((batch, rows))
    target = design @ rng.normal(0.5, 1.0, size=k) + rng.normal(0.0, 0.3, size=(batch, rows))
    gram = np.einsum("bri,brj->bij", design, design)
    aty = np.einsum("bri,br->bi", design, target)
    yty = np.einsum("br,br->b", target, target)
    lower, upper = _sse_bounds(gram, aty, yty)
    sse = reference_nnls_sse(gram, aty, yty)
    skip = guarded(gram)
    assert (lower[skip] == 0.0).all() and (upper[skip] == np.inf).all()
    # rounding only: far below the screening band's floor of 1e-9·yᵀy
    tolerance = 1e-12 * yty[~skip]
    assert (lower[~skip] <= sse[~skip] + tolerance).all()
    assert (sse[~skip] <= upper[~skip] + tolerance).all()
    assert np.isfinite(upper[~skip]).all()


def reference_screened_impurities(dataset: Dataset, masks: np.ndarray) -> np.ndarray:
    """Screen every candidate through :func:`_batched_nnls_sse`, with no bounds."""
    gram, aty, yty = _split_sums(dataset, masks)
    sse = _batched_nnls_sse(gram, aty, yty)
    count = masks.shape[0]
    return (sse[:count] + sse[count:]) / len(dataset)


def contenders(dataset: Dataset, screened: np.ndarray) -> np.ndarray:
    """The candidates that ``_best_split`` refits row-exact."""
    finite = np.isfinite(screened)
    mask = ~finite
    if finite.any():
        lowest = float(screened[finite].min())
        mask |= screened <= lowest + _SCREEN_BAND * abs(lowest) + _screen_floor(dataset)
    return mask


@settings(max_examples=150, deadline=None)
@given(dataset=split_datasets(), min_leaf=st.integers(2, 10))
def test_pruned_screen_keeps_every_contender(dataset, min_leaf):
    candidates, masks = _candidates(dataset, FitParams(min_leaf=min_leaf))
    assume(candidates)
    screened = _screened_impurities(dataset, masks)
    full = reference_screened_impurities(dataset, masks)
    assert np.array_equal(contenders(dataset, screened), contenders(dataset, full))
    pruned = screened != full
    # a pruned candidate reports a finite lower bound of its screen (up to
    # the rounding of evaluating the same error twice)
    assert np.isfinite(screened[pruned]).all()
    rounding = 1e-12 * float(np.mean(dataset.times**2))
    assert (screened[pruned] <= full[pruned] + rounding).all()


def synthetic_datasets(n_networks: int, seed: int) -> list[Dataset]:
    """Per-kind datasets of a profile synthesized with 2% noise."""
    plan = generate_plan(n_networks=n_networks, seed=seed)
    samples = synth_profile(default_oracle(noise=0.02), plan)
    grouped: dict = {}
    for sample in samples:
        configs, times = grouped.setdefault(sample.config.kind, ([], []))
        configs.append(sample.config)
        times.append(sample.time_ms)
    return [
        Dataset.from_records(kind, configs, times)
        for kind, (configs, times) in sorted(grouped.items(), key=lambda item: item[0].value)
    ]


DEEP = FitParams(max_depth=4, mape_stop=0.01)


def test_fitted_tree_bytes_match_the_unpruned_screen(monkeypatch):
    rng = np.random.default_rng(5)
    planted = planted_cnn_dataset(planted_depth2_model(), 600, seed=21)
    noisy = Dataset(
        kind=planted.kind,
        features=planted.features,
        explanatory=planted.explanatory,
        times=planted.times * (1.0 + 0.02 * rng.standard_normal(len(planted))),
    )
    families = [[planted], [noisy], synthetic_datasets(150, seed=4)]

    def fit_families() -> list[bytes]:
        return [save_models({ds.kind: fit_tree(ds, DEEP) for ds in family}) for family in families]

    pruned = fit_families()
    monkeypatch.setattr(tree, "_screened_impurities", reference_screened_impurities)
    assert fit_families() == pruned


def test_pruning_screens_at_most_a_third_of_the_sides(monkeypatch):
    candidates = []
    problems = []
    find = tree._candidates
    screen = tree._batched_nnls_sse

    def counting_candidates(dataset, params):
        found = find(dataset, params)
        candidates.append(len(found[0]))
        return found

    def counting_screen(gram, aty, yty):
        problems.append(gram.shape[0])
        return screen(gram, aty, yty)

    monkeypatch.setattr(tree, "_candidates", counting_candidates)
    monkeypatch.setattr(tree, "_batched_nnls_sse", counting_screen)
    for dataset in synthetic_datasets(150, seed=1):
        fit_tree(dataset, DEEP)
    # without pruning the screen gets both sides of every candidate
    assert sum(candidates) > 1000
    assert sum(problems) <= 2 * sum(candidates) / 3
