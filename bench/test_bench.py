"""Tests of the benchmark itself: its output checks, tracer and contract.

    python3 -m pytest bench

Each output check is fed a deliberately broken output and must count a
failure; a correct output must pass.  The tracer must see NNLS only where
fitting happens and steering only where steering happens.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from layertime import harness, layers, steering, tree  # noqa: E402
from layertime.layers import LayerKind  # noqa: E402


def failures(fn, *args) -> int:
    chk = Checker()
    fn(chk, *args)
    assert chk.attempted >= 1
    return chk.failed


# --- cli_pipeline checks ---------------------------------------------------------


def test_stage_check_flags_exit_status_and_non_finite_results():
    assert failures(checks.check_stage, "fit", 0, "CNN: nodes=1 train=9 test=3 test_mape=1.0%\n") == 0
    assert failures(checks.check_stage, "fit", 3, "") == 1
    assert failures(checks.check_stage, "predict", 0, "nan ms\n") == 1
    assert failures(checks.check_stage, "expand", 0, "total: 12.000 ms -> inf ms\n") == 1
    # an unbounded safe region is a documented result
    unbounded = "region: node 1 in_channel % 4 -> bound inf verified=True\n"
    assert failures(checks.check_stage, "analyze", 0, unbounded) == 0


def test_record_count_check_flags_a_short_profile():
    printed = checks.printed_plan_count("plan: 1311 components across 120 networks -> plan.jsonl\n")
    assert printed == 1311
    assert failures(checks.check_record_counts, printed, 1311, 1311) == 0
    assert failures(checks.check_record_counts, printed, 1311, 1310) == 1
    assert failures(checks.check_record_counts, None, 1311, 1311) >= 1


def test_fit_report_check_flags_a_high_or_missing_mape():
    good = "\n".join(
        f"{k}: nodes=3 train=200 test=60 test_mape=1.2%" for k in ("CNN", "FC", "GRU", "LSTM")
    )
    assert failures(checks.check_fit_report, good, list(LayerKind)) == 0
    assert failures(checks.check_fit_report, good.replace("1.2%", "7.5%", 1), list(LayerKind)) == 1
    assert failures(checks.check_fit_report, good.split("\n", 1)[1], list(LayerKind)) == 1


def test_predict_check_compares_three_decimals():
    assert failures(checks.check_predict, "13.547 ms\n", 13.5471) == 0
    assert failures(checks.check_predict, "13.548 ms\n", 13.5471) == 1
    assert failures(checks.check_predict, "nan ms\n", 13.5471) == 1


def test_expand_check_flags_a_widened_then_slower_net():
    models = dict(harness.default_oracle().models)
    net = workloads.DEMO_NET
    widened = steering.NetworkSpec(
        (layers.cnn(112, 112, 3, 3, 3, 50), layers.cnn(112, 112, 3, 3, 50, 61),
         layers.cnn(112, 112, 3, 3, 61, 37))
    )
    before = steering.network_time(models, net)
    slower = steering.network_time(models, widened)
    assert slower > before
    assert failures(checks.check_expanded_total, "expand", before, slower) == 1
    expanded, _ = steering.expand_network(models, net)
    assert failures(checks.check_expanded_total, "expand", before,
                    steering.network_time(models, expanded)) == 0


def test_compress_check_needs_half_the_time():
    assert failures(checks.check_compressed_total, 100.0, 49.0) == 0
    assert failures(checks.check_compressed_total, 100.0, 60.0) == 1
    assert failures(checks.check_compressed_total, 100.0, float("nan")) == 1


def test_digest_check_flags_changed_bytes():
    assert failures(checks.check_same_digests, "model", ["a", "a", "a"]) == 0
    assert failures(checks.check_same_digests, "model", ["a", "b"]) == 1


# --- fit_heavy checks ------------------------------------------------------------


def test_prediction_check_flags_nan_and_non_positive():
    assert failures(checks.check_predictions, LayerKind.FC, np.array([1.0, 2.0])) == 0
    assert failures(checks.check_predictions, LayerKind.FC, np.array([1.0, np.nan])) == 1
    assert failures(checks.check_predictions, LayerKind.FC, np.array([1.0, 0.0])) == 1


def test_root_check_wants_the_planted_condition():
    oracle = harness.default_oracle().models[LayerKind.CNN]
    assert failures(checks.check_cnn_root, oracle) == 0
    wrong = tree.TimeModel(kind=LayerKind.CNN, root=oracle.root.right)
    assert failures(checks.check_cnn_root, wrong) == 1


def test_heldout_mape_check_has_a_floor_and_a_ceiling():
    lo, hi = checks.mape_window_pct(0.08)
    assert lo < 6.4 < hi
    assert failures(checks.check_heldout_mape, LayerKind.CNN, 8.0, 0.08) == 0
    assert failures(checks.check_heldout_mape, LayerKind.CNN, 20.0, 0.08) == 1
    assert failures(checks.check_heldout_mape, LayerKind.CNN, 0.5, 0.08) == 1


def test_round_trip_check_is_bit_exact():
    before = np.array([1.0, 2.0, 3.0])
    assert failures(checks.check_bit_identical, LayerKind.GRU, before, before.copy()) == 0
    after = before.copy()
    after[1] = np.nextafter(after[1], 3.0)
    assert failures(checks.check_bit_identical, LayerKind.GRU, before, after) == 1


# --- steer checks ----------------------------------------------------------------


def test_compression_check_flags_greedy_below_brute_force():
    assert failures(checks.check_compression, "i", 10.0, 8.0, 7.5) == 0
    assert failures(checks.check_compression, "i", 10.0, 7.0, 7.5) == 1
    assert failures(checks.check_compression, "i", 10.0, 11.0, 7.5) == 1


def test_chain_check_accepts_expansion_and_flags_broken_chains():
    models = dict(harness.default_oracle().models)
    chain = workloads.make_chain(3, 12)
    expanded, _ = steering.expand_network(models, chain)
    again, _ = steering.expand_network(models, expanded)
    assert failures(checks.check_chain, "c", models, chain, expanded, again) == 0

    # a narrower chain: widths shrink and zero padding cannot embed it
    narrowed = steering.NetworkSpec(
        (replace(chain.layers[0], out_channel=chain.layers[0].out_channel - 1),
         replace(chain.layers[1], in_channel=chain.layers[0].out_channel - 1),
         *chain.layers[2:])
    )
    assert failures(checks.check_chain, "c", models, chain, narrowed, None) >= 2
    # an expansion that is not a fixed point
    assert failures(checks.check_chain, "c", models, chain, expanded, chain) >= 1


# --- tracer ------------------------------------------------------------------------


def test_self_time_subtracts_children():
    t = tracer_mod.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()

    outer = t.wrap("outer", outer_body)
    outer()
    totals = t.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    duration = t.end[0] - t.start[0]
    assert totals["outer"][1] + totals["inner"][1] == pytest.approx(duration)


def test_install_restores_every_lookup_site():
    before = (tree.nnls, tree.TimeModel.predict, tree.Dataset.__dict__["from_records"])
    t = tracer_mod.Tracer()
    t.install()
    assert tree.nnls is not before[0]
    t.uninstall()
    assert (tree.nnls, tree.TimeModel.predict, tree.Dataset.__dict__["from_records"]) == before


def _traced(workload, tmp_path, seed=5):
    t = tracer_mod.Tracer()
    chk = Checker()
    t.install()
    try:
        state = workload.setup(seed, tmp_path, chk)
        rep = workload.run(state, t)
    finally:
        t.uninstall()
    workload.check(state, rep, chk)
    assert chk.failures == []
    return t.totals()


def test_steer_makes_no_nnls_calls(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STEER_INSTANCES", 2)
    monkeypatch.setattr(workloads, "CHAIN_LENGTHS", (8, 12))
    totals = _traced(workloads.Steer(), tmp_path)
    assert totals.get("nnls.nnls", (0, 0.0))[0] == 0
    assert totals.get("tree.fit_tree", (0, 0.0))[0] == 0
    assert totals["tree.TimeModel.predict"][0] > 0
    assert totals["steering.expand_layer"][0] > 0


def test_fit_heavy_makes_no_steering_calls(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FIT_NETWORKS", 60)
    totals = _traced(workloads.FitHeavy(), tmp_path)
    steering_calls = {name: calls for name, (calls, _) in totals.items()
                      if name.startswith("steering.") and calls}
    assert steering_calls == {}
    assert totals["nnls.nnls"][0] > 0
    assert totals["tree.fit_tree"][0] == 4


# --- stats, import parsing and the contract --------------------------------------------


def test_reference_seconds_divide_by_the_probe():
    import hostinfo

    assert hostinfo.to_reference(2.0, 2e-3, 2e-3) == pytest.approx(1.0)
    assert hostinfo.to_reference(3.0, 1e-3, 2e-3) == pytest.approx(2.0)
    assert hostinfo.probe_s() > 0


def test_tail_leaves_ten_samples_beyond():
    assert stats.tail(list(range(10))) is None
    value, pct, n = stats.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)


def test_importtime_parser_handles_lazily_loaded_scipy_stats():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1400 |     120000 |     numpy",
        "import time:       400 |      16000 |     scipy",
        "import time:     80000 |     700000 |     scipy.stats._stats_py",
        "import time:       100 |        500 |       scipy.stats._inner",
        "import time:      2000 |      50000 |     scipy.stats._mgc",
        "import time:     10000 |    1000000 |   layertime.analysis",
        "import time:       700 |    1100000 | layertime",
    ])
    times = run.parse_importtime(sample)
    assert times == pytest.approx({"layertime_s": 1.1, "numpy_s": 0.12, "scipy_stats_s": 0.75})


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
