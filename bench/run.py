"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload steer --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; the program under test is the
``layertime`` package in ``src/`` of that checkout.  The run sets up its
inputs from the seed several times (``setup_s`` is the median), repeats the
workload's timed section while the next repetition still fits in
``--seconds``, checks every output, and prints a table of every metric with
its unit, followed by one JSON line::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

With ``--trace 0`` the JSON metrics are the end-to-end metrics; with
``--trace 1`` the run instead sets up once and times one repetition
untraced and one traced, and reports the per-layer metrics.  ``attempted``
counts operations and output checks, ``failed`` those that failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

#: One BLAS thread: every workload is a single client on small matrices,
#: and the run is pinned to one core.  Children inherit it through the
#: environment.
BLAS_THREADS = 1

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Cold ``-X importtime`` processes per traced run; import metrics are medians.
IMPORT_REPEATS = 3

#: End-to-end metrics reported by every workload (``--trace 0``).
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MiB"}

def per_layer_units() -> dict[str, str]:
    """Per-layer metrics reported by every workload (``--trace 1``).

    A layer's self time appears as its share of the traced seconds, so a
    layer a workload never calls reads zero calls and a zero share; the
    table printed before the JSON line also gives every self time in
    seconds.
    """
    from tracer import TRACED_NAMES
    from workloads import CliPipeline

    return {
        "import.layertime_s": "s", "import.numpy_s": "s", "import.scipy_stats_s": "s",
        **{f"{name}.{m}": unit for name in TRACED_NAMES
           for m, unit in (("calls", "count"), ("self_share", "ratio"))},
        **{f"cli.main.{stage}.self_share": "ratio" for stage in CliPipeline.STAGES},
        "harness.read_profile.records": "count",
        "tree.Dataset.from_records.rows": "count",
        "tree.enumerate_conditions.candidates": "count",
        "tree.split.internal_nodes": "count",
        "tree.split.useful_ratio": "ratio",
        "tree.nodes": "count",
        "tree.TimeModel.predict_rows.rows": "count",
        "nnls.nnls.rows": "count",
        "steering.expand_layer.distinct": "count",
        "steering.expand_layer.distinct_ratio": "ratio",
        "steering.evaluator.calls": "count",
        "steering.conflicts": "count",
        "steering.chain_layers": "count",
        "steering.chain_predicts": "count",
        "steering.predicts_per_layer": "ratio",
        "trace.spans": "count",
        "trace.wall_untraced_s": "s",
        "trace.wall_traced_s": "s",
        "trace.overhead_s": "s",
    }


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _run_untraced(workload, args, workdir, chk):
    import checks
    import hostinfo
    from statistics import median
    from workloads import Row

    setups, setups_ref, state = [], [], None
    probe = hostinfo.probe_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, workdir, chk)
        setups.append(time.perf_counter() - t0)
        before, probe = probe, hostinfo.probe_s()
        setups_ref.append(hostinfo.to_reference(setups[-1], before, probe))

    reps = []
    started = time.perf_counter()
    while True:
        rep = workload.run(state)
        workload.check(state, rep, chk)
        reps.append(rep)
        if time.perf_counter() - started + rep.wall > args.seconds:
            break
    checks.check_same_digests(chk, workload.name, [r.digest for r in reps])

    def best_sum(times):
        return sum(min(getattr(r, times)[op] for r in reps) for op in reps[0].ops)

    rows = [
        Row("setup_s", median(setups_ref), "s",
            f"reference seconds, median of {len(setups)} set-ups; as measured {median(setups):.4g} s"),
        Row("wall_s", median([r.wall for r in reps]), "s",
            f"median of {len(reps)} repetitions of the timed section"),
        Row("wall_best_s", best_sum("ops"), "s",
            f"sum over {len(reps[0].ops)} operations of each one's fastest of {len(reps)} repetitions"),
        Row("wall_ref_s", best_sum("ops_ref"), "s", "wall_best_s in reference seconds"),
        Row("peak_rss_mb", *workload.peak_rss()),
    ]
    rows += workload.rows(state, reps)
    return rows


def _run_traced(workload, args, workdir, chk):
    import checks
    from tracer import TRACED_NAMES, Tracer
    from workloads import CliPipeline, Row

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = workload.setup(args.seed, workdir, chk)
        traced_setup = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    plain = workload.run_for_trace(state)
    workload.check(state, plain, chk)
    tracer.install()
    try:
        traced = workload.run_for_trace(state, tracer)
    finally:
        tracer.uninstall()
    workload.check(state, traced, chk)
    checks.check_same_digests(chk, f"{workload.name} traced", [plain.digest, traced.digest])
    tracer.write(TRACE_OUT / f"spans-{workload.name}.npz")

    totals = tracer.totals()
    counts = dict(tracer.counts)
    counts.update(traced.counts)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    traced_s = traced_setup + traced.wall
    rows = [Row(f"import.{key}", value, "s", f"median of {IMPORT_REPEATS} cold starts")
            for key, value in _import_times().items()]
    for name in TRACED_NAMES + tuple(f"cli.main.{stage}" for stage in CliPipeline.STAGES):
        if not name.startswith("cli."):
            rows.append(Row(f"{name}.calls", calls(name), "count"))
        rows.append(Row(f"{name}.self_s", self_s(name), "s"))
        rows.append(Row(f"{name}.self_share", ratio(self_s(name), traced_s), "ratio",
                        f"of {traced_s:.3f} traced seconds"))
    candidates = counts.get("tree.enumerate_conditions.candidates", 0)
    internal = counts.get("tree.split.internal_nodes", 0)
    layer_calls = calls("steering.expand_layer")
    distinct = len(tracer.distinct_layers)
    chain_layers = counts.get("steering.chain_layers", 0)
    chain_predicts = tracer.calls_within("tree.TimeModel.predict", "bench.chains")
    rows += [
        Row("harness.read_profile.records", counts.get("harness.read_profile.records", 0), "count"),
        Row("tree.Dataset.from_records.rows", counts.get("tree.Dataset.from_records.rows", 0), "count"),
        Row("tree.enumerate_conditions.candidates", candidates, "count"),
        Row("tree.split.internal_nodes", internal, "count"),
        Row("tree.split.useful_ratio", ratio(internal, candidates), "ratio",
            f"{internal} internal nodes / {candidates} candidates scored"),
        Row("tree.nodes", counts.get("tree.nodes", 0), "count"),
        Row("tree.TimeModel.predict_rows.rows", counts.get("tree.TimeModel.predict_rows.rows", 0), "count"),
        Row("nnls.nnls.rows", counts.get("nnls.nnls.rows", 0), "count", "sum of row counts m"),
        Row("steering.expand_layer.distinct", distinct, "count"),
        Row("steering.expand_layer.distinct_ratio", ratio(distinct, layer_calls), "ratio",
            f"{distinct} distinct (model, config) inputs / {layer_calls} calls"),
        Row("steering.evaluator.calls", counts.get("steering.evaluator.calls", 0), "count",
            "counted by the benchmark's loss"),
        Row("steering.conflicts", counts.get("steering.conflicts", 0), "count",
            "from the returned expansion traces"),
        Row("steering.chain_layers", chain_layers, "count"),
        Row("steering.chain_predicts", chain_predicts, "count"),
        Row("steering.predicts_per_layer", ratio(chain_predicts, chain_layers), "ratio",
            f"{chain_predicts} predict calls / {chain_layers} chain layers"),
        Row("trace.spans", len(tracer.start), "count", "one set-up and one repetition"),
        Row("trace.wall_untraced_s", plain.wall, "s"),
        Row("trace.wall_traced_s", traced.wall, "s"),
        Row("trace.overhead_s", traced.wall - plain.wall, "s", "traced minus untraced repetition"),
    ]
    return rows


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of layertime, numpy and scipy.stats from ``-X importtime``.

    scipy loads ``scipy.stats`` lazily, and its own line is then missing
    from the output; its time is the sum of its submodules at the
    shallowest depth they appear.
    """
    found: dict[str, float] = {}
    stats_parts: list[tuple[int, float]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        seconds = int(cumulative) * 1e-6
        module = field.strip()
        if module in ("layertime", "numpy", "scipy.stats"):
            found.setdefault(module, seconds)
        elif module.startswith("scipy.stats."):
            stats_parts.append((len(field) - len(field.lstrip()), seconds))
    if "scipy.stats" not in found and stats_parts:
        top = min(depth for depth, _ in stats_parts)
        found["scipy.stats"] = sum(s for depth, s in stats_parts if depth == top)
    return {
        "layertime_s": found.get("layertime", 0.0),
        "numpy_s": found.get("numpy", 0.0),
        "scipy_stats_s": found.get("scipy.stats", 0.0),
    }


def _import_times() -> dict[str, float]:
    """Medians over cold ``python -X importtime -c "import layertime"`` processes."""
    import subprocess

    from statistics import median

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import layertime"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        samples.append(parse_importtime(proc.stderr))
    return {key: median([s[key] for s in samples]) for key in samples[0]}


def _print_table(rows) -> None:
    width = max(len(row.name) for row in rows)
    for row in rows:
        note = f"  ({row.note})" if row.note else ""
        print(f"  {row.name:<{width}}  {row.value:>14.6g} {row.unit:<7}{note}")


def main(argv=None) -> int:
    if not (SRC / "layertime" / "__init__.py").is_file():
        print(f"error: no layertime package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one core for this process and its children, so that the host-speed
    # probe runs where the workload runs; set before numpy loads its BLAS
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import layertime

    if Path(layertime.__file__).resolve().parent != (SRC / "layertime").resolve():
        print(f"error: imported layertime from {layertime.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args = _parse_args(argv)
    import hostinfo
    from checks import Checker
    from workloads import WORKLOADS, Row

    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    chk = Checker()
    print(f"# layertime benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workload.why}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in hostinfo.facts(BLAS_THREADS).items()))
    rows = []
    try:
        if args.trace:
            rows = _run_traced(workload, args, workdir, chk)
        else:
            rows = _run_untraced(workload, args, workdir, chk)
    except Exception as exc:  # the program under test broke: report it as a failure
        traceback.print_exc()
        chk.expect(False, f"{workload.name} raised {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows.append(Row("failed_ratio", chk.failed / chk.attempted, "ratio",
                    f"{chk.failed} failed / {chk.attempted} operations and checks"))
    _print_table(rows)

    wanted = per_layer_units() if args.trace else END_TO_END
    by_name = {row.name: row for row in rows}
    metrics = {}
    for name, unit in wanted.items():
        row = by_name.get(name)
        if row is None or not math.isfinite(row.value):
            chk.expect(False, f"metric {name} was not measured")
            continue
        metrics[name] = {"value": row.value, "unit": unit}
    for failure in chk.failures[:20]:
        print(f"# FAILED: {failure}")
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
