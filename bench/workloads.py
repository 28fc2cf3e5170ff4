"""The benchmark's workloads: cli_pipeline, fit_heavy and steer.

Each workload is a closed loop: one client in one process issues the next
call only after the previous one returned.  A workload builds its inputs
from the seed in ``setup``, runs one timed repetition in ``run`` and checks
that repetition's outputs in ``check``, outside the timed section.  The
program sees only the generated inputs, through its public API or its CLI.

Each module of layertime does most of its work in one workload and little
or none in another, so an optimisation of one module has a workload that
shows the gain and one that must stay flat:

- cli_pipeline: cold CLI processes; package import dominates.
- fit_heavy: in-process fitting; split search and NNLS dominate.
- steer: in-process expansion and compression; scalar predict and
  feature derivation dominate, with no NNLS at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from layertime import cli, harness, layers, steering, tree
from layertime.layers import LayerKind

import checks
import hostinfo
from checks import Checker
from stats import tail

clock = time.perf_counter


@dataclass
class Rep:
    """One timed repetition: each operation's time, counts and outputs.

    ``ops`` names every operation of the timed section once, so the same
    name in two repetitions is the same operation on the same input.
    ``ops_ref`` holds the same times in reference seconds: each divided by
    the host-speed probe taken just before and just after it.
    """

    ops: dict[str, float] = field(default_factory=dict)
    ops_ref: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    outputs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._probe = hostinfo.probe_s()

    @contextlib.contextmanager
    def op(self, name: str):
        """Time one operation of the timed section; the probes stay outside."""
        before = self._probe
        t0 = clock()
        yield
        elapsed = clock() - t0
        self._probe = hostinfo.probe_s()
        self.ops[name] = elapsed
        self.ops_ref[name] = hostinfo.to_reference(elapsed, before, self._probe)

    @property
    def wall(self) -> float:
        """The timed section's duration: the sum of its operations."""
        return sum(self.ops.values())


@dataclass
class Row:
    """One line of the metric table a run prints."""

    name: str
    value: float
    unit: str
    note: str = ""


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, workdir: Path, chk: Checker):
        raise NotImplementedError

    def run(self, state, tracer=None) -> Rep:
        raise NotImplementedError

    def run_for_trace(self, state, tracer=None) -> Rep:
        """The repetition the traced run times with and without tracing."""
        return self.run(state, tracer)

    def check(self, state, rep: Rep, chk: Checker) -> None:
        raise NotImplementedError

    #: whose peak resident set ``peak_rss_mb`` reports
    rss_of = (resource.RUSAGE_SELF, "this process")

    def peak_rss(self) -> tuple[float, str, str]:
        """(MiB, unit, note); ru_maxrss is in KiB on Linux."""
        who, note = self.rss_of
        return resource.getrusage(who).ru_maxrss / 1024.0, "MiB", note

    def rows(self, state, reps: list[Rep]) -> list[Row]:
        """Workload-specific end-to-end metrics."""
        return []


# --- cli_pipeline -----------------------------------------------------------------

#: The 3-layer 112x112 demo network of acceptance criterion 8.
DEMO_NET = steering.NetworkSpec(
    (
        layers.cnn(112, 112, 3, 3, 3, 43),
        layers.cnn(112, 112, 3, 3, 43, 61),
        layers.cnn(112, 112, 3, 3, 61, 37),
    )
)
#: The CNN config `predict` prices and `analyze` takes its geometry from.
LAYER_CONFIG = layers.cnn(24, 24, 3, 3, 43, 64)
PLAN_NETWORKS = 120
STAGE_TIMEOUT_S = 120


@contextlib.contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@dataclass
class CliState:
    seed: int
    workdir: Path
    env: dict


class CliPipeline(Workload):
    name = "cli_pipeline"
    why = "cold CLI processes of the README pipeline; package import dominates every stage"

    STAGES = ("plan", "synth", "fit", "predict", "analyze", "expand", "compress")
    rss_of = (resource.RUSAGE_CHILDREN, "largest CLI process")

    @staticmethod
    def argv(stage: str, seed: int) -> list[str]:
        return {
            "plan": ["plan", "--networks", str(PLAN_NETWORKS), "--seed", str(seed),
                     "--out", "plan.jsonl"],
            "synth": ["synth", "--plan", "plan.jsonl", "--oracle", "default",
                      "--out", "profile.jsonl"],
            "fit": ["fit", "--dataset", "profile.jsonl", "--seed", str(seed),
                    "--out", "model.json"],
            "predict": ["predict", "--model", "model.json", "--config", "layer.json"],
            "analyze": ["analyze", "--model", "model.json", "--dataset", "profile.jsonl",
                        "--config", "layer.json", "--out", "report.json"],
            "expand": ["expand", "--model", "model.json", "--network", "net.json",
                       "--out", "expanded.json", "--trace", "trace.json"],
            "compress": ["compress", "--model", "model.json", "--network", "net.json",
                         "--lambda", "1.0", "--out", "compressed.json"],
        }[stage]

    def setup(self, seed, workdir, chk):
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "layer.json").write_text(json.dumps(layers.config_to_dict(LAYER_CONFIG)))
        (workdir / "net.json").write_bytes(steering.save_network(DEMO_NET))
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        # the untimed warm-up start a user's first call would also pay
        proc = self._spawn(["--help"], workdir, env)
        chk.expect(proc.returncode == 0, f"warm-up start: exit status {proc.returncode}")
        return CliState(seed=seed, workdir=workdir, env=env)

    @staticmethod
    def _spawn(argv, workdir, env):
        try:
            return subprocess.run(
                [sys.executable, "-m", "layertime.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return subprocess.CompletedProcess(exc.cmd, -1, exc.stdout or "", "timeout")

    def _outputs_digest(self, workdir: Path) -> str:
        blobs = []
        for name in ("model.json", "expanded.json", "compressed.json"):
            path = workdir / name
            blobs.append(path.read_bytes() if path.is_file() else b"")
        return _digest(*blobs)

    def run(self, state, tracer=None):
        rep = Rep()
        for stage in self.STAGES:
            with rep.op(stage):
                proc = self._spawn(self.argv(stage, state.seed), state.workdir, state.env)
            rep.outputs[stage] = (proc.returncode, proc.stdout)
        rep.digest = self._outputs_digest(state.workdir)
        return rep

    def run_for_trace(self, state, tracer=None):
        """The same stages in this process, through ``layertime.cli.main``."""
        rep = Rep()
        with _cwd(state.workdir):
            for stage in self.STAGES:
                out = io.StringIO()
                with rep.op(stage), _phase(tracer, f"cli.main.{stage}"), \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(self.argv(stage, state.seed))
                rep.outputs[stage] = (code, out.getvalue())
        rep.digest = self._outputs_digest(state.workdir)
        return rep

    def check(self, state, rep, chk):
        for stage in self.STAGES:
            code, stdout = rep.outputs[stage]
            checks.check_stage(chk, stage, code, stdout)
        d = state.workdir
        try:
            checks.check_record_counts(
                chk,
                checks.printed_plan_count(rep.outputs["plan"][1]),
                len(harness.load_plan(d / "plan.jsonl")),
                len(harness.read_profile(d / "profile.jsonl")),
            )
            models = tree.load_models((d / "model.json").read_bytes())
            checks.check_fit_report(chk, rep.outputs["fit"][1], list(LayerKind))
            checks.check_predict(chk, rep.outputs["predict"][1],
                                 models[LayerKind.CNN].predict(LAYER_CONFIG))
            before = steering.network_time(models, DEMO_NET)
            expanded = steering.load_network((d / "expanded.json").read_bytes())
            checks.check_expanded_total(chk, "expand", before,
                                        steering.network_time(models, expanded))
            compressed = steering.load_network((d / "compressed.json").read_bytes())
            checks.check_compressed_total(chk, before, steering.network_time(models, compressed))
        except Exception as exc:  # a missing or unreadable output is a failed check
            chk.expect(False, f"reading the pipeline outputs raised {exc!r}")

    def rows(self, state, reps):
        return [
            Row(f"stage.{stage}_s", median([r.ops[stage] for r in reps]), "s",
                f"median of {len(reps)} cold processes")
            for stage in self.STAGES
        ]


# --- fit_heavy --------------------------------------------------------------------

FIT_NETWORKS = 400
#: Multiplicative oracle noise, device-like.  At 4-8% the greedy split
#: search picks another root than the planted ``in_channel % 4`` on about
#: 1% of plans (``out_channel % 4`` or ``in_channel % 2``), so the root
#: check would not be an invariant; at 2% every seed tried recovers it.
FIT_NOISE = 0.02
#: ``mape_stop`` sits below the noise floor (E|e| ~ 1.6%), so every node
#: splits until the depth cap: the NNLS rows solved vary by ~1.5% between
#: seeds, where uncapped trees vary by ~10% (the NNLS calls still vary by
#: ~10%).  `layertime fit --max-depth 4 --mape-stop 0.01` fits with the
#: same parameters.
FIT_PARAMS = tree.FitParams(max_depth=4, mape_stop=0.01)


def split_dataset(dataset: tree.Dataset, rng: np.random.Generator):
    """The 75/25 train/test split, drawn as `layertime fit` draws it."""
    n = len(dataset)
    test_mask = np.zeros(n, dtype=bool)
    test_mask[rng.permutation(n)[: n // 4]] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)


@dataclass
class FitState:
    seed: int
    profile: Path


class FitHeavy(Workload):
    name = "fit_heavy"
    why = "in-process fit of a 400-network profile with 2% noise; split search and NNLS dominate"

    def setup(self, seed, workdir, chk):
        workdir.mkdir(parents=True, exist_ok=True)
        plan = harness.generate_plan(n_networks=FIT_NETWORKS, seed=seed)
        samples = harness.synth_profile(harness.default_oracle(noise=FIT_NOISE), plan)
        profile = workdir / "profile.jsonl"
        harness.write_profile(samples, profile)
        return FitState(seed=seed, profile=profile)

    def run(self, state, tracer=None):
        rep = Rep()
        with rep.op("ingest"):
            data = harness.ingest_profile(state.profile)
        rng = np.random.default_rng(state.seed)
        models, held_out, rows = {}, {}, 0
        for kind in sorted(data, key=lambda k: k.value):
            with rep.op(f"fit.{kind.value}"):
                train, test = split_dataset(data[kind], rng)
                model = tree.fit_tree(train, FIT_PARAMS)
                predictions = model.predict_rows(test.features, test.explanatory)
            held_out[kind] = (test, predictions)
            models[kind] = model
            rows += len(train)
        with rep.op("roundtrip"):
            blob = tree.save_models(models)
            loaded = tree.load_models(blob)
        rep.counts["train_rows"] = rows
        rep.digest = _digest(blob)
        rep.outputs = {"models": models, "loaded": loaded, "held_out": held_out}
        return rep

    @staticmethod
    def heldout_mape_pct(rep: Rep) -> dict[LayerKind, float]:
        return {
            kind: 100.0 * float(np.mean(np.abs(predictions - test.times) / test.times))
            for kind, (test, predictions) in rep.outputs["held_out"].items()
        }

    def check(self, state, rep, chk):
        mapes = self.heldout_mape_pct(rep)
        for kind, (test, predictions) in rep.outputs["held_out"].items():
            checks.check_predictions(chk, kind, predictions)
            checks.check_heldout_mape(chk, kind, mapes[kind], FIT_NOISE)
            again = rep.outputs["loaded"][kind].predict_rows(test.features, test.explanatory)
            checks.check_bit_identical(chk, kind, predictions, again)
        if chk.expect(LayerKind.CNN in rep.outputs["models"], "no CNN model was fitted"):
            checks.check_cnn_root(chk, rep.outputs["models"][LayerKind.CNN])

    def rows(self, state, reps):
        wall = median([r.wall for r in reps])
        worst = max(self.heldout_mape_pct(reps[0]).items(), key=lambda item: item[1])
        lo, hi = checks.mape_window_pct(FIT_NOISE)
        return [
            Row("fit_rows_per_s", reps[0].counts["train_rows"] / wall, "rows/s",
                f"{reps[0].counts['train_rows']} training rows / median timed section"),
            Row("heldout_mape_pct", worst[1], "%",
                f"worst kind {worst[0].value}; noise {FIT_NOISE}, accepted {lo:.1f}-{hi:.1f}%"),
        ]


# --- steer --------------------------------------------------------------------------

STEER_INSTANCES = 48
CHAIN_LENGTHS = (64, 80, 96, 112, 128)
STEER_LAMBDA = 1.0
_MULTIPLE_TAUS = (2, 3, 4, 6, 8)
_CNN_FEATURES = len(layers.feature_names(LayerKind.CNN))


class WidthLoss:
    """In-process loss that never increases with width; counts its calls."""

    def __init__(self, weights) -> None:
        self.weights = tuple(float(w) for w in weights)
        self.calls = 0

    def value(self, net: steering.NetworkSpec) -> float:
        return sum(w / layer.out_channel for w, layer in zip(self.weights, net.layers))

    def __call__(self, net: steering.NetworkSpec) -> float:
        self.calls += 1
        return self.value(net)


def _small_cnn(rng: np.random.Generator) -> layers.StructureConfig:
    return layers.cnn(24, 24, 3, 3, int(rng.integers(4, 65)), int(rng.integers(4, 65)))


def random_tree(rng: np.random.Generator, depth: int = 0, max_depth: int = 3) -> tree.Node:
    """A random, never fitted, condition tree with non-negative node fits."""
    reference = layers.derive_explanatory(_small_cnn(rng)).as_array()
    w = rng.uniform(0.0, 2.0, size=reference.shape[0]) / (reference + 1.0)
    w *= rng.random(size=w.shape) < 0.8
    node = tree.Node(fit=tree.LinearFit(w=w, b=float(rng.uniform(0.0, 10.0)), n=0, mape=0.0, mse=0.0))
    if depth >= max_depth or rng.random() < 0.35:
        return node
    j = int(rng.integers(0, _CNN_FEATURES))
    if rng.random() < 0.6:
        node.condition = tree.Condition(j, int(rng.choice(_MULTIPLE_TAUS)), tree.ConditionKind.MULTIPLE)
    else:
        threshold = float(layers.derive_features(_small_cnn(rng)).values[j])
        node.condition = tree.Condition(j, max(threshold, 1.0), tree.ConditionKind.RANGE)
    node.left = random_tree(rng, depth + 1, max_depth)
    node.right = random_tree(rng, depth + 1, max_depth)
    return node


@dataclass
class Instance:
    models: dict
    net: steering.NetworkSpec
    grids: list[list[int]]
    loss: WidthLoss


def make_instance(seed: int, index: int) -> Instance:
    """A 3-layer 24x24 CNN net, ~6-point width grids and a random tree."""
    rng = np.random.default_rng([seed, index])
    model = tree.TimeModel(kind=LayerKind.CNN, root=random_tree(rng))
    widths = [int(w) for w in rng.integers(4, 65, size=4)]
    net = steering.NetworkSpec(
        tuple(layers.cnn(24, 24, 3, 3, widths[i], widths[i + 1]) for i in range(3))
    )
    grids = [
        sorted({widths[i + 1], *(int(w) for w in rng.choice(np.arange(4, 65), size=5, replace=False))})
        for i in range(3)
    ]
    return Instance({LayerKind.CNN: model}, net, grids, WidthLoss(rng.uniform(5.0, 50.0, size=3)))


def make_chain(seed: int, length: int) -> steering.NetworkSpec:
    """A CNN chain of ``length`` 24x24 layers with random widths."""
    rng = np.random.default_rng([seed, 1_000_000 + length])
    widths = [int(w) for w in rng.integers(4, 129, size=length + 1)]
    return steering.NetworkSpec(
        tuple(layers.cnn(24, 24, 3, 3, widths[i], widths[i + 1]) for i in range(length))
    )


@dataclass
class SteerState:
    instances: list[Instance]
    chains: list[steering.NetworkSpec]
    #: channel-alignment models: random trees give no width conflicts
    chain_models: dict
    fixed_point_checked: bool = False


class Steer(Workload):
    name = "steer"
    why = "in-process compression and chain expansion; scalar predict and derivation dominate, no NNLS"

    def setup(self, seed, workdir, chk):
        state = SteerState(
            instances=[make_instance(seed, i) for i in range(STEER_INSTANCES)],
            chains=[make_chain(seed, length) for length in CHAIN_LENGTHS],
            chain_models=dict(harness.default_oracle().models),
        )
        # warm-up: one call of each operation before the timed section
        first = state.instances[0]
        steering.greedy_compress(first.loss, first.models, first.net, STEER_LAMBDA, first.grids)
        steering.brute_force_compress(first.loss, first.models, first.net, STEER_LAMBDA, first.grids)
        steering.expand_network(state.chain_models, state.chains[0])
        return state

    def run(self, state, tracer=None):
        rep = Rep()
        calls_before = sum(inst.loss.calls for inst in state.instances)
        compressed, expanded = [], []
        with _phase(tracer, "bench.instances"):
            for i, inst in enumerate(state.instances):
                with rep.op(f"greedy.{i}"):
                    greedy = steering.greedy_compress(inst.loss, inst.models, inst.net,
                                                      STEER_LAMBDA, inst.grids)
                with rep.op(f"brute.{i}"):
                    brute = steering.brute_force_compress(inst.loss, inst.models, inst.net,
                                                          STEER_LAMBDA, inst.grids)
                compressed.append((greedy, brute))
        with _phase(tracer, "bench.chains"):
            for chain in state.chains:
                with rep.op(f"chain.{len(chain)}"):
                    expanded.append(steering.expand_network(state.chain_models, chain))
        rep.counts["steering.evaluator.calls"] = (
            sum(inst.loss.calls for inst in state.instances) - calls_before
        )
        rep.counts["steering.chain_layers"] = sum(len(chain) for chain in state.chains)
        rep.digest = _digest(
            *(steering.save_network(net) for pair in compressed for net in pair),
            *(steering.save_network(net) for net, _ in expanded),
        )
        rep.outputs = {"compressed": compressed, "expanded": expanded}
        return rep

    def check(self, state, rep, chk):
        for i, (inst, (greedy, brute)) in enumerate(zip(state.instances, rep.outputs["compressed"])):
            def objective(net, inst=inst):
                return steering.time_aware_objective(inst.loss.value, inst.models, net, STEER_LAMBDA)

            checks.check_compression(chk, f"instance {i}", objective(inst.net),
                                     objective(greedy), objective(brute))
        # re-expansion costs as much as the expansion, so the fixed point is
        # checked once per run; the digests cover the later repetitions
        thorough = not state.fixed_point_checked
        for chain, (expanded, _) in zip(state.chains, rep.outputs["expanded"]):
            again = steering.expand_network(state.chain_models, expanded)[0] if thorough else None
            checks.check_chain(chk, f"chain of {len(chain)}", state.chain_models, chain,
                               expanded, again)
        state.fixed_point_checked = True

    def rows(self, state, reps):
        def samples(prefix):
            return [t for r in reps for op, t in r.ops.items() if op.startswith(prefix)]

        greedy, brute, chain = samples("greedy."), samples("brute."), samples("chain.")
        rows = [
            Row("greedy_p50_ms", 1e3 * median(greedy), "ms", f"median of {len(greedy)} calls"),
            Row("brute_p50_ms", 1e3 * median(brute), "ms", f"median of {len(brute)} calls"),
        ]
        brute_tail = tail(brute)
        if brute_tail is not None:
            value, pct, n = brute_tail
            rows.append(Row("brute_tail_ms", 1e3 * value, "ms", f"p{pct:.1f} of {n} calls"))
        rows.append(Row("expand_chain_ms", 1e3 * median(chain), "ms",
                        f"median of {len(chain)} chains of {CHAIN_LENGTHS[0]}-{CHAIN_LENGTHS[-1]} layers"))
        return rows


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (CliPipeline, FitHeavy, Steer)
}
