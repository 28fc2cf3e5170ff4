"""Span tracer that wraps layertime's functions from outside the package.

Modules bind what they import by name, so a function is wrapped at every
name through which callers look it up (``layertime.tree.nnls`` for the
tree's NNLS calls, ``layertime.cli.fit_tree`` for the CLI's fits, and so
on), and methods are wrapped on their class.  Each call appends one span
(name, parent, start, end) to flat in-memory arrays; spans are turned into
per-layer metrics, and written to disk, only when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from layertime import analysis, cli, harness, steering, tree

Hook = Callable[["Tracer", tuple, object], None]


def _rows_of_first_arg(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["nnls.nnls.rows"] += args[0].shape[0]


def _len_of_result(counter: str) -> Hook:
    def hook(tracer: "Tracer", args: tuple, result) -> None:
        tracer.counts[counter] += len(result)

    return hook


def _tree_nodes(tracer: "Tracer", args: tuple, result) -> None:
    for _, node in result.nodes():
        tracer.counts["tree.nodes"] += 1
        tracer.counts["tree.split.internal_nodes"] += node.condition is not None


def _distinct_layer(tracer: "Tracer", args: tuple, result) -> None:
    model, config = args[0], args[1]
    tracer.distinct_layers.add((id(model), config))


def _conflicts(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["steering.conflicts"] += len(result[1].conflicts)


# (span name, lookup sites, hook); a site is (owner, attribute name)
_TARGETS: list[tuple[str, list[tuple[object, str]], Hook | None]] = [
    ("nnls.nnls", [(tree, "nnls")], _rows_of_first_arg),
    ("tree.nnls_fit", [(tree, "nnls_fit")], None),
    ("tree.enumerate_conditions", [(tree, "enumerate_conditions")],
     _len_of_result("tree.enumerate_conditions.candidates")),
    ("tree.fit_tree", [(tree, "fit_tree"), (cli, "fit_tree")], _tree_nodes),
    ("layers.derive_features", [(tree, "derive_features"), (steering, "derive_features")], None),
    ("layers.derive_explanatory",
     [(tree, "derive_explanatory"), (steering, "derive_explanatory")], None),
    ("tree.TimeModel.predict", [(tree.TimeModel, "predict")], None),
    ("tree.TimeModel.predict_rows", [(tree.TimeModel, "predict_rows")],
     _len_of_result("tree.TimeModel.predict_rows.rows")),
    ("tree.Dataset.from_records", [(tree.Dataset, "from_records")],
     _len_of_result("tree.Dataset.from_records.rows")),
    ("harness.generate_plan", [(harness, "generate_plan"), (cli, "generate_plan")], None),
    ("harness.synth_profile", [(harness, "synth_profile"), (cli, "synth_profile")], None),
    ("harness.read_profile", [(harness, "read_profile")],
     _len_of_result("harness.read_profile.records")),
    ("analysis.coefficient_pvalues",
     [(analysis, "coefficient_pvalues"), (cli, "coefficient_pvalues")], None),
    ("steering.expand_layer", [(steering, "expand_layer")], _distinct_layer),
    ("steering.expand_network", [(steering, "expand_network"), (cli, "expand_network")],
     _conflicts),
    ("steering.network_time", [(steering, "network_time"), (cli, "network_time")], None),
    ("steering.greedy_compress", [(steering, "greedy_compress"), (cli, "greedy_compress")], None),
    ("steering.brute_force_compress",
     [(steering, "brute_force_compress"), (cli, "brute_force_compress")], None),
]

#: Span names whose call counts and self times become per-layer metrics.
TRACED_NAMES = tuple(name for name, _, _ in _TARGETS)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.distinct_layers: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` with one span recorded per call, then ``hook`` applied."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        if hook is None:
            return traced

        def traced_with_hook(*args, **kwargs):
            result = traced(*args, **kwargs)
            hook(self, args, result)
            return result

        return traced_with_hook

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Replace every lookup site with its traced wrapper."""
        if self._saved:
            return
        for name, sites, hook in _TARGETS:
            owner0, attr0 = sites[0]
            raw = owner0.__dict__[attr0]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                wrapped = self.wrap(name, raw, hook)
            for owner, attr in sites:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results, computed once the run ends -----------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
        )

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        name_id, parent, start, end = self._arrays()
        duration = end - start
        covered = np.zeros(duration.shape[0])
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        calls = np.bincount(name_id, minlength=len(self.names))
        seconds = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}

    def calls_within(self, name: str, enclosing: str) -> int:
        """Calls of ``name`` made inside any span called ``enclosing``."""
        if name not in self._ids or enclosing not in self._ids:
            return 0
        name_id, _, start, end = self._arrays()
        outer = name_id == self._ids[enclosing]
        lo, hi = start[outer], end[outer]
        inner_start = start[name_id == self._ids[name]]
        slot = np.searchsorted(lo, inner_start, side="right") - 1
        inside = (slot >= 0) & (inner_start <= hi[np.maximum(slot, 0)])
        return int(inside.sum())

    def write(self, path: Path) -> None:
        """Write the raw spans (names, parent index, start, end) to ``path``."""
        name_id, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name_id=name_id, parent=parent,
                     start=start, end=end)
