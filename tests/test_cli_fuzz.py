"""Argv fuzz of every subcommand, driven in-process through ``cli.main``.

Whatever the arguments, a run exits 0, 1, 2 or 3, prints at most one stderr
line (none on success), raises no warning, and writes no ``NaN`` or
``Infinity`` into a JSON output.  Each flag mostly gets the file or value it
expects, and otherwise a huge, negative or zero int; ``nan``, ``inf`` or
``1e308``; an empty string; a directory, the null device, a file that is not
UTF-8, a missing file, or another input's file.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_leaf_channel_model
from layertime.cli import main
from layertime.harness import (
    default_oracle,
    generate_plan,
    save_oracle,
    save_plan,
    synth_profile,
    write_profile,
)
from layertime.layers import LayerKind, cnn, config_to_dict
from layertime.steering import NetworkSpec, save_network
from layertime.tree import save_models

# placeholders for the input directory and a fresh output directory per run
IN, OUT = "@IN", "@OUT"

_INPUTS = (
    "plan.jsonl", "profile.jsonl", "model.json", "layer.json", "net.json", "oracle.json",
    "latin1.json", "subdir", "missing.json",
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-inputs")
    plan = generate_plan(n_networks=6, seed=3)
    save_plan(plan, root / "plan.jsonl")
    write_profile(synth_profile(default_oracle(), plan), root / "profile.jsonl")
    (root / "model.json").write_bytes(save_models({LayerKind.CNN: two_leaf_channel_model()}))
    layer = cnn(24, 24, 3, 3, 43, 64)
    (root / "layer.json").write_text(json.dumps(config_to_dict(layer)))
    (root / "net.json").write_bytes(save_network(NetworkSpec((layer,))))
    (root / "oracle.json").write_bytes(save_oracle(default_oracle()))
    (root / "latin1.json").write_bytes(b'{"kind": "\xff"}\n')
    (root / "subdir").mkdir()
    return root


_ODD_NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "", "x"]
_HUGE = [str(2**64), str(10**30)]


def _input(usual: str):
    """The file a flag reads, and the files, directory and names it may get instead."""
    others = [f"{IN}/{name}" for name in _INPUTS if name != usual] + ["", os.devnull]
    return st.just(f"{IN}/{usual}"), st.sampled_from(others)


def _count(low: int, high: int, huge_ok: bool = True):
    """An int flag's values in [low, high] (or huge, where that asks for no large work),
    and its zero, negative and odd ones."""
    usual = st.integers(low, high).map(str)
    if huge_ok:
        usual = st.one_of(usual, st.sampled_from(_HUGE))
    return usual, st.sampled_from(["0", "-1", str(-(2**64))] + _ODD_NUMBERS)


def _real(low: float, high: float):
    usual = st.floats(low, high).map(repr)
    return usual, st.sampled_from(["-1.0", "0", "1e-308"] + _ODD_NUMBERS)


_OUT = st.just(f"{OUT}/result"), st.sampled_from(["", f"{IN}/subdir", os.devnull, f"{OUT}/no/r"])
_GRID = (
    st.lists(st.floats(0.0, 1.0, exclude_min=True).map(repr), min_size=1, max_size=4)
    .map(",".join),
    st.sampled_from(["nan", "inf", "1e308", "", ",", "0", "-1", "1.5", "0.5,nan"]),
)

# per subcommand: (flag, (usual values, odd values) or None for a switch, required);
# every drawn size stays small: a plan never asks for more than 50 networks
_FLAGS = {
    "plan": [("--networks", _count(1, 50, huge_ok=False), False),
             ("--seed", _count(0, 2**32), False), ("--out", _OUT, True)],
    "synth": [("--plan", _input("plan.jsonl"), True),
              ("--oracle", (st.sampled_from(["default", f"{IN}/oracle.json"]),
                            _input("oracle.json")[1]), False),
              ("--out", _OUT, True)],
    "fit": [("--dataset", _input("profile.jsonl"), True), ("--out", _OUT, True),
            ("--seed", _count(0, 2**32), False), ("--min-leaf", _count(1, 40), False),
            ("--mape-stop", _real(0.001, 1.0), False), ("--max-depth", _count(1, 8), False)],
    "predict": [("--model", _input("model.json"), True),
                ("--config", _input("layer.json"), True)],
    "analyze": [("--model", _input("model.json"), True),
                ("--dataset", _input("profile.jsonl"), False),
                ("--config", _input("layer.json"), False), ("--out", _OUT, True)],
    "expand": [("--model", _input("model.json"), True), ("--network", _input("net.json"), True),
               ("--out", _OUT, True),
               ("--trace", (st.just(f"{OUT}/trace"), _OUT[1].filter(bool)), False)],
    "compress": [("--model", _input("model.json"), True),
                 ("--network", _input("net.json"), True), ("--lambda", _real(0.0, 10.0), False),
                 ("--evaluator-cmd", (st.just(""), st.just("")), False),
                 ("--width-grid", _GRID, False), ("--budget", _count(1, 50), False),
                 ("--brute-force", None, False), ("--out", _OUT, True)],
}

# mostly nothing; else an unknown flag, or a stray argument whose line break
# must not split the error line
_STRAY = st.sampled_from([[]] * 4 + [["--bogus"], ["stray\nargument"]])


@st.composite
def argvs(draw, command):
    """``command``'s argv: each flag present if required or drawn, odd one time in four."""
    argv = [command]
    for flag, values, required in _FLAGS[command]:
        if not (required or draw(st.booleans())):
            continue
        if values is None:
            argv.append(flag)
        else:
            usual, odd = values
            # --flag=value, so that a value such as -inf is not taken for a flag
            argv.append(f"{flag}={draw(odd if draw(st.integers(0, 3)) == 0 else usual)}")
    return argv + draw(_STRAY)


def _assert_finite_json(path: Path, where: str) -> None:
    def reject(token):
        raise AssertionError(f"{where} wrote a non-finite JSON number: {token}")

    text = path.read_text(encoding="utf-8")
    try:
        json.loads(text, parse_constant=reject)
    except json.JSONDecodeError:  # a JSON-lines file
        for line in text.splitlines():
            json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("command", list(_FLAGS))
@settings(max_examples=50, deadline=None, print_blob=True)
@given(data=st.data())
def test_any_argv_keeps_the_exit_code_contract(inputs, command, data):
    template = data.draw(argvs(command), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        argv = [arg.replace(IN, str(inputs)).replace(OUT, out) for arg in template]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        err = stderr.getvalue()
        # a warning's category and origin, so a one-off warning shows where it came from
        warned = [f"{w.category.__name__} at {w.filename}:{w.lineno}: {w.message}" for w in caught]
        # every message describes the whole run, so a failure that does not recur
        # can still be read, and replayed, from its last lines
        where = (
            f"argv={argv!r} template={template!r} code={code!r} "
            f"stderr={err!r} warnings={warned!r}"
        )
        for path in Path(out).rglob("*"):
            if path.is_file():
                _assert_finite_json(path, where)
    assert code in (0, 1, 2, 3), where
    assert warned == [], where
    if code == 0:
        assert err == "", where
        # printed paths go back to their placeholders: a random directory name
        # such as tmpnanlze3z is not a printed result
        printed = stdout.getvalue().replace(out, OUT).replace(str(inputs), IN)
        assert "nan" not in printed, f"{where} stdout={stdout.getvalue()!r}"
    else:
        assert err.startswith("error: ") and err.endswith("\n"), where
        assert len(err.splitlines()) == 1, where
