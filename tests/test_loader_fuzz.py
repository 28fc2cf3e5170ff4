"""Every loader rejects a valid document with one value swapped for another JSON kind.

The documents are written by the program's own writers.  One leaf or
container is replaced by a value of another JSON kind (null, a bool, a
string, a float, an integer too large for a float, NaN, a list, an object),
or an integer by the equal float.  The loader must raise its documented
error and nothing else.  The one mutation that may load is an integral
float as a ``multiple`` condition's ``tau``.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import leaf, two_leaf_channel_model
from layertime.cli import main
from layertime.harness import (
    ProfileFormatError,
    ProfileSample,
    default_oracle,
    load_oracle,
    load_plan,
    read_profile,
    save_oracle,
    save_plan,
    write_profile,
)
from layertime.layers import LayerKind, cnn, config_from_dict, config_to_dict, fc, gru
from layertime.steering import NetworkFormatError, NetworkSpec, load_network, save_network
from layertime.tree import (
    Condition,
    ConditionKind,
    ModelFormatError,
    Node,
    TimeModel,
    load_models,
    save_models,
)

_CONFIG = cnn(24, 24, 3, 3, 43, 64)


def _fc_range_model() -> TimeModel:
    # a range condition, so that a float tau is mutated too
    root = Node(
        fit=leaf([2e-8, 1e-6, 0.0], 0.5).fit,
        condition=Condition(0, 64.0, ConditionKind.RANGE),
        left=leaf([2e-8, 1e-6, 0.0], 0.2),
        right=leaf([3e-8, 1e-6, 0.0], 0.3),
    )
    return TimeModel(kind=LayerKind.FC, root=root)


def _json_line(write, value) -> dict:
    """The one record that a line writer writes for ``value``."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "records.jsonl"
        write([value], path)
        return json.loads(path.read_text())


_DOCUMENTS = {
    "model": json.loads(save_models(
        {LayerKind.CNN: two_leaf_channel_model(), LayerKind.FC: _fc_range_model()}
    )),
    "oracle": json.loads(save_oracle(default_oracle())),
    "network": json.loads(save_network(NetworkSpec(
        (cnn(24, 24, 3, 3, 8, 16), cnn(24, 24, 3, 3, 16, 32), fc(32, 10), gru(10, 4, 8))
    ))),
    "profile": _json_line(write_profile, ProfileSample(config=_CONFIG, time_ms=3.25, reps=20)),
    "plan": _json_line(save_plan, _CONFIG),
    "config": config_to_dict(_CONFIG),
}

# one value of every JSON kind; a value replaces only one of another kind
_REPLACEMENTS = (None, True, False, "3", "x", 2.5, 10**400, math.nan, [], [1], {}, {"a": 1})


def _kind(value) -> str:
    if value is None:
        return "null"
    # bool first: a bool is an int in Python, not in JSON
    return next(t.__name__ for t in (bool, int, float, str, list, dict) if isinstance(value, t))


def _paths(value, path=()):
    """The path of ``value`` and of every leaf and container inside it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    _lookup(copy, path[:-1])[path[-1]] = value
    return copy


def _replacements(original) -> list:
    values = [v for v in _REPLACEMENTS if _kind(v) != _kind(original)]
    if _kind(original) == "int":
        values.append(float(original))
    return values


@st.composite
def mutations(draw, name):
    """``(path, original, mutated document)`` for one document."""
    doc = _DOCUMENTS[name]
    path = draw(st.sampled_from(list(_paths(doc))))
    original = _lookup(doc, path)
    return path, original, _replace(doc, path, draw(st.sampled_from(_replacements(original))))


def _may_load(path, original, mutated) -> bool:
    # an integral float is a legal multiple tau, which the condition stores as an int
    return path[-1:] == ("tau",) and type(original) is int and _lookup(mutated, path) == original


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _load(name: str, text: str, scratch):
    """Load ``text`` with the loader of document ``name``."""
    if name in ("profile", "plan"):
        path = scratch / f"{name}.jsonl"
        path.write_text(text + "\n")
        return (read_profile if name == "profile" else load_plan)(path)
    if name == "config":
        return config_from_dict(json.loads(text))
    return {"model": load_models, "oracle": load_oracle, "network": load_network}[name](text)


_ERRORS = {
    "model": ModelFormatError,
    "oracle": ModelFormatError,
    "network": NetworkFormatError,
    "profile": ProfileFormatError,
    "plan": ProfileFormatError,
    "config": ValueError,
}


@pytest.mark.parametrize("name", list(_DOCUMENTS))
def test_every_document_loads_as_written(name, scratch):
    _load(name, json.dumps(_DOCUMENTS[name]), scratch)


@pytest.mark.parametrize("name", list(_DOCUMENTS))
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_a_value_of_another_kind_is_a_format_error(name, scratch, data):
    path, original, mutated = data.draw(mutations(name))
    text = json.dumps(mutated)
    if _may_load(path, original, mutated):
        _load(name, text, scratch)
        return
    with pytest.raises(_ERRORS[name]):
        _load(name, text, scratch)


@pytest.mark.parametrize("name", ["model", "config"])
# capsys is read empty before each example
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_predict_on_a_mutated_file_is_a_data_error(name, scratch, capsys, data):
    path, original, mutated = data.draw(mutations(name))
    files = {"model": _DOCUMENTS["model"], "config": _DOCUMENTS["config"], name: mutated}
    for file_name, doc in files.items():
        (scratch / f"{file_name}.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["predict", "--model", str(scratch / "model.json"),
                 "--config", str(scratch / "config.json")])
    captured = capsys.readouterr()
    if _may_load(path, original, mutated):
        assert code == 0
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: data: ") and captured.err.count("\n") == 1


def test_an_integral_float_tau_loads_as_the_integer():
    doc = _DOCUMENTS["model"]
    path = ("models", 0, "nodes", 0, "cond", "tau")
    assert _lookup(doc, path) == 4
    model = load_models(json.dumps(_replace(doc, path, 4.0)))[LayerKind.CNN]
    assert type(model.root.condition.tau) is int
    assert model.predict(_CONFIG) == two_leaf_channel_model().predict(_CONFIG)
