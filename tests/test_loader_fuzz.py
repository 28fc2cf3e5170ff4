"""Every loader rejects a valid document with one value swapped for another JSON kind.

The documents are written by the program's own writers.  One leaf or
container is replaced by a value of another JSON kind (null, a bool, a
string, a float, an integer too large for a float, NaN, a list, an object),
or an integer by the equal float.  The loader must raise its documented
error and nothing else.  The one mutation that may load is an integral
float as a ``multiple`` condition's ``tau``.  A config with a field or a
derived size of ``2**53`` or more is a located format error too.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import leaf, two_leaf_channel_model
from layertime import harness
from layertime.cli import main
from layertime.harness import (
    ProfileFormatError,
    ProfileSample,
    default_oracle,
    ingest_profile,
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


# a field of 2**53, and flops of 2**53 + 2**26 from two fields of 2**26
_OUTSIDE = {"field of 2**53": fc(2**53, 1), "flops past 2**53": fc(2**26, 2**26)}
# flops of 2**53 - 1: the widest FC layer of one output that loads
_EDGE = fc(2**52 - 1, 1)
_TOO_LARGE = "FC config has a size too large for a float"


def _documents_of(config) -> dict:
    """The network, profile, plan and config documents of ``config``, as the writers write it."""
    return {
        "network": json.loads(save_network(NetworkSpec((config,)))),
        "profile": _json_line(write_profile, ProfileSample(config=config, time_ms=3.25)),
        "plan": _json_line(save_plan, config),
        "config": config_to_dict(config),
    }


@pytest.mark.parametrize("name", ["network", "profile", "plan", "config"])
@pytest.mark.parametrize("config", list(_OUTSIDE.values()), ids=list(_OUTSIDE))
def test_a_size_of_2_53_or_more_is_a_located_format_error(name, config, scratch):
    with pytest.raises(_ERRORS[name]) as raised:
        _load(name, json.dumps(_documents_of(config)[name]), scratch)
    # line files name the line; the CLI names a network or config file by its path
    where = {
        "network": "malformed layer record: ",
        "profile": f"{scratch / 'profile.jsonl'}:1: ",
        "plan": f"{scratch / 'plan.jsonl'}:1: ",
        "config": "",
    }[name]
    assert str(raised.value) == where + _TOO_LARGE
    assert _load(name, json.dumps(_documents_of(_EDGE)[name]), scratch)


@pytest.mark.parametrize("config", list(_OUTSIDE.values()), ids=list(_OUTSIDE))
def test_ingest_profile_rejects_a_size_of_2_53_or_more_by_both_paths(config, scratch):
    path = scratch / "ingest.jsonl"
    lines = [_documents_of(c)["profile"] for c in (_EDGE, config)]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    # the column path refuses the file, and the record path names the line
    assert harness._ingest_columns(path) is None
    message = f"^{re.escape(f'{path}:2: {_TOO_LARGE}')}$"
    for ingest in (harness._ingest_records, ingest_profile):
        with pytest.raises(ProfileFormatError, match=message):
            ingest(path)
    # at the edge, both paths load the same arrays
    path.write_text(json.dumps(lines[0]) + "\n")
    by_column, by_record = harness._ingest_columns(path), harness._ingest_records(path)
    assert list(by_column) == list(by_record) == [LayerKind.FC]
    for name in ("features", "explanatory", "times"):
        column, record = (getattr(data[LayerKind.FC], name) for data in (by_column, by_record))
        assert column.tobytes() == record.tobytes()
    assert by_column[LayerKind.FC].explanatory[0, 0] == 2**53 - 1
