"""``ingest_profile`` reads by column and matches the per-record path on every file.

The per-record path is :func:`read_profile` followed by one
:meth:`Dataset.from_records` per kind.  On a file that it loads, the column
path gives byte-identical arrays; on a file that it rejects, the same error
type and message.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layertime import harness
from layertime.harness import (
    ProfileFormatError,
    default_oracle,
    generate_plan,
    ingest_profile,
    read_profile,
    synth_profile,
    write_profile,
)
from layertime.layers import LayerKind, config_from_dict, config_to_dict, fc
from layertime.tree import Dataset
from test_fit_path import configs_by_kind


def _size_field(record: dict) -> str:
    """The field a record's sizes grow with: its input width."""
    return "in_channel" if record["layer_type"] == "CNN" else "in_dim"


def _largest_in_domain(record: dict) -> int:
    """The largest value of the record's size field that keeps its config in
    the domain, where every size is below 2**53; 0 if no value does."""
    name = _size_field(record)

    def inside(value: int) -> bool:
        try:
            config_from_dict({**record["config"], name: value, "kind": record["layer_type"]})
        except ValueError:
            return False
        return True

    lo, hi = 0, 2**53 - 1  # sizes grow with the field, so bisect
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid - 1)
    return lo


@st.composite
def records(draw):
    """One valid profile record as a dict, optional fields present or not."""
    kind = draw(st.sampled_from(list(LayerKind)))
    config = config_to_dict(draw(configs_by_kind[kind]))
    del config["kind"]
    record = {"layer_type": kind.value, "config": config}
    if draw(st.integers(0, 9)) == 0:
        # a size from 2**20 up to the largest the domain allows, whose
        # products in flops and memory come near 2**53
        top = _largest_in_domain(record)
        if top:
            config[_size_field(record)] = draw(st.integers(min(2**20, top), top))
    record["time_ms"] = draw(st.one_of(
        st.floats(1e-6, 1e6, allow_nan=False), st.integers(1, 10**6), st.just(10**400 // 10**100),
    ))
    for name, values in (("reps", st.integers(1, 50)),
                         ("source", st.sampled_from(["measured", "synthetic"])),
                         ("schema", st.just(1))):
        if draw(st.booleans()):
            record[name] = draw(values)
    return record


def _line(record: dict, sort_keys: bool) -> bytes:
    return json.dumps(record, sort_keys=sort_keys).encode("utf-8")


_BLANK = [b"", b" ", b"\t", b"\r", b"\x0b\x0c  "]


def _cnn_record() -> dict:
    config = {"in_height": 5, "in_width": 6, "kernel_height": 3, "kernel_width": 3,
              "in_channel": 4, "out_channel": 8, "padding": "valid", "stride": 1}
    return {"layer_type": "CNN", "config": config, "time_ms": 1.5}


def _set(record: dict, path: tuple, value) -> dict:
    record = json.loads(json.dumps(record))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return record


def _drop(record: dict, path: tuple) -> dict:
    record = _set(record, path, None)
    target = record
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return record


def _config_field(draw, record: dict) -> tuple:
    return ("config", draw(st.sampled_from(sorted(record["config"]))))


# each hostile record: a valid record with one rule broken
HOSTILE_RECORDS = {
    "field not an int": lambda draw, r: _set(r, _config_field(draw, r), draw(st.sampled_from(
        [True, False, 1.5, 3.0, "3", None, [4]]))),
    "field below 1": lambda draw, r: _set(r, _config_field(draw, r), draw(st.sampled_from(
        [0, -2]))),
    "field near 2**53": lambda draw, r: _set(r, _config_field(draw, r), draw(st.sampled_from(
        [2**53 - 1, 2**53, 10**200, 10**400]))),
    "size just past the domain": lambda draw, r: _set(
        r, ("config", _size_field(r)), _largest_in_domain(r) + 1),
    "stride 3": lambda draw, r: _set(_cnn_record(), ("config", "stride"), 3),
    "valid kernel too large": lambda draw, r: _set(
        _cnn_record(), ("config", draw(st.sampled_from(["kernel_height", "kernel_width"]))), 7),
    "padding": lambda draw, r: _set(_cnn_record(), ("config", "padding"),
                                    draw(st.sampled_from(["VALID", "full", 0, None]))),
    "kind in config": lambda draw, r: _set(r, ("config", "kind"), r["layer_type"]),
    "unknown config field": lambda draw, r: _set(
        r, ("config", "stride" if r["layer_type"] != "CNN" else "step"), 2),
    "missing config field": lambda draw, r: _drop(r, _config_field(draw, r)),
    "config not an object": lambda draw, r: _set(r, ("config",), draw(st.sampled_from(
        [[], "in_dim", None, 3]))),
    "unknown key": lambda draw, r: _set(r, (draw(st.sampled_from(["watts", "kind"])),), 1),
    "missing key": lambda draw, r: _drop(
        r, (draw(st.sampled_from(["layer_type", "config", "time_ms"])),)),
    "schema": lambda draw, r: _set(r, ("schema",), draw(st.sampled_from(
        [2, True, 1.0, "1", None]))),
    "time": lambda draw, r: _set(r, ("time_ms",), draw(st.sampled_from(
        [0, 0.0, -1.0, True, "1", None, 10**400, float("inf"), float("nan")]))),
    "reps": lambda draw, r: _set(r, ("reps",), draw(st.sampled_from([0, True, 2.0, "2", None]))),
    "source": lambda draw, r: _set(r, ("source",), draw(st.sampled_from(
        ["device", None, ["measured"], {}]))),
    "layer type": lambda draw, r: _set(r, ("layer_type",), draw(st.sampled_from(
        ["fc", "RNN", None, ["FC"], 1]))),
}

# each hostile line, given the line of a valid record
HOSTILE_LINES = {
    "not an object": lambda draw, line: draw(st.sampled_from([b"[]", b"3", b"null", b'"FC"'])),
    "not json": lambda draw, line: draw(st.sampled_from(
        [b"{", line[:-1], b"nan", line + b","])),
    "two objects": lambda draw, line: line + b" " + line,
    "not utf-8": lambda draw, line: draw(st.sampled_from(
        [b"\xff", line.replace(b"}", b"\xc3}", 1)])),
    "unicode space": lambda draw, line: draw(st.sampled_from(
        ["\u00a0", "\x1c", "\x85", "\u2028"])).encode("utf-8"),
}


@st.composite
def profiles(draw):
    """The bytes of a profile file: valid records and blank lines, maybe one hostile line."""
    recs = draw(st.lists(records(), max_size=14))
    lines = []
    for record in recs:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(_BLANK)))
        lines.append(_line(record, draw(st.booleans())))
    hostile = draw(st.sampled_from(["none"] * 3 + list(HOSTILE_LINES) + list(HOSTILE_RECORDS)))
    if hostile != "none":
        record = draw(records())
        if hostile in HOSTILE_RECORDS:
            line = _line(HOSTILE_RECORDS[hostile](draw, record), draw(st.booleans()))
        else:
            line = HOSTILE_LINES[hostile](draw, _line(record, True))
        lines.insert(draw(st.integers(0, len(lines))), line)
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join(lines) + draw(st.sampled_from([b"", end]))


def reference_ingest(path) -> dict[LayerKind, Dataset]:
    """The per-record path: read_profile, then one Dataset.from_records per kind."""
    grouped: dict = {}
    for sample in read_profile(path):
        configs, times = grouped.setdefault(sample.config.kind, ([], []))
        configs.append(sample.config)
        times.append(sample.time_ms)
    return {kind: Dataset.from_records(kind, *grouped[kind])
            for kind in sorted(grouped, key=lambda k: k.value)}


def outcome(ingest, path):
    """The arrays ``ingest`` returns, or the type and message of what it raises."""
    try:
        data = ingest(path)
    except Exception as exc:  # noqa: BLE001 - any error is compared
        return type(exc), str(exc)
    return [
        (kind, [(a.dtype.str, a.shape, a.tobytes())
                for a in (ds.features, ds.explanatory, ds.times)])
        for kind, ds in data.items()
    ]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(content=profiles())
def test_column_ingest_matches_the_per_record_path(scratch, content):
    path = scratch / "profile.jsonl"
    path.write_bytes(content)
    expected = outcome(reference_ingest, path)
    actual = outcome(ingest_profile, path)
    if isinstance(expected, tuple) and expected[0] is ValueError:
        # the per-record path's one unlocated error: ingest names the record's line
        assert actual[0] is ProfileFormatError
        assert re.fullmatch(rf"{re.escape(str(path))}:\d+: {re.escape(expected[1])}", actual[1])
    else:
        assert actual == expected


def _spy_on_read_profile(monkeypatch) -> list:
    calls = []
    read = harness.read_profile
    monkeypatch.setattr(harness, "read_profile", lambda path: calls.append(path) or read(path))
    return calls


def test_a_valid_profile_is_never_read_record_by_record(tmp_path, monkeypatch):
    path = tmp_path / "profile.jsonl"
    samples = synth_profile(default_oracle(noise=0.02), generate_plan(n_networks=30, seed=4))
    write_profile(samples, path)
    calls = _spy_on_read_profile(monkeypatch)
    assert outcome(ingest_profile, path) == outcome(reference_ingest, path)
    assert calls == []


def test_a_crlf_profile_is_read_by_column(tmp_path, monkeypatch):
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    samples = synth_profile(default_oracle(noise=0.02), generate_plan(n_networks=30, seed=4))
    write_profile(samples, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    calls = _spy_on_read_profile(monkeypatch)
    assert outcome(ingest_profile, crlf) == outcome(ingest_profile, lf)
    assert calls == []


@pytest.mark.parametrize("defect", [
    ('"time_ms": 1.0', '"time_ms": 0.0'),  # an error
    ('"in_dim": 3', f'"in_dim": {2**53}'),  # a field of 2**53: an error
    ('"in_dim": 3', f'"in_dim": {2**50}'),  # flops past 2**53: an error
])
def test_a_profile_the_columns_cannot_vouch_for_is_read_record_by_record(
    tmp_path, monkeypatch, defect
):
    path = tmp_path / "profile.jsonl"
    line = json.dumps({"config": {"in_dim": 3, "out_dim": 5}, "layer_type": "FC",
                       "time_ms": 1.0}, sort_keys=True)
    path.write_text(line + "\n" + line.replace(*defect) + "\n")
    expected = outcome(reference_ingest, path)
    assert expected[0] is ProfileFormatError and expected[1].startswith(f"{path}:2: ")
    calls = _spy_on_read_profile(monkeypatch)
    assert outcome(ingest_profile, path) == expected
    assert calls == [path]


@pytest.mark.parametrize("before, after", [
    (b" ", b""), (b"", b" "), (b"\t", b"\r"), (b"\r", b"\t "),  # JSON whitespace: loads
    (b"\xef\xbb\xbf", b""), (b"", b"x"), (b"", b" 1"), (b"\x0c", b""),  # an error
], ids=repr)
def test_a_record_that_does_not_fill_its_line_is_read_as_read_profile_reads_it(
    tmp_path, before, after
):
    line = _line(_cnn_record(), True)
    path = tmp_path / "profile.jsonl"
    path.write_bytes(line + b"\n" + before + line + after + b"\n")
    assert outcome(ingest_profile, path) == outcome(reference_ingest, path)


def test_a_size_too_large_for_a_float_names_its_record(tmp_path, capsys):
    from layertime.cli import main

    path = tmp_path / "profile.jsonl"
    write_profile([harness.ProfileSample(config=fc(3, 5), time_ms=1.0)] * 2, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"in_dim": 3, "out_dim": 5',
                                f'"in_dim": {10**300}, "out_dim": {10**300}')
    path.write_text("\n\n".join(lines) + "\n")
    message = f"{path}:3: FC config has a size too large for a float"
    with pytest.raises(ProfileFormatError, match=f"^{re.escape(message)}$"):
        ingest_profile(path)
    assert main(["fit", "--dataset", str(path), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: data: {message}\n"
