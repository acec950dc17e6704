"""One front door: every way into the flow validates a request against
the one option table of :mod:`repro.flow.request`.

Each case here died with a Python traceback (``FileNotFoundError``,
``KeyError``, ``ValueError``) on the command line while the service
answered the same option values with a 400.
"""

import json

import pytest

from repro.flow import cli
from repro.flow.request import OPTIONS, SynthesisRequest, lower_options
from repro.dse.explore import DseConfig
from repro.model.platform import Platform

SMALL_SRC = """
#pragma systolic
for (o = 0; o < 16; o++) for (i = 0; i < 8; i++) for (c = 0; c < 7; c++)
  for (r = 0; r < 7; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

TINY_SPEC = {
    "name": "tinynet",
    "input": {"channels": 3, "height": 11, "width": 11},
    "layers": [{"op": "conv", "name": "c1", "out_channels": 4, "kernel": 3}],
}

#: flag -> (wire option, rejected value)
BAD_VALUES = {
    "--device": ("device", "bogus"),
    "--datatype": ("datatype", "bogus"),
    "--top-n": ("top_n", 0),
    "--cs": ("cs", 2),
    "--clock": ("clock", 0),
}

#: door -> (argv prefix, subject file suffix, the table flags its parser has)
DOORS = {
    "default": ([], ".c", list(BAD_VALUES)),
    "compile": (["compile"], ".c", list(BAD_VALUES)),
    "check": (["check"], ".c", ["--device", "--datatype"]),
    "verify": (["verify"], ".c", ["--device", "--datatype"]),
    "import": (["import"], ".json", list(BAD_VALUES)),
}

CASES = [
    (door, flag) for door, (_, _, flags) in DOORS.items() for flag in ["missing-file", *flags]
]


@pytest.mark.parametrize("door, flag", CASES, ids=[f"{d}-{f.lstrip('-')}" for d, f in CASES])
def test_bad_input_is_one_error_line_and_exit_2(door, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default --output is relative
    prefix, suffix, _ = DOORS[door]
    subject = tmp_path / f"subject{suffix}"
    if flag == "missing-file":
        extra = []
    else:
        subject.write_text(SMALL_SRC if suffix == ".c" else json.dumps(TINY_SPEC))
        extra = [flag, str(BAD_VALUES[flag][1])]
    assert cli.main([*prefix, str(subject), *extra]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()  # one stderr line, no traceback
    assert line.startswith("error: ")
    assert captured.out == ""
    assert not (tmp_path / "systolic_out").exists()  # refused before any work


#: subject -> argv of a search no design satisfies: c_s = 1.0 leaves the
#: Eq. 12 window with no PE array that uses every DSP.
UNSATISFIABLE = {
    "layer": lambda tmp: [str(_written(tmp / "layer.c", SMALL_SRC))],
    "network": lambda tmp: ["--network", "tiny_cnn"],
    "import": lambda tmp: ["import", str(_written(tmp / "net.json", json.dumps(TINY_SPEC)))],
}


def _written(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("subject", list(UNSATISFIABLE))
def test_an_unsatisfiable_search_is_one_error_line_and_exit_2(
    subject, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    argv = [*UNSATISFIABLE[subject](tmp_path), "--cs", "1.0", "--no-cache", "--quiet"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()  # one stderr line, no traceback
    assert line.startswith("error: ")
    assert captured.out == ""
    assert not (tmp_path / "systolic_out").exists()  # nothing written


@pytest.mark.parametrize("option, value", BAD_VALUES.values(), ids=list(BAD_VALUES))
def test_the_service_door_rejects_the_same_values(option, value):
    with pytest.raises(ValueError):
        SynthesisRequest.from_payload({"source": SMALL_SRC, "options": {option: value}})
    with pytest.raises(ValueError):
        lower_options({option: value})


@pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["list", "object"])
def test_an_uncastable_value_is_a_value_error(value):
    with pytest.raises(ValueError, match="malformed option value"):
        lower_options({"cs": value})


def test_defaults_are_read_from_the_model_not_restated():
    platform, config = Platform(), DseConfig()
    assert OPTIONS["device"].default == platform.device.name
    assert OPTIONS["datatype"].default == platform.datatype.name
    assert OPTIONS["clock"].default == platform.assumed_clock_mhz
    assert OPTIONS["cs"].default == config.min_dsp_utilization
    assert OPTIONS["top_n"].default == config.top_n
    lowered = lower_options({})
    assert lowered["platform"] == platform and lowered["config"] == config
    assert lower_options({"cs": None}) == lowered  # null = absent


def test_local_compile_and_submit_share_one_payload(tmp_path):
    """``submit`` posts exactly the body a local compile validates."""
    src = tmp_path / "layer.c"
    src.write_text(SMALL_SRC)
    argv = [str(src), "--cs", "0.0", "--top-n", "2", "--sim-backend", "fast"]
    local = cli._payload(cli.build_arg_parser().parse_args(argv))
    posted = cli._payload(cli.build_submit_arg_parser().parse_args(argv))
    assert local == posted
    assert local["options"] == {
        "device": "arria10_gt1150", "datatype": "float32", "cs": 0.0,
        "top_n": 2, "clock": 280.0, "sim_backend": "fast",
    }
    assert set(local["options"]) <= set(OPTIONS)


def test_a_request_has_exactly_one_subject():
    with pytest.raises(ValueError, match="exactly one"):
        SynthesisRequest()
    with pytest.raises(ValueError, match="exactly one"):
        SynthesisRequest(source=SMALL_SRC, nest=SynthesisRequest.from_payload(
            {"source": SMALL_SRC}).nest)


def test_strict_is_synced_into_the_config_once():
    request = SynthesisRequest(source=SMALL_SRC, strict=True)
    assert request.strict and request.config.strict
    assert not SynthesisRequest(source=SMALL_SRC).config.strict


def test_the_documented_option_table_is_the_one_in_the_code():
    import re
    from pathlib import Path

    text = (Path(__file__).parents[2] / "docs" / "service.md").read_text()
    section = text.split("### Request options")[1].split("\n#")[0]
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| `([^`]*)` \|", section, re.MULTILINE)
    assert rows == [
        (name, option.kind.__name__, str(option.default)) for name, option in OPTIONS.items()
    ]
