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

#: flag -> (wire option, rejected values).  A NaN clock passes a
#: ``<= 0`` check and used to die in a NumPy reduction inside phase 1.
BAD_VALUES = {
    "--device": ("device", ["bogus"]),
    "--datatype": ("datatype", ["bogus"]),
    "--top-n": ("top_n", [0]),
    "--cs": ("cs", [2]),
    "--clock": ("clock", [0, "nan", "inf", "-inf"]),
}

#: door -> (argv prefix, subject file suffix, the table flags its parser has).
#: ``submit`` must refuse before it posts: nothing listens on its URL, so
#: a request that got that far would exit 1 with "cannot reach".
DOORS = {
    "default": ([], ".c", list(BAD_VALUES)),
    "compile": (["compile"], ".c", list(BAD_VALUES)),
    "check": (["check"], ".c", ["--device", "--datatype"]),
    "verify": (["verify"], ".c", ["--device", "--datatype"]),
    "import": (["import"], ".json", list(BAD_VALUES)),
    "submit": (["submit", "--url", "http://127.0.0.1:9"], ".c", list(BAD_VALUES)),
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
        extras = [[]]
    else:
        subject.write_text(SMALL_SRC if suffix == ".c" else json.dumps(TINY_SPEC))
        extras = [[f"{flag}={value}"] for value in BAD_VALUES[flag][1]]
    for extra in extras:
        assert cli.main([*prefix, str(subject), *extra]) == 2, extra
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


#: wire option -> JSON values of the wrong type, which only a JSON body
#: can carry.  Each used to be cast into range: ``"false"`` ran strict,
#: ``"no"`` kept the pragma check, 2.7 became 2, and ``true`` became a
#: top-N of 1 or a 1 MHz clock.
MISTYPED = {
    "strict": ["false"],
    "require_pragma": ["no"],
    "top_n": [2.7, True],
    "clock": [True],
}


@pytest.mark.parametrize(
    "option, values",
    [*BAD_VALUES.values(), *MISTYPED.items()],
    ids=[*BAD_VALUES, *MISTYPED],
)
def test_the_service_door_rejects_the_same_values(option, values):
    for value in values:
        with pytest.raises(ValueError):
            SynthesisRequest.from_payload({"source": SMALL_SRC, "options": {option: value}})
        with pytest.raises(ValueError):
            lower_options({option: value})


@pytest.mark.parametrize("value", [[1], {"a": 1}, 10**400], ids=["list", "object", "huge-int"])
def test_an_uncastable_value_is_a_value_error(value):
    with pytest.raises(ValueError, match="malformed option value"):
        lower_options({"cs": value})


def test_an_int_where_a_float_goes_keeps_one_fingerprint():
    requests = [
        SynthesisRequest.from_payload({"source": SMALL_SRC, "options": {"clock": clock}})
        for clock in (250, 250.0)
    ]
    assert requests[0].platform.assumed_clock_mhz == 250.0
    assert requests[0].fingerprint() == requests[1].fingerprint()


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


def test_the_documented_option_table_is_the_one_in_the_code():
    import re
    from pathlib import Path

    text = (Path(__file__).parents[2] / "docs" / "service.md").read_text()
    section = text.split("### Request options")[1].split("\n#")[0]
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| `([^`]*)` \|", section, re.MULTILINE)
    assert rows == [
        (name, option.kind.__name__, str(option.default)) for name, option in OPTIONS.items()
    ]


# ---------------------------------------------------------------- C-text doors

_LOOPS = """
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
"""

#: kind -> C text.  ``strided`` is legal as an IR nest (layer folding
#: writes such nests) but not as C text; ``no-reuse`` reads W through all
#: six loops, so W has no reuse loop (SA130) and no mapping is feasible.
DOOR_SOURCES = {
    "legal": "#pragma systolic" + _LOOPS
    + "    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];\n",
    "strided": "#pragma systolic" + _LOOPS
    + "    OUT[o][r][c] += W[o][i][p][q] * IN[i][2*r+p][2*c+q];\n",
    "pragma-less": _LOOPS + "    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];\n",
    "no-reuse": "#pragma systolic" + _LOOPS
    + "    OUT[o][r][c] += W[o][i][r+p][c+q] * IN[i][r+p][c+q];\n",
}
DOOR_OPTIONS = {"cs": 0.0, "top_n": 1}


def _rejection(exc):
    """(SA codes, message) of a refusal; a service ``BadRequest`` carries
    the parse error it wraps as its cause."""
    from repro.analysis.diagnostics import DiagnosticError

    cause = exc.__cause__ if isinstance(exc.__cause__, ValueError) else exc
    codes = []
    if isinstance(cause, DiagnosticError):
        codes = sorted(d.code for d in cause.report.errors)
    return ("rejected", codes, str(cause))


def _library_door(source, strict):
    from repro.flow.compile import compile_c_source

    try:
        result = compile_c_source(
            source, config=DseConfig(min_dsp_utilization=0.0, top_n=1),
            name="door", strict=strict, cache=False,
        )
    except ValueError as exc:
        return _rejection(exc)
    return ("design", result.evaluation.design.signature)


def _payload_door(source, strict):
    from repro.flow.request import run

    payload = {"source": source, "name": "door", "options": {**DOOR_OPTIONS, "strict": strict}}
    try:
        result = run(SynthesisRequest.from_payload(payload), cache=False)
    except ValueError as exc:
        return _rejection(exc)
    return ("design", result.evaluation.design.signature)


@pytest.fixture(scope="module")
def job_manager():
    from repro.service.jobs import JobManager

    manager = JobManager(workers=1, cache=False)
    manager.start()
    yield manager
    manager.drain(timeout=30.0)


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("kind", list(DOOR_SOURCES))
def test_a_c_text_request_gets_one_verdict_at_every_door(kind, strict, job_manager):
    """The library, the request door (the CLI) and the job
    service parse C text with one helper: the same design, or a refusal
    with the same SA codes and message.  A strict strided nest used to
    raise SA110 in the library and finish ``done`` through the service."""
    from repro.service.queue import BadRequest

    source = DOOR_SOURCES[kind]
    payload = {"source": source, "name": "door", "options": {**DOOR_OPTIONS, "strict": strict}}
    try:
        job = job_manager.wait(job_manager.submit(payload).id, timeout=120.0)
    except BadRequest as exc:  # refused at admission: a 400
        served = _rejection(exc)
    else:
        if job.error is None:
            served = ("design", job.result.evaluation.design.signature)
        else:
            _, _, message = job.error.partition(": ")
            served = ("rejected", [], message)
    library = _library_door(source, strict)
    assert _payload_door(source, strict) == library
    assert served == library
    if strict and kind != "legal":
        assert library[0] == "rejected" and library[1], library


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_a_c_text_request_is_fingerprinted_by_its_nest(strict):
    """``compile_c_source`` builds a ``source`` request; its fingerprint
    used to raise ``TypeError``.  It must equal the fingerprint of the
    same text submitted through the payload door."""
    source = DOOR_SOURCES["legal"]
    options = {**DOOR_OPTIONS, "strict": strict}
    local = SynthesisRequest(source=source, name="local", **lower_options(options))
    submitted = SynthesisRequest.from_payload(
        {"source": source, "name": "submitted", "options": options}
    )
    assert local.fingerprint() == submitted.fingerprint()


# ------------------------------------------------------------ one strict switch

#: The five static-analysis audits of a strict run.  Phase 1 and phase 2
#: both call ``verify_design_points``; its ``context`` tells them apart.
AUDITS = {"check_source", "check_nest", "phase-1 finalist", "phase-2 winner", "lint_artifacts"}


def _nest_door(strict):
    from repro.flow.compile import synthesize_nest
    from repro.ir.loop import conv_loop_nest

    result = synthesize_nest(
        conv_loop_nest(8, 4, 6, 6, 3, 3), config=DseConfig(min_dsp_utilization=0.0, top_n=1),
        strict=strict, cache=False,
    )
    return ("design", result.evaluation.design.signature)


#: entry point -> (run it, the audits a strict run owes).  A nest comes
#: with no C text, so it has no source to check.
STRICT_DOORS = {
    "compile_c_source": (lambda strict: _library_door(DOOR_SOURCES["legal"], strict), AUDITS),
    "synthesize_nest": (_nest_door, AUDITS - {"check_source"}),
    "payload": (lambda strict: _payload_door(DOOR_SOURCES["legal"], strict), AUDITS),
}


@pytest.fixture
def audits(monkeypatch):
    """The audits a run calls, in call order."""
    from repro.analysis import codegen_lint, design_check, nest_check

    seen = []

    def spy(module, attr, label=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            seen.append(attr if label is None else label(kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    spy(nest_check, "check_source")
    spy(nest_check, "check_nest")
    spy(design_check, "verify_design_points", lambda kwargs: kwargs["context"])
    spy(codegen_lint, "lint_artifacts")
    return seen


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("door", list(STRICT_DOORS))
def test_strict_is_all_or_nothing(door, strict, audits):
    """``strict`` has one home, the request, and every stage reads it
    there.  A search knob copy of it used to run the phase-1 audit alone."""
    run_door, owed = STRICT_DOORS[door]
    assert run_door(strict)[0] == "design"
    assert set(audits) == (owed if strict else set())
