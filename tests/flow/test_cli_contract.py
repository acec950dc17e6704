"""The command line's flag contract, pinned.

``golden/cli_contract.json`` holds, for each of the six argument
parsers, every action's option strings, ``dest``, default, type name,
``nargs``, choices and help text.  It was recorded with the hand-written
``add_argument`` calls that preceded the option table of
:mod:`repro.flow.request`, so it is the oracle that deriving the target
and DSE flags from that table changed no flag, default or help string.
Choices are compared as a sorted list: the order of the names inside
``--network {...}`` follows the model registry and is not contract.

Regenerate after an *intentional* flag change with::

    pytest tests/flow/test_cli_contract.py --refresh-golden
"""

import json
from pathlib import Path

from repro.flow import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_contract.json"

PARSERS = {
    "compile": cli.build_arg_parser,
    "check": cli.build_check_arg_parser,
    "verify": cli.build_verify_arg_parser,
    "serve": cli.build_serve_arg_parser,
    "submit": cli.build_submit_arg_parser,
    "import": cli.build_import_arg_parser,
}


def contract():
    return {
        name: [
            {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "nargs": action.nargs,
                "choices": None if action.choices is None else sorted(action.choices),
                "help": action.help,
            }
            for action in build()._actions
        ]
        for name, build in PARSERS.items()
    }


def test_every_parser_matches_the_recorded_contract(request):
    current = json.loads(json.dumps(contract()))
    if request.config.getoption("--refresh-golden"):
        GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert current.keys() == golden.keys()
    for name in golden:
        assert current[name] == golden[name], f"systolic-synth {name}"
