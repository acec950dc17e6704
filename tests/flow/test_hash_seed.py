"""Result payloads do not depend on the interpreter's hash seed.

Set and dict iteration order over strings changes with
``PYTHONHASHSEED``; anything in the flow that lets such an order leak
into a winner, a tie-break or an emitted artifact shows up as two
different payloads for one request.  Each run below is a fresh
interpreter with a different seed and no stage cache, so the payloads
are computed, not replayed.  Only the wall-clock fields are masked, as
``tests/service/test_wire_contract.py`` masks them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = r'''
import json
from repro.flow.request import SynthesisRequest, run
from repro.model.serialize import record_of

TINY = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""
STRICT = {"cs": 0.0, "top_n": 2, "strict": True, "sim_backend": "both"}
payloads = []
for body in ({"source": TINY, "options": STRICT}, {"network": "alexnet"}):
    result = run(SynthesisRequest.from_payload(body))
    encoded = record_of(result).encode(result)
    for wall_clock in ("dse_seconds", "elapsed_seconds"):
        encoded.pop(wall_clock, None)
    payloads.append(encoded)
print(json.dumps(payloads, sort_keys=True))
'''


def _payloads(hash_seed: str) -> list:
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout)


def test_payloads_are_equal_under_two_hash_seeds():
    zero, one = _payloads("0"), _payloads("1")
    assert len(zero) == 2
    assert zero == one
