"""Golden artifact hashes: the emitted C text, pinned.

``golden/artifact_hashes.json`` holds the sha256 of ``kernel``,
``driver``, ``testbench`` and ``host`` for every design of
:func:`corpus` under float32 and ``fixed8_16``, plus the unified kernel
and its driver for ``test_unified.SPECS``.  It was recorded with the
three hand-written emitters that preceded ``repro.codegen.template``, so
it is the oracle that moving the blocked nest into one skeleton changed
no byte — except where the old kernel was wrong: with W on the vertical
chain it wired ``w_reg``/``in_reg`` by tensor rank, and for those
kernels :func:`test_w_vertical_kernels_differ_only_in_the_chains` undoes
the fix line by line and demands the *old* hash back.

Regenerate after an *intentional* change to the emitted text with::

    pytest tests/codegen/test_artifact_hashes.py --refresh-golden
"""

import difflib
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.codegen.backend import OPENCL_BACKEND, TESTBENCH_BACKEND
from repro.codegen.unified import generate_unified_kernel, generate_unified_testbench
from repro.hw.datatype import FIXED_8_16
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.model.serialize import design_from_dict
from tests.codegen import test_unified
from tests.codegen.test_codegen import small_design

GOLDEN = Path(__file__).parent / "golden" / "artifact_hashes.json"
LINT_GOLDEN = Path(__file__).parent.parent / "analysis" / "golden" / "lint_findings.json"
PLATFORMS = {"float32": Platform(), "fixed8_16": Platform().with_datatype(FIXED_8_16)}

#: The chain comment and statements the rank-wired kernel emitted.
OLD_COMMENT = "// PE-array shift registers: weights move right, inputs move down."
NEW_COMMENT = "// PE-array shift registers: weights move down, inputs move right."
CHAIN_RE = re.compile(r"^ *(w_reg|in_reg)\[x\]\[y\]\[v\] = \(([xy]) == 0\) \? ")


def mapping_designs():
    """The 12 feasible mappings of one small conv nest, in enumeration order."""
    nest = conv_loop_nest(6, 4, 5, 5, 2, 2, name="alt")
    return {
        f"mapping{index:02d}": DesignPoint.create(
            nest, mapping, ArrayShape(2, 3, 2), {"p": 2, "q": 2}
        )
        for index, mapping in enumerate(feasible_mappings(nest))
    }


def corpus():
    strided = conv_loop_nest(8, 4, 5, 5, 3, 3, stride=2, name="strided")
    designs = {
        "small": small_design(),
        "awkward": small_design(shape=ArrayShape(5, 3, 4), middle={"r": 2, "p": 2}),
        "strided": DesignPoint.create(
            strided, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 5, 2),
            {"r": 5, "p": 3, "q": 3},
        ),
    }
    for name, entry in json.loads(LINT_GOLDEN.read_text()).items():
        designs[name] = design_from_dict(entry["design"])
    designs.update(mapping_designs())
    return designs


def emit_all():
    """``{"design/datatype/artifact": text}`` for the whole corpus."""
    texts = {}
    for dtype, platform in PLATFORMS.items():
        for name, design in corpus().items():
            for backend in (OPENCL_BACKEND, TESTBENCH_BACKEND):
                for label, text in backend.emit(design, platform).items():
                    texts[f"{name}/{dtype}/{label}"] = text
        unified = (
            test_unified.TEMPLATE, test_unified.MAPPING, test_unified.SHAPE,
            test_unified.SPECS, platform,
        )
        texts[f"unified/{dtype}/kernel"] = generate_unified_kernel(*unified)
        texts[f"unified/{dtype}/testbench"] = generate_unified_testbench(*unified)
    return texts


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def w_vertical_kernels():
    return {
        f"{name}/{dtype}/kernel"
        for name, design in mapping_designs().items()
        if design.mapping.vertical_array == "W"
        for dtype in PLATFORMS
    }


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--refresh-golden"):
        GOLDEN.parent.mkdir(exist_ok=True)
        hashes = {key: sha(text) for key, text in emit_all().items()}
        GOLDEN.write_text(json.dumps(hashes, indent=1) + "\n")
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def emitted():
    return emit_all()


def test_every_artifact_but_the_rank_wired_kernels_is_byte_equal(golden, emitted):
    assert sorted(emitted) == sorted(golden)
    moved = {key for key, text in emitted.items() if sha(text) != golden[key]}
    assert moved == w_vertical_kernels()


def test_w_vertical_kernels_differ_only_in_the_chains(golden, emitted):
    """Swap the chain directions back and restore the old comment: the
    text that comes out is, by its hash, the parent's."""
    swap = {"x": "y", "y": "x"}
    assert len(w_vertical_kernels()) == 12
    for key in sorted(w_vertical_kernels()):
        new = emitted[key].splitlines()
        old = []
        for line in new:
            chain = CHAIN_RE.match(line)
            if chain:
                reg, axis = chain.group(1), chain.group(2)
                prev = "[x-1][y]" if axis == "x" else "[x][y-1]"
                assert line.endswith(f": {reg}{prev}[v];"), line
                back = "[x][y-1]" if axis == "x" else "[x-1][y]"
                line = line.replace(f"({axis} == 0)", f"({swap[axis]} == 0)")
                line = line[: -len(f"{reg}{prev}[v];")] + f"{reg}{back}[v];"
            elif line.strip() == NEW_COMMENT:
                line = line.replace(NEW_COMMENT, OLD_COMMENT)
            old.append(line)
        assert sha("\n".join(old) + "\n") == golden[key], key
        touched = [
            row[1:].strip()
            for row in difflib.unified_diff(old, new, lineterm="", n=0)
            if row[0] in "+-" and not row.startswith(("+++", "---"))
        ]
        assert len(touched) == 6, key
        assert all(CHAIN_RE.match(t) or t in (OLD_COMMENT, NEW_COMMENT) for t in touched)
