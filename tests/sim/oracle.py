"""Independent oracles for the cycle simulators: boundary streams, netlist.

:class:`repro.sim.feed.WaveFeeder` gathers a run's operand streams,
masks and output keys as NumPy broadcasts over every (block, wave)
at once.  This module computes the same quantities one (block, wave,
position, lane) at a time over plain dicts and Python ints, straight
from ``i_l = base_l + mid_l * t_l + inner_l`` and the nest's accesses,
and ``tests/sim/test_feed.py`` holds the feeder to it entry for entry.

:func:`flat_top_module` is the per-instance ``systolic_top`` builder the
RTL backend used before its PE grid became one ``generate`` loop.
"""

from __future__ import annotations

from repro.codegen.rtl import (
    I_FIELDS,
    W_FIELDS,
    Instance,
    ModuleDef,
    Port,
    Reg,
    RegSet,
    Wire,
    bnot,
    bor,
    mux,
    sig,
)
from repro.sim.schedule import BlockSpec


class ScalarFeeder:
    """Boundary streams of one design, one lane at a time."""

    def __init__(self, design) -> None:
        self.design = design
        self.nest = design.nest
        self.mapping = design.mapping
        self.vector = design.shape.vector
        self._iterators = self.nest.iterators
        self._bounds = self.nest.bounds
        reads = {a.array: a for a in self.nest.reads}
        self.w_access = reads[self.mapping.horizontal_array]
        self.in_access = reads[self.mapping.vertical_array]

    def indices(
        self, block: BlockSpec, wave: dict[str, int], x: int, y: int, lane: int
    ) -> dict[str, int]:
        """Original iteration vector for (block, wave, PE, SIMD lane):
        ``i_l = base_l + mid_l * t_l + inner_l``."""
        t = self.design.tiling.t
        inner = {self.mapping.row: x, self.mapping.col: y, self.mapping.vector: lane}
        bases = block.base_map
        return {
            it: bases[it] + wave[it] * t(it) + inner.get(it, 0)
            for it in self._iterators
        }

    def gather(self, access, arrays, idx: dict[str, int]) -> float:
        """Array value at an iteration point; 0 outside the original bounds."""
        for it, value in idx.items():
            if value >= self._bounds[it]:
                return 0.0
        return float(arrays[access.array][access.evaluate(idx)])

    def w_vector(self, block, wave, x, arrays) -> list[float]:
        """The weight lanes entering row x for one wave."""
        return [
            self.gather(self.w_access, arrays, self.indices(block, wave, x, 0, v))
            for v in range(self.vector)
        ]

    def in_vector(self, block, wave, y, arrays) -> list[float]:
        """The input lanes entering column y for one wave."""
        return [
            self.gather(self.in_access, arrays, self.indices(block, wave, 0, y, v))
            for v in range(self.vector)
        ]

    def row_ok(self, block, wave, x) -> bool:
        """Row x's non-column, non-vector iterators are in bounds (y = 0)."""
        idx = self.indices(block, wave, x, 0, 0)
        skip = (self.mapping.col, self.mapping.vector)
        return all(idx[it] < self._bounds[it] for it in self._iterators if it not in skip)

    def col_ok(self, block, wave, y) -> bool:
        """Column y's iterator is in bounds (x = 0)."""
        col = self.mapping.col
        return self.indices(block, wave, 0, y, 0)[col] < self._bounds[col]

    def out_key(self, block, wave, x, y) -> tuple[int, ...] | None:
        """The output element PE (x, y) accumulates into, or None on a
        padding position (any non-vector iterator out of bounds)."""
        idx = self.indices(block, wave, x, y, 0)
        if any(
            idx[it] >= self._bounds[it]
            for it in self._iterators
            if it != self.mapping.vector
        ):
            return None
        return self.nest.output.evaluate(idx)


def flat_top_module(plan) -> ModuleDef:
    """``systolic_top`` as one :class:`Instance` per PE — the netlist the
    RTL backend spelled out line by line before it emitted a ``generate``
    grid.  ``tests/codegen/test_rtl.py`` holds the grid's elaboration to
    it, net for net."""
    shape = plan.design.shape
    rows, cols, vector = shape.rows, shape.cols, shape.vector
    lanes = [(f"val_{v}", "f64") for v in range(vector)]
    w_fields = [*W_FIELDS.items(), *lanes]
    i_fields = [*I_FIELDS.items(), *lanes]
    ports: list[Port] = []
    for x in range(rows):
        for fld, kind in w_fields:
            ports.append(Port(f"w_{fld}_{x}", "in", kind))
    for y in range(cols):
        for fld, kind in i_fields:
            ports.append(Port(f"i_{fld}_{y}", "in", kind))
    ports.append(Port("flip", "in", "bit"))
    ports.append(Port("clear", "in", "bit"))
    ports.append(Port("err", "out", "bit"))

    instances: list[Instance] = []
    for x in range(rows):
        for y in range(cols):
            inputs = {"bank": sig("bank"), "clear": sig("clear")}
            for fld, _ in w_fields:
                if y == 0:
                    inputs[f"w_{fld}_in"] = sig(f"w_{fld}_{x}")
                else:
                    inputs[f"w_{fld}_in"] = sig(f"pe_{x}_{y - 1}_w_{fld}")
            for fld, _ in i_fields:
                if x == 0:
                    inputs[f"i_{fld}_in"] = sig(f"i_{fld}_{y}")
                else:
                    inputs[f"i_{fld}_in"] = sig(f"pe_{x - 1}_{y}_i_{fld}")
            outputs = {"err": f"pe_{x}_{y}_err"}
            if y + 1 < cols:
                for fld, _ in w_fields:
                    outputs[f"w_{fld}_out"] = f"pe_{x}_{y}_w_{fld}"
            if x + 1 < rows:
                for fld, _ in i_fields:
                    outputs[f"i_{fld}_out"] = f"pe_{x}_{y}_i_{fld}"
            instances.append(
                Instance(
                    name=f"pe_{x}_{y}",
                    module="pe",
                    params={"PE_OFF": plan.pe_offset(x, y)},
                    inputs=inputs,
                    outputs=outputs,
                )
            )

    err = sig("pe_0_0_err")
    for inst in instances[1:]:
        err = bor(err, sig(f"{inst.name}_err"))

    return ModuleDef(
        name="systolic_top",
        ports=tuple(ports),
        regs=(Reg("bank", "bit", 0),),
        wires=(Wire("err", "bit", err),),
        seq=(RegSet("bank", mux(sig("flip"), bnot(sig("bank")), sig("bank"))),),
        instances=tuple(instances),
    )
