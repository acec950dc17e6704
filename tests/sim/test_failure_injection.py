"""Failure injection: the simulators' internal checkers must actually fire.

A checker that never trips is indistinguishable from no checker; these
tests corrupt the schedule deliberately and assert the assertion
machinery catches it.
"""

import numpy as np
import pytest

from repro.codegen.rtl import (
    Instance,
    ModuleDef,
    Port,
    Wire,
    band,
    bnot,
    sig,
)
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.nn.golden import random_layer_tensors
from repro.nn.layers import ConvLayer
from repro.sim.engine import SystolicArrayEngine, _Packet
from repro.sim.rtl import NetlistSimulator, RtlSimulator


def small_design():
    layer = ConvLayer("t", 2, 3, 5, 5, kernel=2)
    return layer, DesignPoint.create(
        layer.to_loop_nest(),
        Mapping("o", "c", "i", "IN", "W"),
        ArrayShape(2, 2, 2),
        {"r": 2},
    )


class _BrokenSkewEngine(SystolicArrayEngine):
    """An engine whose weight injection is off by one cycle — the kind of
    bug a wrong skew register would cause in RTL."""

    def _run_block(self, w_lanes, in_lanes, out_keys, flat):
        rows, cols = self.rows, self.cols
        n_waves = len(w_lanes)
        w_reg = [[None] * cols for _ in range(rows)]
        in_reg = [[None] * cols for _ in range(rows)]
        from repro.sim.schedule import wave_schedule_cycles

        cycles = wave_schedule_cycles(n_waves, rows, cols) + 1
        for cycle in range(cycles):
            for x in range(rows - 1, -1, -1):
                for y in range(cols - 1, -1, -1):
                    w_reg[x][y] = w_reg[x][y - 1] if y > 0 else None
                    in_reg[x][y] = in_reg[x - 1][y] if x > 0 else None
            for x in range(rows):
                m = cycle - x - 1  # BUG: one cycle late
                if 0 <= m < n_waves:
                    w_reg[x][0] = _Packet(m, w_lanes[m][x])
            for y in range(cols):
                m = cycle - y
                if 0 <= m < n_waves:
                    in_reg[0][y] = _Packet(m, in_lanes[m][y])
            for x in range(rows):
                for y in range(cols):
                    w_pkt, in_pkt = w_reg[x][y], in_reg[x][y]
                    if w_pkt is None or in_pkt is None:
                        continue
                    if w_pkt.wave != in_pkt.wave:
                        raise AssertionError(
                            f"schedule violation at PE({x},{y}) cycle {cycle}"
                        )
        return cycles, 0


class TestScheduleChecker:
    def test_broken_skew_is_detected(self):
        """Misaligned injection must trip the wave-tag assertion, not
        silently compute garbage."""
        layer, design = small_design()
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        engine = _BrokenSkewEngine(design)
        with pytest.raises(AssertionError, match="schedule violation"):
            engine.run({"IN": x, "W": w})

    def test_clean_engine_passes_same_inputs(self):
        layer, design = small_design()
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        result = SystolicArrayEngine(design).run({"IN": x, "W": w})
        assert result.compute_cycles > 0


class _LateRowRtl(RtlSimulator):
    """RTL stimulus whose row (weight-side) injection is one edge late."""

    def _edges(self, streams):
        late = [k for k, port in enumerate(self._ports) if port.name.startswith("w_")]
        shifted = []
        for edges in super()._edges(streams):
            rows = [list(row) for row in edges]
            for e, row in enumerate(rows):
                source = edges[e - 1] if e else self._flip_row
                for k in late:
                    row[k] = source[k]
            shifted.append([tuple(row) for row in rows])
        return shifted


class TestRtlScheduleChecker:
    def test_late_row_injection_trips_the_err_wire(self):
        """The emitted per-PE tag comparator must catch a skewed stream,
        exactly as the engine's wave-tag assertion does."""
        layer, design = small_design()
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        with pytest.raises(AssertionError, match="RTL schedule violation"):
            _LateRowRtl(design).run({"IN": x, "W": w})

    def test_clean_rtl_passes_same_inputs(self):
        layer, design = small_design()
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        result = RtlSimulator(design).run({"IN": x, "W": w}).result
        engine = SystolicArrayEngine(design).run({"IN": x, "W": w})
        assert result.output.tobytes() == engine.output.tobytes()


def _port(name, direction="in"):
    return Port(name, direction, "bit")


class TestCombinationalLoop:
    def test_cyclic_wires_are_rejected(self):
        top = ModuleDef(
            name="top",
            ports=(_port("a"), _port("y", "out")),
            wires=(
                Wire("x", "bit", band(sig("a"), sig("y"))),
                Wire("y", "bit", bnot(sig("x"))),
            ),
        )
        with pytest.raises(ValueError, match="combinational loop"):
            NetlistSimulator(top, {})

    def test_loop_through_instance_aliases_is_rejected(self):
        """child.d is an alias of the parent's q, q of child.q, and child.q
        is computed from child.d: one net feeding itself."""
        child = ModuleDef(
            name="inv",
            ports=(_port("d"), _port("q", "out")),
            wires=(Wire("q", "bit", bnot(sig("d"))),),
        )
        top = ModuleDef(
            name="top",
            ports=(_port("a"),),
            instances=(
                Instance("u", "inv", inputs={"d": sig("q")}, outputs={"q": "q"}),
            ),
        )
        with pytest.raises(ValueError, match="combinational loop"):
            NetlistSimulator(top, {"inv": child})

    def test_every_net_of_a_one_pe_array_is_readable(self):
        """Alias nets (the top's pe_0_0_err, the child's bank) read like
        any other net."""
        layer, design = small_design()
        design = DesignPoint.create(
            design.nest, design.mapping, ArrayShape(1, 1, 2), {"r": 2}
        )
        sim = RtlSimulator(design)
        netsim = NetlistSimulator(sim.top, {"pe": sim.pe})
        for name in ("err", "pe_0_0_err", "pe_0_0.err", "pe_0_0.bank", "bank"):
            assert netsim.signal(name) == 0
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        rtl = sim.run({"IN": x, "W": w}).result
        engine = SystolicArrayEngine(design).run({"IN": x, "W": w})
        assert rtl.output.tobytes() == engine.output.tobytes()

