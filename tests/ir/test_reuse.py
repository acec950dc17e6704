"""Tests for fine-grained reuse analysis (paper Eq. 3 / the c_rl matrix)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.access import ArrayAccess
from repro.ir.domain import IterationDomain
from repro.ir.loop import conv_loop_nest
from repro.ir.reuse import (
    analyze_reuse,
    carries_reuse,
    carries_reuse_semantic,
)


class TestConvReuseTable:
    """Section 3.2's worked facts for Code 1:

    * OUT reuse carried by the reduction loops i, p, q
    * W   reuse carried by the spatial loops r, c
    * IN  reuse carried by o only (r+p / c+q kill r, c, p, q)
    """

    def setup_method(self):
        self.nest = conv_loop_nest(128, 192, 13, 13, 3, 3)
        self.table = analyze_reuse(self.nest)

    def test_out_reuse_loops(self):
        assert set(self.table.reuse_loops("OUT")) == {"i", "p", "q"}

    def test_w_reuse_loops(self):
        assert set(self.table.reuse_loops("W")) == {"r", "c"}

    def test_in_reuse_loops(self):
        assert set(self.table.reuse_loops("IN")) == {"o"}

    def test_reuse_arrays_per_loop(self):
        def carried_by(loop):
            return {array for array in self.table.arrays if self.table.carried(array, loop)}

        assert carried_by("o") == {"IN"}
        assert carried_by("c") == {"W"}
        assert carried_by("i") == {"OUT"}

    def test_paper_infeasibility_example(self):
        """Mapping L3 (c) and L4 (r) together is infeasible: neither carries
        reuse of... wait, both carry W reuse but then IN has none.  The
        paper's example: W does not relate to either L3 or L4 — W *is*
        invariant to r and c, i.e. both carry W's reuse, and the failure is
        that no third loop can give IN reuse unless it is o.  Check the
        underlying facts used by that argument."""
        assert self.table.carried("W", "r") and self.table.carried("W", "c")
        assert not self.table.carried("IN", "r")
        assert not self.table.carried("IN", "c")

    def test_str_renders_all_arrays(self):
        text = str(self.table)
        for array in ("OUT", "W", "IN"):
            assert array in text


class TestSemanticAgreesWithSyntactic:
    def test_on_small_conv(self):
        nest = conv_loop_nest(3, 2, 4, 4, 2, 2)
        dom = IterationDomain.of(nest.bounds)
        for access in nest.accesses:
            for it in nest.iterators:
                assert carries_reuse(access, it) == carries_reuse_semantic(
                    access, it, dom
                ), f"{access} / {it}"

    def test_strided_access_semantic(self):
        nest = conv_loop_nest(2, 2, 3, 3, 4, 4, stride=4)
        dom = IterationDomain.of(nest.bounds)
        in_access = nest.access("IN")
        # stride kills reuse on r for IN as well
        assert not carries_reuse(in_access, "r")
        assert not carries_reuse_semantic(in_access, "r", dom)

    def test_unbound_iterator_is_trivially_reused(self):
        access = ArrayAccess.parse("A", ["x"])
        dom = IterationDomain.of({"x": 3})
        assert carries_reuse_semantic(access, "z", dom)

    @settings(max_examples=50)
    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.integers(2, 3),
        st.integers(2, 3),
    )
    def test_property_syntactic_equals_semantic(self, o, i, rc, k):
        nest = conv_loop_nest(o, i, rc, rc, k, k)
        dom = IterationDomain.of(nest.bounds)
        for access in nest.accesses:
            for it in nest.iterators:
                assert carries_reuse(access, it) == carries_reuse_semantic(
                    access, it, dom
                )
