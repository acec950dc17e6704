"""Shared boundary-feeding math for the cycle-accurate simulators.

The RTL harness and the cycle engine the tests keep as an oracle inject
the *same* operand streams: for every (block, wave, boundary position,
SIMD lane) they must gather the identical element (zero on quantization
padding), and every PE must accumulate into the identical output
element.  Keeping that math in one
place is what makes "bit-identical by construction" an honest claim —
the engine and the RTL testbench driver cannot drift apart because they
consume the same :class:`WaveStreams`.

A run's streams come from one columnar gather: the iteration point of
(block, wave, x, y, lane) is ``base_l + mid_l * t_l + inner_l`` per
iterator, evaluated for every wave of every block at once in NumPy, and
each affine access is evaluated over those point arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.model.design_point import DesignPoint
from repro.sim.schedule import BlockSpec, enumerate_blocks


@dataclass(frozen=True)
class WaveStreams:
    """Everything a run injects at the array boundary, wave-major.

    The waves of every block are concatenated in block order (clipped
    :func:`~repro.sim.schedule.enumerate_blocks`), each block's in
    :func:`~repro.sim.schedule.enumerate_waves` order; block ``k`` owns
    waves ``starts[k]:starts[k + 1]``.

    Attributes:
        blocks: the run's blocks.
        starts: first wave of each block, then the total wave count.
        middle: ``(waves, depth)`` middle index of every iterator.
        w: ``(waves, rows, vector)`` weight lanes entering row x.
        inp: ``(waves, cols, vector)`` input lanes entering column y.
        row_ok: ``(waves, rows)`` whether row x's non-column, non-vector
            iterators are in bounds.
        col_ok: ``(waves, cols)`` whether column y's iterator is in bounds.
        out_key: ``(waves, rows, cols)`` flat (C-order) index into the
            output array PE (x, y) accumulates into, or -1 on padding.
    """

    blocks: tuple[BlockSpec, ...]
    starts: tuple[int, ...]
    middle: np.ndarray
    w: np.ndarray
    inp: np.ndarray
    row_ok: np.ndarray
    col_ok: np.ndarray
    out_key: np.ndarray


class WaveFeeder:
    """Gathers a run's boundary streams for one design point.

    :meth:`streams` is a pure function of the arrays; the class only
    precomputes the access and bound lookups.  An operand is 0.0 wherever
    any iterator of its point is past its bound (quantization padding
    contributes nothing), and a PE position is padding when any
    non-vector iterator is.  Rows and columns partition the non-vector
    iterators (the row iterator depends only on x, the column iterator
    only on y), so ``row_ok[m, x] & col_ok[m, y]`` is exactly
    ``out_key[m, x, y] >= 0`` — the RTL's write enable and the engine's
    padding skip are one predicate.
    """

    def __init__(self, design: DesignPoint) -> None:
        self.design = design
        self.nest = design.nest
        self.mapping = design.mapping
        self.rows = design.shape.rows
        self.cols = design.shape.cols
        self.vector = design.shape.vector
        self._iterators = self.nest.iterators
        self._bounds = self.nest.bounds
        self._t = np.array([design.tiling.t(it) for it in self._iterators])
        self._out_access = self.nest.output
        reads = {a.array: a for a in self.nest.reads}
        self._w_access = reads[self.mapping.horizontal_array]
        self._in_access = reads[self.mapping.vertical_array]
        self.out_shape: tuple[int, ...] = tuple(
            expr.value_range(self._bounds)[1] + 1 for expr in self._out_access.indices
        )

    def streams(self, arrays: dict[str, np.ndarray]) -> WaveStreams:
        """The W/IN lane streams, masks and output keys of every block,
        gathered in one columnar pass."""
        row, col, vec = self.mapping.row, self.mapping.col, self.mapping.vector
        depth = len(self._iterators)
        blocks = tuple(enumerate_blocks(self.design.tiled, clip=True))
        middles = [
            np.indices([count for _, count in b.middle_counts]).reshape(depth, -1).T
            for b in blocks
        ]
        starts = (0, *itertools.accumulate(len(m) for m in middles))
        middle = np.concatenate(middles)
        bases = np.repeat(
            [[base for _, base in b.bases] for b in blocks], np.diff(starts), axis=0
        )
        # Wave part of every iteration point, shaped to broadcast against
        # the two inner axes of each stream.
        first = bases + middle * self._t
        wave = {it: first[:, k, None, None] for k, it in enumerate(self._iterators)}
        xs = np.arange(self.rows)
        ys = np.arange(self.cols)
        lanes = np.arange(self.vector)

        def points(inner: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            return {it: wave[it] + inner.get(it, 0) for it in self._iterators}

        w_points = points({row: xs[:, None], vec: lanes[None, :]})
        in_points = points({col: ys[:, None], vec: lanes[None, :]})
        pe_points = points({row: xs[:, None], col: ys[None, :]})
        shape = (len(middle), self.rows, self.cols)

        real = self._in_bounds(pe_points, shape, skip=(vec,))
        index = [
            np.where(real, self._evaluate(expr, pe_points), 0)
            for expr in self._out_access.indices
        ]
        # "wrap": a negative subscript counts from the end, as it does when
        # the output is indexed by tuple.
        flat = np.ravel_multi_index(
            np.broadcast_arrays(*index), self.out_shape, mode="wrap"
        )
        return WaveStreams(
            blocks=blocks,
            starts=starts,
            middle=middle,
            w=self._gather(self._w_access, arrays, w_points),
            inp=self._gather(self._in_access, arrays, in_points),
            row_ok=self._in_bounds(pe_points, shape, skip=(col, vec))[:, :, 0],
            col_ok=np.broadcast_to(pe_points[col] < self._bounds[col], shape)[:, 0, :],
            out_key=np.where(real, flat, -1),
        )

    # ------------------------------------------------------------- helpers

    def _in_bounds(
        self, points: dict[str, np.ndarray], shape: tuple[int, ...], skip=()
    ) -> np.ndarray:
        ok = np.ones(shape, dtype=bool)
        for it in self._iterators:
            if it not in skip:
                ok &= points[it] < self._bounds[it]
        return ok

    @staticmethod
    def _evaluate(expr, points: dict[str, np.ndarray]):
        total = expr.const
        for it, coeff in expr.terms:
            total = total + coeff * points[it]
        return total

    def _gather(self, access, arrays, points: dict[str, np.ndarray]) -> np.ndarray:
        """Array values at a stream's points; 0.0 where any iterator is out
        of bounds."""
        shape = np.broadcast_shapes(*(p.shape for p in points.values()))
        ok = self._in_bounds(points, shape)
        index = tuple(
            np.where(ok, self._evaluate(expr, points), 0) for expr in access.indices
        )
        values = np.asarray(arrays[access.array])[index]
        return np.where(ok, values, 0.0).astype(np.float64, copy=False)


__all__ = ["WaveFeeder", "WaveStreams"]
