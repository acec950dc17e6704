"""Problem 1: the point type of the systolic configuration space.

A configuration is (mapping, PE-array shape).  The shape space is every
(rows, cols, vector) with the SIMD vector a power of two ("the
parallelization factor of the SIMD factor is usually power of two due to
the dedicated inter-DSP accumulation interconnect") and total DSP usage
within the budget; Eq. 12's lower bound ``D(t) >= c_s * D_total`` is the
paper's architectural pruning — low-DSP designs can't win because the
systolic array's frequency does not degrade much with size.

The space itself is enumerated as columns, once, by
:meth:`repro.dse.vector.CandidateTable.enumerate`; a
:class:`SystolicConfig` is built only for a row a search walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping


@dataclass(frozen=True)
class SystolicConfig:
    """One point of the Problem-1 space: mapping + shape (the (k, t) pair)."""

    mapping: Mapping
    shape: ArrayShape

    def __str__(self) -> str:
        return f"{self.mapping} @ {self.shape}"


DEFAULT_VECTOR_CHOICES = (4, 8, 16)
"""SIMD widths explored by default (powers of two; 8 is the paper's pick
for both models — one DSP column's accumulation chain)."""


__all__ = ["DEFAULT_VECTOR_CHOICES", "SystolicConfig"]
