"""Iteration domains and data-footprint counting (paper Eq. 5).

The BRAM model needs :math:`DA_r(\\vec s, \\vec t)` — the number of distinct
array elements of ``r`` touched by the middle+inner loops.  The paper notes
that counting integer points of an affine image is expensive in general
(they cite isl) but collapses to a product of per-dimension ranges for the
CNN access patterns.  We implement both:

* :func:`count_footprint_enumerated` — exact brute-force enumeration, used
  as the oracle in tests and for small domains.
* :func:`count_footprint_rectangular` — the closed-form range product the
  paper uses, exact whenever every subscript has nonnegative coefficients
  and the touched region of each dimension is dense (true for all CNN
  subscripts: ``it`` or ``it_a + it_b`` with unit coefficients, and for the
  strided folded variants as long as the summed strides cover the range,
  which :func:`rectangular_is_exact` checks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.ir.access import ArrayAccess


@dataclass(frozen=True)
class IterationDomain:
    """A rectangular iteration domain ``0 <= it_k < extent_k``.

    The paper's :math:`\\mathcal{D}_{\\vec s,\\vec t}` (middle + inner loops
    of one data block) is always rectangular, as is the original nest
    domain, so a box is all we need.
    """

    extents: tuple[tuple[str, int], ...]

    @staticmethod
    def of(extents: Mapping[str, int] | Iterable[tuple[str, int]]) -> "IterationDomain":
        """Build a domain from an iterator->extent mapping."""
        if isinstance(extents, Mapping):
            items = tuple(extents.items())
        else:
            items = tuple(extents)
        for name, extent in items:
            if extent < 1:
                raise ValueError(f"iterator {name!r} has nonpositive extent {extent}")
        return IterationDomain(items)

    @property
    def iterators(self) -> tuple[str, ...]:
        """Iterator names in declaration order."""
        return tuple(name for name, _ in self.extents)

    @property
    def bounds(self) -> dict[str, int]:
        """Mapping iterator -> extent."""
        return dict(self.extents)

    @property
    def size(self) -> int:
        """Number of integer points in the domain."""
        total = 1
        for _, extent in self.extents:
            total *= extent
        return total

    def points(self) -> Iterable[dict[str, int]]:
        """Iterate all integer points (use only on small domains)."""
        names = self.iterators
        ranges = [range(extent) for _, extent in self.extents]
        for combo in itertools.product(*ranges):
            yield dict(zip(names, combo))


def count_footprint_enumerated(access: ArrayAccess, domain: IterationDomain) -> int:
    """Exact |{F_r(i) : i in D}| by enumeration.

    This is the reference implementation of Eq. 5; exponential in the
    domain size, so only used for validation and small blocks.
    """
    relevant = access.iterators
    # Project the domain onto the iterators the access actually reads;
    # the others multiply iteration count but not footprint.
    projected = IterationDomain.of(
        [(name, extent) for name, extent in domain.extents if name in relevant]
    )
    touched = {access.evaluate(point) for point in projected.points()}
    return len(touched)


def _dimension_range(access: ArrayAccess, dim: int, bounds: Mapping[str, int]) -> int:
    """Size of the (dense) index range of one array dimension."""
    lo, hi = access.indices[dim].value_range(bounds)
    return hi - lo + 1


def rectangular_is_exact(access: ArrayAccess, domain: IterationDomain) -> bool:
    """Whether the rectangular closed form is exact for this access/domain.

    It is exact when (a) no iterator appears in more than one dimension of
    the subscript vector (so the touched set is a product of per-dimension
    sets) and (b) each dimension's touched set is a dense integer interval.
    Condition (b) holds when each dimension's subscript is a sum of terms
    whose coefficients, sorted ascending, each divide the "reach" of the
    smaller terms plus one — for CNN subscripts (all unit coefficients, or
    ``stride*r + p`` with ``p`` spanning at least ``stride`` values) this
    is the standard dense-coverage condition.
    """
    bounds = domain.bounds
    seen: set[str] = set()
    for expr in access.indices:
        used = expr.iterators & set(bounds)
        if used & seen:
            return False
        seen |= used
        # Dense-coverage check per dimension.
        terms = sorted(
            ((coeff, name) for name, coeff in expr.terms if name in bounds),
            key=lambda item: abs(item[0]),
        )
        if any(coeff < 0 for coeff, _ in terms):
            return False
        reach = 1  # we can currently hit a dense interval of this length
        for coeff, name in terms:
            if coeff > reach:
                return False
            reach += coeff * (bounds[name] - 1)
    return True


def count_footprint_rectangular(access: ArrayAccess, domain: IterationDomain) -> int:
    """Closed-form footprint: product of per-dimension range sizes.

    This is the simplification the paper describes in Section 3.3: for
    subscript ``it`` the range is the loop extent; for ``it_a + it_b`` it
    is ``extent_a + extent_b - 1``.  Implemented generally via the affine
    value range.  Exact iff :func:`rectangular_is_exact`; otherwise an
    upper bound (it counts the bounding box).
    """
    bounds = domain.bounds
    total = 1
    for dim in range(access.rank):
        total *= _dimension_range(access, dim, bounds)
    return total


def count_footprint(
    access: ArrayAccess, domain: IterationDomain, *, exact_threshold: int = 200_000
) -> int:
    """Footprint with automatic strategy selection.

    Uses the closed form when it is provably exact; otherwise falls back to
    enumeration when the projected domain is small enough, and to the
    (upper-bound) closed form beyond that.

    Args:
        access: the array access.
        domain: the iteration domain to count over.
        exact_threshold: maximum projected-domain size for enumeration.
    """
    if rectangular_is_exact(access, domain):
        return count_footprint_rectangular(access, domain)
    relevant = access.iterators
    projected_size = 1
    for name, extent in domain.extents:
        if name in relevant:
            projected_size *= extent
    if projected_size <= exact_threshold:
        return count_footprint_enumerated(access, domain)
    return count_footprint_rectangular(access, domain)


__all__ = [
    "IterationDomain",
    "count_footprint",
    "count_footprint_enumerated",
    "count_footprint_rectangular",
    "rectangular_is_exact",
]
