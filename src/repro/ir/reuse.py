"""Fine-grained data-reuse analysis (paper Eq. 3).

Array ``r`` has *fine-grained reuse* carried by loop ``l`` iff consecutive
iterations of ``l`` (all other iterators fixed) touch the same element:

.. math::

    \\forall \\vec i \\in \\mathcal D:
    F_r(\\dots, i_l, \\dots) = F_r(\\dots, i_l + 1, \\dots)

For affine accesses this is a purely syntactic condition — it holds iff no
subscript of ``r`` has a nonzero coefficient on ``l`` — but we also provide
the semantic (enumerating) checker and verify they agree in tests, since
the syntactic shortcut is exactly the kind of thing that silently breaks
when the access patterns generalize.

The result is the paper's binary matrix :math:`c_{rl}` used by the feasible
mapping condition (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.access import ArrayAccess
from repro.ir.domain import IterationDomain
from repro.ir.loop import LoopNest


def carries_reuse(access: ArrayAccess, iterator: str) -> bool:
    """Syntactic Eq. 3: loop ``iterator`` carries fine-grained reuse of ``access``.

    True iff the access value is invariant to a unit step of the iterator,
    i.e. the iterator does not appear in any subscript.
    """
    return not access.depends_on(iterator)


def carries_reuse_semantic(
    access: ArrayAccess, iterator: str, domain: IterationDomain
) -> bool:
    """Semantic Eq. 3 by enumeration over the given (small) domain.

    Checks ``F(.., i_l, ..) == F(.., i_l + 1, ..)`` for every point whose
    successor in ``iterator`` is still inside the domain.
    """
    bounds = domain.bounds
    if iterator not in bounds:
        return True  # the access can't possibly depend on an unbound iterator
    for point in domain.points():
        if point[iterator] + 1 >= bounds[iterator]:
            continue
        stepped = dict(point)
        stepped[iterator] += 1
        if access.evaluate(point) != access.evaluate(stepped):
            return False
    return True


@dataclass(frozen=True)
class ReuseTable:
    """The binary reuse matrix :math:`c_{rl}` for a loop nest.

    Attributes:
        arrays: array names (rows).
        iterators: loop iterator names (columns), outermost first.
        matrix: ``matrix[array][iterator] -> bool``.
    """

    arrays: tuple[str, ...]
    iterators: tuple[str, ...]
    matrix: tuple[tuple[bool, ...], ...]

    def carried(self, array: str, iterator: str) -> bool:
        """Whether ``iterator`` carries reuse of ``array`` (c_rl)."""
        return self.matrix[self.arrays.index(array)][self.iterators.index(iterator)]

    def reuse_loops(self, array: str) -> tuple[str, ...]:
        """All loops carrying reuse of ``array``."""
        row = self.matrix[self.arrays.index(array)]
        return tuple(it for it, bit in zip(self.iterators, row) if bit)

    def __str__(self) -> str:
        width = max(len(a) for a in self.arrays) if self.arrays else 1
        header = " " * (width + 1) + " ".join(f"{it:>3}" for it in self.iterators)
        lines = [header]
        for array, row in zip(self.arrays, self.matrix):
            cells = " ".join(f"{'  1' if bit else '  .'}" for bit in row)
            lines.append(f"{array:<{width}} {cells}")
        return "\n".join(lines)


def analyze_reuse(nest: LoopNest) -> ReuseTable:
    """Compute the reuse table of a nest via the syntactic Eq. 3 condition."""
    arrays = nest.array_names
    iterators = nest.iterators
    matrix = tuple(
        tuple(carries_reuse(nest.access(array), it) for it in iterators)
        for array in arrays
    )
    return ReuseTable(arrays, iterators, matrix)


__all__ = ["ReuseTable", "analyze_reuse", "carries_reuse", "carries_reuse_semantic"]
