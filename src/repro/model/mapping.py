"""Loop-to-architecture mapping and the feasibility condition (Section 3.2).

A systolic configuration picks three loops of the nest as the *inner*
(parallel) dimensions: PE row, PE column, and the SIMD vector inside each
PE.  The paper's feasibility condition (Eq. 2):

    each of the three array variables has to have fine-grained data reuse
    carried by at least one of the three inner loops,

with the architectural refinement visible in Fig. 1/2:

* the **vector** loop carries the *output's* reuse — the in-PE SIMD unit
  accumulates across it, so consecutive vector iterations must hit the
  same OUT element;
* the **row** loop carries the reuse of the *vertically shifted* operand
  (IN in Fig. 2: every PE in a column sees the same IN stream);
* the **column** loop carries the reuse of the *horizontally shifted*
  operand (W in Fig. 2).

Which read operand shifts vertically vs horizontally is itself a free
choice, so :func:`feasible_mappings` enumerates both orientations.  For
the canonical conv nest this yields 6 loop triples x 2 orientations = 12
ordered mappings, derived from the reuse table rather than hard-coded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ir.loop import LoopNest
from repro.ir.reuse import ReuseTable, analyze_reuse

if TYPE_CHECKING:
    from repro.model.design_point import ArrayShape


def array_roles(nest: LoopNest) -> dict[str, str]:
    """Assign memory roles ('output' | 'weight' | 'input') to arrays.

    Role drives word width (8-bit weights vs 16-bit pixels in the fixed
    mode) and the per-port bandwidth accounting.  Arrays with recognizable
    names are matched by name; otherwise the written array is the output,
    the highest-rank read is the weight (the kernel tensor carries both
    channel dimensions), and the remaining read is the input.
    """
    roles: dict[str, str] = {}
    reads = []
    for access in nest.accesses:
        lowered = access.array.lower()
        if access.is_write:
            roles[access.array] = "output"
        elif lowered in ("w", "weight", "weights", "wt"):
            roles[access.array] = "weight"
        elif lowered in ("in", "input", "x", "img", "ifm"):
            roles[access.array] = "input"
        else:
            reads.append(access)
    if reads:
        reads = sorted(reads, key=lambda a: a.rank, reverse=True)
        unassigned = [r for r in ("weight", "input") if r not in roles.values()]
        for access, role in zip(reads, unassigned):
            roles[access.array] = role
        for access in reads:  # any extra reads count as inputs
            roles.setdefault(access.array, "input")
    return roles


@dataclass(frozen=True)
class Mapping:
    """An ordered loop-to-architecture assignment.

    Attributes:
        row: iterator mapped to PE rows.
        col: iterator mapped to PE columns.
        vector: iterator mapped to the in-PE SIMD dimension.
        vertical_array: array whose data shifts down the columns (its
            reuse is carried by ``row``).
        horizontal_array: array whose data shifts along the rows (its
            reuse is carried by ``col``).
    """

    row: str
    col: str
    vector: str
    vertical_array: str
    horizontal_array: str

    def __post_init__(self) -> None:
        if len({self.row, self.col, self.vector}) != 3:
            raise ValueError(
                f"mapping must use three distinct loops, got "
                f"({self.row}, {self.col}, {self.vector})"
            )

    @property
    def inner_loops(self) -> tuple[str, str, str]:
        """The (row, col, vector) iterator triple."""
        return (self.row, self.col, self.vector)

    def inner_bounds(self, shape: ArrayShape) -> dict[str, int]:
        """Inner bound t_l of each mapped loop on a ``shape`` PE array
        (every other loop's is 1)."""
        return {self.row: shape.rows, self.col: shape.cols, self.vector: shape.vector}

    def selection_vector(self, nest: LoopNest) -> dict[str, int]:
        """The paper's binary k_l vector over the nest's loops."""
        inner = set(self.inner_loops)
        return {it: int(it in inner) for it in nest.iterators}

    def __str__(self) -> str:
        return (
            f"row={self.row}({self.vertical_array}v) "
            f"col={self.col}({self.horizontal_array}>) vec={self.vector}"
        )


def is_feasible(nest: LoopNest, mapping: Mapping, table: ReuseTable | None = None) -> bool:
    """Check the full feasibility condition for one mapping.

    Requires (a) Eq. 2 — every array has reuse on some inner loop — and
    (b) the architectural role constraints: row carries the vertical
    array's reuse, col the horizontal array's, vector the output's.
    """
    table = table or analyze_reuse(nest)
    output = nest.output.array
    reads = {a.array for a in nest.reads}
    if {mapping.vertical_array, mapping.horizontal_array} != reads:
        return False
    role_ok = (
        table.carried(mapping.vertical_array, mapping.row)
        and table.carried(mapping.horizontal_array, mapping.col)
        and table.carried(output, mapping.vector)
    )
    if not role_ok:
        return False
    # Eq. 2: sum_l k_l * c_rl > 0 for every array r (implied by the role
    # constraints, but checked explicitly so the generic condition is the
    # one enforced).
    inner = mapping.inner_loops
    return all(
        any(table.carried(array, it) for it in inner) for array in nest.array_names
    )


_FEASIBLE: dict[tuple, tuple[Mapping, ...]] = {}


def feasible_mappings(nest: LoopNest) -> tuple[Mapping, ...]:
    """Enumerate all feasible ordered mappings of a nest.

    Iterates every ordered triple of distinct loops and both operand
    orientations, keeping those passing :func:`is_feasible`.  For Code 1
    this reproduces the structural analysis of Section 3.2: the IN-reuse
    loop (o) must be an inner loop, paired with one W-reuse loop (r or c)
    and one OUT-reuse loop (i, p or q).

    Eq. 2 over the Eq. 3 table is syntactic — it reads which loops appear
    in which subscripts, never a trip count — so the answer is memoized
    per access pattern (the nest's iterators and accesses, not its bounds
    or name): every layer of one pattern shares one enumeration.  The
    memo is bounded, and its single dict operations are atomic, so
    threads may share it; a nest that raises is never memoized.
    """
    key = (nest.iterators, nest.accesses)
    found = _FEASIBLE.get(key)
    if found is None:
        found = _enumerate_mappings(nest)
        if len(_FEASIBLE) >= 256:
            _FEASIBLE.clear()
        _FEASIBLE[key] = found
    return found


def _enumerate_mappings(nest: LoopNest) -> tuple[Mapping, ...]:
    """The uncached body of :func:`feasible_mappings`."""
    table = analyze_reuse(nest)
    reads = [a.array for a in nest.reads]
    if len(reads) != 2:
        raise ValueError(
            f"systolic mapping needs exactly two read arrays, nest {nest.name!r} has {reads}"
        )
    result = []
    for row_it, col_it, vec_it in itertools.permutations(nest.iterators, 3):
        for vertical, horizontal in (tuple(reads), tuple(reversed(reads))):
            mapping = Mapping(row_it, col_it, vec_it, vertical, horizontal)
            if is_feasible(nest, mapping, table):
                result.append(mapping)
    return tuple(result)


__all__ = ["Mapping", "array_roles", "feasible_mappings", "is_feasible"]
