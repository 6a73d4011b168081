"""Equation blocks: the uniform currency produced by all emitters.

A block is a family of records of one kind that share a row layout:
elements, connections (a support is one, attached to the ground) or load
points; a single record is a family of one. `layout` maps the entries of
any list of blocks onto global COO triplets in one vectorized step per
family, each record at its catalogue position. Emitters trust the model, so
blocks check nothing: one test over every emitter holds their layout
invariants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

# Read-only identity blocks, shared by the emitters' entries.
EYE6 = np.eye(6)
NEG_EYE6 = -EYE6
EYE6.flags.writeable = NEG_EYE6.flags.writeable = False

# Kinds of constraint rows by code: 1 (deflections only), 2 (wrenches only), 3 (both).
_ROW_KINDS = ("", "compat", "wrench", "mixed")


@dataclass(eq=False)
class EquationBlock:
    """Rows of m records, `rows` each, over the distinct nodes that each
    record lists by slot in `nodes`. `entries` are (row offset, "W" or "t",
    slot, sub-block) over the wrench or deflection of the node in that slot,
    with one (r, 6) sub-block for all records or an (m, r, 6) stack; entries
    that share rows add up. `rhs` is (m, rows). category is "link" for the
    [-I | K] stiffness rows, "load" for external-wrench equilibrium rows,
    whose wrench is bound at solve time to `load_nodes[k]`, and "constraint"
    otherwise. `index` places the records in the model's catalogue (0..m-1
    by default) and `sources` labels them."""

    sources: list
    rows: int
    nodes: list
    entries: list = field(default_factory=list)
    rhs: np.ndarray | None = None
    category: str = "constraint"
    load_nodes: list | None = None
    index: np.ndarray | None = None

    def __post_init__(self):
        if self.rhs is None:
            self.rhs = np.zeros((len(self.nodes), self.rows))
        if self.index is None:
            self.index = np.arange(len(self.nodes))

    def row_kinds(self) -> list:
        """Kind of each of a record's rows: link, load, compat, wrench or mixed."""
        if self.category != "constraint":
            return [self.category] * self.rows
        codes = [0] * self.rows
        for row, kind, _, sub in self.entries:
            for k in range(row, row + sub.shape[-2]):
                codes[k] |= 1 if kind == "t" else 2
        return [_ROW_KINDS[code] for code in codes]


def layout(blocks: Sequence[EquationBlock], index: Mapping) -> tuple:
    """Lay out `blocks`, whose `index` arrays together number their records
    0..R-1 in row order, in one vectorized step per family. Of the n nodes
    that `index` numbers, node k's wrench takes columns 6k to 6k + 5 and its
    deflection 6(n + k) to 6(n + k) + 5. Returns (rows, cols, values, bases):
    the COO triplets of every coefficient, zeros included, and the first
    row of each block's records."""
    n = len(index)
    heights = np.zeros(sum(len(block.nodes) for block in blocks), dtype=np.intp)
    for block in blocks:
        heights[block.index] = block.rows
    starts = np.cumsum(heights) - heights
    bases = [starts[block.index] for block in blocks]
    rows, cols, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for block, base in zip(blocks, bases):
        m, height = len(block.nodes), sum(entry[3].shape[-2] for entry in block.entries)
        local, slot, offset, value = [], [], [], np.empty((m, height, 6))
        for row, kind, s, sub in block.entries:
            value[:, len(local):len(local) + sub.shape[-2]] = sub
            local += range(row, row + sub.shape[-2])
            slot += [s] * sub.shape[-2]
            offset += [6 * n if kind == "t" else 0] * sub.shape[-2]
        node = np.fromiter(map(index.__getitem__, chain.from_iterable(block.nodes)),
                           np.intp, m * len(block.nodes[0])).reshape(m, -1)
        rows.append((base[:, None] + local).ravel())        # first row and column of
        cols.append((6 * node[:, slot] + offset).ravel())   # every sub-block row
        values.append(value.ravel())
    first = np.concatenate(cols)
    return (np.repeat(np.concatenate(rows), 6), (first[:, None] + np.arange(6)).ravel(),
            np.concatenate(values), bases)
