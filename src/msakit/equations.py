"""Equation blocks: the uniform currency produced by all emitters.

A block is a group of scalar equations over per-node wrench and deflection
unknowns. Emitters give its coefficients as (row offset, variable, sub-block)
entries and the block keeps them as given. `layout` maps the entries of any
list of blocks onto global COO triplets and row kinds in one vectorized
pass; the assembler scatters them into the global sparse matrix while
keeping provenance per row. Emitters trust the model, so blocks check
nothing: one test over every emitter holds their layout invariants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

# Variable reference: ("W", node) for a wrench, ("t", node) for a deflection.
Var = tuple

# Read-only identity blocks, shared by the emitters' entries.
EYE6 = np.eye(6)
NEG_EYE6 = -EYE6
EYE6.flags.writeable = NEG_EYE6.flags.writeable = False

# Row kinds by code: constraint rows are coded 1 (deflections only), 2
# (wrenches only) or 3 (both); link and load rows by their category.
_ROW_KINDS = ("", "compat", "wrench", "mixed", "link", "load")
_CATEGORY_CODE = {"constraint": 0, "link": 4, "load": 5}


def wrench_var(node: Hashable) -> Var:
    return ("W", node)


def deflection_var(node: Hashable) -> Var:
    return ("t", node)


@dataclass(eq=False)
class EquationBlock:
    """Rows of the global model contributed by one element, joint or boundary.

    `entries` are (row offset, variable, sub-block) triplets, each sub-block
    an (r, 6) float array over the six components of its variable; entries
    that share rows add up. category is "link" for stiffness relations (the
    [-I | K] rows), "load" for external-wrench equilibrium rows, and
    "constraint" otherwise. Load blocks carry `load_node`, the key under
    which the applied wrench is bound to the right-hand side at solve time.
    """

    source: str
    rows: int
    entries: list = field(default_factory=list)
    rhs: np.ndarray | None = None
    category: str = "constraint"
    load_node: Hashable | None = None

    def __post_init__(self):
        if self.rhs is None:
            self.rhs = np.zeros(self.rows)

    @property
    def variables(self) -> list:
        """The block's variables in order of first use."""
        return list(dict.fromkeys(var for _, var, _ in self.entries))

    def row_kinds(self) -> list:
        """Per-row classification: link, load, compat, wrench or mixed."""
        return layout([self], dict.fromkeys(self.variables, 0))[5]   # columns do not matter

    def dense(self, variables: Sequence[Var] | None = None) -> tuple:
        """Dense coefficient matrix over `variables` (default: this block's own).

        Returns (matrix, ordered variables); handy for rank audits.
        """
        variables = self.variables if variables is None else list(variables)
        rows, cols, values = layout([self], {var: 6 * k for k, var in enumerate(variables)})[:3]
        M = np.zeros((self.rows, 6 * len(variables)))
        np.add.at(M, (rows, cols), values)
        return M, variables


def layout(blocks: Sequence[EquationBlock], col_of: Mapping) -> tuple:
    """Lay out the entries of `blocks`, stacked in order, in one pass.

    `col_of` maps each variable to its first column. Returns (rows, cols,
    values, entry_block, entry_col, kinds): the COO triplets of every
    coefficient, zeros included, in entry order; the block and first column
    of every entry; and the kind of every row (see `EquationBlock.row_kinds`).
    """
    heights = [block.rows for block in blocks]
    total = sum(heights)
    row_base = np.cumsum(heights, dtype=np.intp) - heights
    flat = [(base + start, var, sub) for block, base in zip(blocks, row_base.tolist())
            for start, var, sub in block.entries]
    starts, variables, subs = zip(*flat) if flat else ((), (), ())
    n = len(flat)
    entry_block = np.repeat(np.arange(len(blocks)), [len(block.entries) for block in blocks])
    entry_col = np.fromiter(map(col_of.__getitem__, variables), np.intp, n)
    sizes = 6 * np.fromiter(map(len, subs), np.intp, n)
    entry = np.repeat(np.arange(n), sizes)
    offset = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = np.array(starts, dtype=np.intp)[entry] + offset // 6
    cols = entry_col[entry] + offset % 6
    values = np.concatenate(subs, axis=None) if n else np.zeros(0)
    deflection = np.fromiter((var[0] == "t" for var in variables), bool, n)[entry]
    code = ((np.bincount(rows[deflection], minlength=total) > 0)
            + 2 * (np.bincount(rows[~deflection], minlength=total) > 0))
    category = np.repeat([_CATEGORY_CODE[block.category] for block in blocks], heights)
    kinds = list(map(_ROW_KINDS.__getitem__, np.where(category, category, code).tolist()))
    return rows, cols, values, entry_block, entry_col, kinds
