"""Equation blocks: the uniform currency produced by all emitters.

A block is a group of scalar equations over per-node wrench and deflection
unknowns. Emitters give its coefficients as (row offset, variable, sub-block)
entries; the block turns them once into local COO triplets over its own
variables (six columns each, in order of first use), which the assembler
scatters into the global sparse matrix while keeping provenance per row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .errors import ModelError

# Variable reference: ("W", node) for a wrench, ("t", node) for a deflection.
Var = tuple

# Read-only identity blocks, shared by the emitters' entries.
EYE6 = np.eye(6)
NEG_EYE6 = -EYE6
EYE6.flags.writeable = NEG_EYE6.flags.writeable = False


def wrench_var(node: Hashable) -> Var:
    return ("W", node)


def deflection_var(node: Hashable) -> Var:
    return ("t", node)


@dataclass(eq=False)
class EquationBlock:
    """Rows of the global model contributed by one element, joint or boundary.

    category is "link" for stiffness relations (the [-I | K] rows), "load"
    for external-wrench equilibrium rows, and "constraint" otherwise.
    Load blocks carry `load_node`, the key under which the applied wrench is
    bound to the right-hand side at solve time.

    `variables` lists the block's variables in order of first use; entry
    coefficients, zeros included, are kept as triplets (`coo_rows`,
    `coo_cols`, `coo_values`), column 6k + c being component c of
    variable k.
    """

    source: str
    rows: int
    entries: list = field(default_factory=list)
    rhs: np.ndarray | None = None
    category: str = "constraint"
    load_node: Hashable | None = None

    def __post_init__(self):
        if self.rows <= 0:
            raise ModelError("equation block must have at least one row")
        if self.category not in ("link", "constraint", "load"):
            raise ModelError(f"unknown block category {self.category!r}")
        if (self.category == "load") != (self.load_node is not None):
            raise ModelError("load blocks (and only load blocks) carry a load node")
        starts, variables, subs = zip(*self.entries) if self.entries else ((), (), ())
        subs = [s if s.ndim == 2 else s.reshape(1, -1)
                for s in (np.asarray(s, dtype=float) for s in subs)]
        self.variables = list(dict.fromkeys(variables))
        slot = dict(zip(self.variables, range(len(self.variables))))
        try:
            self.coo_rows, self.coo_cols, self._kinds = _pattern(
                self.rows, starts, tuple(s.shape for s in subs),
                tuple(map(slot.__getitem__, variables)),
                tuple(kind for kind, _ in self.variables))
        except ModelError as exc:
            raise ModelError(f"{self.source}: {exc}") from None
        values = np.concatenate(subs).ravel()
        if not np.isfinite(values).all():
            raise ModelError(f"{self.source}: non-finite coefficients")
        self.coo_values = values
        self.entries = list(zip(map(int, starts), variables, subs))
        self.rhs = (np.zeros(self.rows) if self.rhs is None
                    else np.asarray(self.rhs, dtype=float).reshape(-1))
        if self.rhs.shape != (self.rows,):
            raise ModelError(f"{self.source}: rhs length {self.rhs.shape[0]} != rows {self.rows}")

    def row_kinds(self) -> list:
        """Per-row classification: link, load, compat, wrench or mixed."""
        if self.category != "constraint":
            return [self.category] * self.rows
        return list(self._kinds)

    def dense(self, variables: Sequence[Var] | None = None) -> tuple:
        """Dense coefficient matrix over `variables` (default: this block's own).

        Returns (matrix, ordered variables); handy for rank audits.
        """
        if variables is None:
            variables = self.variables
        index = {var: 6 * i for i, var in enumerate(variables)}
        for var in self.variables:
            if var not in index:
                raise ModelError(f"variable {var} not in the requested ordering")
        base = np.array([index[var] for var in self.variables], dtype=np.intp)
        M = np.zeros((self.rows, 6 * len(variables)))
        np.add.at(M, (self.coo_rows, base[self.coo_cols // 6] + self.coo_cols % 6),
                  self.coo_values)
        return M, list(variables)


@functools.lru_cache(maxsize=1024)
def _pattern(rows: int, starts: tuple, shapes: tuple, slots: tuple, kinds: tuple) -> tuple:
    """Checked layout of a block's entries: the local COO row and column of
    every coefficient, and the compat/wrench/mixed kind of every row.

    Entry k starts at row starts[k], has shape shapes[k] and refers to
    variable slots[k], of kind kinds[slots[k]]. The layout does not depend
    on the values, so every link, joint or support of one type shares one
    cached result.
    """
    shapes = np.array(shapes, dtype=np.intp).reshape(-1, 2)
    if np.any(shapes[:, 1] != 6):
        raise ModelError("coefficient blocks must be 6 columns wide")
    starts = np.array(starts, dtype=np.intp)
    ends = starts + shapes[:, 0]
    outside = (starts < 0) | (ends > rows)
    if outside.any():
        k = int(np.argmax(outside))
        raise ModelError(f"entry rows [{starts[k]}, {ends[k]}) outside block of {rows} rows")
    unknown = set(kinds) - {"W", "t"}
    if unknown:
        raise ModelError(f"unknown variable kind {unknown.pop()!r}")
    sizes = 6 * shapes[:, 0]
    entry = np.repeat(np.arange(len(sizes)), sizes)
    offset = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    coo_rows = starts[entry] + offset // 6
    coo_cols = 6 * np.array(slots, dtype=np.intp)[entry] + offset % 6
    deflection = (np.array(kinds) == "t")[coo_cols // 6]
    has_t = np.bincount(coo_rows[deflection], minlength=rows) > 0
    has_w = np.bincount(coo_rows[~deflection], minlength=rows) > 0
    if not (has_t | has_w).all():
        raise ModelError("rows without any coefficient entry")
    row_kinds = np.where(has_t & has_w, "mixed", np.where(has_t, "compat", "wrench"))
    coo_rows.flags.writeable = coo_cols.flags.writeable = False
    return coo_rows, coo_cols, tuple(row_kinds.tolist())
