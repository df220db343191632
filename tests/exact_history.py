"""Exact-history oracle for the wall sums.

`ExactHistory` keeps every nodal pressure level in one growable array and
forms the pair and difference sums over the whole summation window with
the exact weights w_m = 1/(sqrt(m)+sqrt(m+1)), computed here and not
taken from the package it checks, and the endpoint correction of
`reference_forms`, at a cost of O(n) per node per step. It has the
interface `wall.source_table` reads from the runtime
wall memory (`n_nodes`, `n_levels`, `append`, `window`, `sums`, the
latter with the node increment's sums beside the step's) and takes the
same prefactors (c2, c3) at construction, so a table or a whole
`Simulation` can run on either.
"""

from __future__ import annotations

import numpy as np

from reference_forms import endpoint_correction


class ExactHistory:
    """Append-only nodal pressure series p_j^m on a uniform time step."""

    def __init__(self, n_nodes: int, c2: float = 1.0, c3: float = 1.0,
                 capacity: int = 1024):
        self.n_nodes = n_nodes
        self._scale = np.array([[c2], [c3]])
        self._p = np.empty((capacity, n_nodes))
        self._levels = 0

    @property
    def n_levels(self) -> int:
        return self._levels

    def append(self, pressures: np.ndarray):
        row = np.asarray(pressures, dtype=float)
        if row.shape != (self.n_nodes,):
            raise ValueError(f"expected {self.n_nodes} nodal pressures")
        if self._levels == self._p.shape[0]:
            grown = np.empty((2 * self._levels, self.n_nodes))
            grown[: self._levels] = self._p
            self._p = grown
        self._p[self._levels] = row
        self._levels += 1

    def level(self, m: int) -> np.ndarray:
        if not (0 <= m < self._levels):
            raise IndexError(f"level {m} not recorded")
        return self._p[m]

    def series(self, j: int) -> np.ndarray:
        """Pressure history at node j, levels 0..n."""
        return self._p[: self._levels, j].copy()

    def window(self, n: int) -> tuple[int, int]:
        """Summation row range [lo, n) at step n: the whole history."""
        if n > self._levels - 1:
            raise IndexError(f"history populated through level"
                             f" {self._levels - 1}, step {n} requested")
        return 0, n

    def sums(self, n: int) -> np.ndarray:
        """Pair and difference sums at step n, scaled by (c2, c3), and the
        same sums of the node increment, 1.5 times step n's less 0.5 times
        step n - 1's (zero before step 0), as a (2, 2, nodes) array
        [[pair, difference], [pair, difference]], the way
        `PressureHistory.sums` lays them out."""
        now = self._sums(n)
        before = self._sums(n - 1) if n else np.zeros_like(now)
        return np.stack([now, 1.5 * now - 0.5 * before])

    def _sums(self, n: int) -> np.ndarray:
        """Pair and difference sums at step n, scaled by (c2, c3), as a
        (2, nodes) array.

        Summation by parts: the stored level p^{n-k}, k = 0..n, weighs
        w_{k-1} + w_k in the pair sum and w_k - w_{k-1} in the difference
        sum, with w zero outside m = 0..n-1; `endpoint_correction` adds
        its terms on the newest levels. The levels are summed less the
        first pressure of node 0, which the centered difference of G2
        and the difference sums cancel, so that a node the wave has not
        reached sums exact zeros, as in the runtime memory.
        """
        lo, hi = self.window(n)
        m = np.arange(hi - lo, dtype=float)
        w_rev = (1.0 / (np.sqrt(m) + np.sqrt(m + 1.0)))[::-1]
        # column i is level lo+i, at lag k = n-lo-i, and w_rev[i] = w_{k-1}
        coef = np.zeros((2, hi - lo + 1))
        coef[0, :-1] = w_rev
        coef[0, 1:] += w_rev
        coef[1, 1:] = w_rev
        coef[1, :-1] -= w_rev
        summed = coef @ (self._p[lo:hi + 1] - self._p[0, 0])
        summed += endpoint_correction(self._p[lo:hi + 1], n - lo)
        return self._scale * summed
