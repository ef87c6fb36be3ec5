"""Exact sparse linear algebra over a coefficient field: one echelon structure.

Vectors are dicts ``{column: nonzero coefficient}``; dense sequences are
accepted on input, their zeros (falsy in every field) dropped.  Row updates
are the field's own sparse accumulate, `sub_multiple`.  An `Echelon` keeps
its rows in semi-echelon form: each row is monic at its rightmost column (its
pivot), and rows are not cleared at other pivots.  A vector's pivot columns
are cleared in descending order; its residual, zero at every pivot, is the
unique such vector in its coset of the span, the same as reduced row echelon
form would leave.  The pivot changes only the rows, and on the Koszul
differentials the last column leaves much less fill than the first.

Kernels come from relations, not from a transposed elimination: add the
columns of a matrix in order, each tagged with its index, and every column
that depends on the earlier ones leaves its relation, a kernel vector that is
1 at that column and otherwise lives on the independent earlier columns.
These relations arrive in ascending order of their free columns and form a
basis of the kernel; the rows left behind span the image.
"""

from __future__ import annotations

import heapq


class Echelon:
    """Growable span in semi-echelon form, with tagged generators.

    A vector added with a tag is a named generator; each row records which
    combination of tagged vectors it equals modulo the untagged ones, so
    `solve` can write a member of the span over the tagged vectors.  The
    kept vectors are independent, so that combination, each relation and
    each solution is unique: none depends on the form of the rows.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows=()):
        self.field = field
        # pivot column -> (row, {tag: coefficient}); given rows are shared, never changed
        self.rows = dict(rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec, combo: dict) -> dict:
        """Residual of vec against the rows; combo tracks the tags subtracted.
        Pivot columns are cleared from a heap of negated indices, highest
        first: the row that clears p is zero right of p, so no cleared column
        comes back."""
        f, rows = self.field, self.rows
        v = dict(vec) if isinstance(vec, dict) else {j: c for j, c in enumerate(vec) if c}
        heap = [-j for j in v if j in rows]
        if not heap:
            return v
        heapq.heapify(heap)
        while heap:
            p = -heapq.heappop(heap)
            c = v.get(p)
            if c is None:  # cancelled, or a second entry for a cleared column
                continue
            row, row_combo = rows[p]
            for j in row:
                if j not in v and j in rows:
                    heapq.heappush(heap, -j)
            f.sub_multiple(v, c, row)
            f.sub_multiple(combo, c, row_combo)
        return v

    def add(self, vec, tag=None):
        """Insert vec into the span.  None when the rank grew; otherwise the
        relation {tag: coefficient} that shows the dependence: vec's own tag
        has coefficient 1, and the combination of tagged vectors it gives,
        plus vec itself when vec is untagged, lies in the untagged span.  An
        untagged vec can leave the falsy {}, so test the result with `is None`."""
        f = self.field
        combo = {} if tag is None else {tag: f.one}
        v = self._reduce(vec, combo)
        if not v:
            return combo
        pivot = max(v)
        inv = f.inv(v[pivot])
        self.rows[pivot] = ({j: f.mul(c, inv) for j, c in v.items()},
                            {t: f.mul(c, inv) for t, c in combo.items()})
        return None

    def solve(self, vec):
        """{tag: coefficient} writing vec over the tagged vectors modulo the
        untagged span, or None when vec is not in the span."""
        f = self.field
        combo = {}
        if self._reduce(vec, combo):
            return None
        return {t: f.neg(c) for t, c in combo.items()}
