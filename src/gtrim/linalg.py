"""Exact sparse linear algebra over a coefficient field: one echelon structure.

Vectors are dicts ``{column: nonzero coefficient}``; dense sequences are
accepted on input.  An `Echelon` keeps its rows in reduced row echelon form:
each row is monic at its leftmost column (its pivot) and zero at every other
pivot column.  That form is unique for a given span, so kernel bases do not
depend on the order in which rows arrive.
"""

from __future__ import annotations


def _sub_multiple(field, vec: dict, c, row: dict):
    """vec -= c * row in place, dropping entries that cancel."""
    for j, a in row.items():
        s = field.mul(c, a)
        if j in vec:
            s = field.sub(vec[j], s)
            if field.is_zero(s):
                del vec[j]
            else:
                vec[j] = s
        else:
            vec[j] = field.neg(s)


class Echelon:
    """Growable span in reduced row echelon form, with tagged generators.

    A vector added with a tag is a named generator; each row records which
    combination of tagged vectors it equals modulo the untagged ones, so
    `solve` can write a member of the span over the tagged vectors.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> (row, {tag: coefficient})

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec, combo: dict) -> dict:
        """Residual of vec against the rows; combo tracks the tags subtracted."""
        f = self.field
        v = dict(vec) if isinstance(vec, dict) else {
            j: c for j, c in enumerate(vec) if not f.is_zero(c)}
        # rows vanish at each other's pivots, so one pass clears every pivot column
        for p in [j for j in v if j in self.rows]:
            c = v[p]
            row, row_combo = self.rows[p]
            _sub_multiple(f, v, c, row)
            _sub_multiple(f, combo, c, row_combo)
        return v

    def add(self, vec, tag=None) -> bool:
        """Insert vec into the span; True when the rank grew."""
        f = self.field
        combo = {} if tag is None else {tag: f.one}
        v = self._reduce(vec, combo)
        if not v:
            return False
        pivot = min(v)
        inv = f.inv(v[pivot])
        v = {j: f.mul(c, inv) for j, c in v.items()}
        combo = {t: f.mul(c, inv) for t, c in combo.items()}
        for row, row_combo in self.rows.values():
            c = row.get(pivot)
            if c is not None:
                _sub_multiple(f, row, c, v)
                _sub_multiple(f, row_combo, c, combo)
        self.rows[pivot] = (v, combo)
        return True

    def kernel(self, ncols: int) -> list:
        """Basis of {v : row . v = 0 for every row}, one vector per free column.

        The vector for free column j is 1 at j and minus row[j] at each
        pivot, in ascending order of j.
        """
        f = self.field
        above = {}  # column -> [(pivot, entry)] over the rows that reach it
        for p, (row, _) in self.rows.items():
            for j, c in row.items():
                if j != p:
                    above.setdefault(j, []).append((p, c))
        return [dict([(j, f.one)] + [(p, f.neg(c)) for p, c in above.get(j, ())])
                for j in range(ncols) if j not in self.rows]

    def solve(self, vec):
        """{tag: coefficient} writing vec over the tagged vectors modulo the
        untagged span, or None when vec is not in the span."""
        f = self.field
        combo = {}
        if self._reduce(vec, combo):
            return None
        return {t: f.neg(c) for t, c in combo.items()}
