"""The sparse echelon engine against the dense elimination oracle in helpers."""

import random

import pytest

import helpers
from gtrim.linalg import Echelon

FIELDS = [helpers.field(2), helpers.field(3), helpers.field(32003), helpers.field(0)]


def dense(vec, ncols, fld):
    return [vec.get(j, fld.zero) for j in range(ncols)]


def random_matrix(rng, fld, nrows, ncols):
    """Sparse random rows plus zero and repeated rows; some columns stay zero."""
    dead = {j for j in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = [fld.zero] * ncols
        elif kind < 0.2:
            row = list(rng.choice(rows))
        elif kind < 0.3:  # a combination of earlier rows
            a, b = rng.choice(rows), rng.choice(rows)
            c = fld.of(rng.randint(-3, 3))
            row = [fld.add(x, fld.mul(c, y)) for x, y in zip(a, b)]
        else:
            row = [fld.zero if j in dead or rng.random() < 0.6 else fld.of(rng.randint(-5, 5))
                   for j in range(ncols)]
        rows.append(row)
    return rows


def cases(rng, fld):
    yield [], 3
    yield [[fld.zero] * 4 for _ in range(3)], 4
    yield [[fld.zero] * 5], 5
    yield [[], []], 0
    yield [[fld.one] * 4] * 3, 4
    for _ in range(12):
        ncols = rng.randint(1, 9)
        yield random_matrix(rng, fld, rng.randint(1, 9), ncols), ncols


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f"char{f.char}")
def test_echelon_matches_dense_oracle(fld):
    rng = random.Random(helpers.SEED + fld.char)
    for rows, ncols in cases(rng, fld):
        ech = Echelon(fld)
        grew = [ech.add(row) for row in rows]
        assert ech.rank == helpers.matrix_rank(rows, ncols, fld) == sum(grew)
        kernel = [dense(v, ncols, fld) for v in ech.kernel(ncols)]
        assert kernel == helpers.kernel_basis(rows, ncols, fld)
        for v in kernel:
            for row in rows:
                dot = fld.zero
                for a, b in zip(row, v):
                    dot = fld.add(dot, fld.mul(a, b))
                assert fld.is_zero(dot)


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f"char{f.char}")
def test_echelon_solve_over_tagged_vectors(fld):
    rng = random.Random(helpers.SEED + 7 + fld.char)
    for _ in range(12):
        ncols = rng.randint(1, 8)
        untagged = random_matrix(rng, fld, rng.randint(0, 4), ncols) if rng.random() < 0.8 else []
        tagged = random_matrix(rng, fld, rng.randint(1, 5), ncols)
        ech = Echelon(fld)
        for v in untagged:
            ech.add(v)
        basis = list(untagged)
        kept = []
        for k, v in enumerate(tagged):
            rank = helpers.span_rank(basis, ncols, fld)
            independent = helpers.span_rank(basis + [v], ncols, fld) > rank
            assert ech.add(v, tag=k) == independent
            if independent:
                basis.append(v)
                kept.append(k)
        # a member: known coefficients on the kept tagged vectors plus untagged noise
        coeffs = {k: fld.of(rng.randint(-4, 4)) for k in kept}
        member = [fld.zero] * ncols
        for k, c in coeffs.items():
            member = [fld.add(x, fld.mul(c, y)) for x, y in zip(member, tagged[k])]
        for v in untagged:
            c = fld.of(rng.randint(-4, 4))
            member = [fld.add(x, fld.mul(c, y)) for x, y in zip(member, v)]
        sol = ech.solve(member)
        assert sol is not None
        assert set(sol) <= set(kept)
        assert all(sol.get(k, fld.zero) == c for k, c in coeffs.items())
        # a random vector is in the span exactly when the oracle rank does not grow
        probe = random_matrix(rng, fld, 3, ncols)[-1]
        rank = helpers.span_rank(basis, ncols, fld)
        inside = helpers.span_rank(basis + [probe], ncols, fld) == rank
        assert (ech.solve(probe) is not None) == inside
