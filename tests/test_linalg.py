"""The sparse echelon engine against the dense elimination oracle in helpers,
and the fields' sparse accumulate against a naive sum."""

import random
from fractions import Fraction

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
            row = [fld.of(x + c * y) for x, y in zip(a, b)]
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


def combination(fld, coeffs: dict, vectors: list, ncols: int) -> list:
    """The dense vector sum over t of coeffs[t] * vectors[t]."""
    out = [fld.zero] * ncols
    for t, c in coeffs.items():
        out = [fld.of(x + c * y) for x, y in zip(out, vectors[t])]
    return out


def assert_monic_at_last_column(ech):
    """Every stored row is monic at its pivot, and the pivot is its last column."""
    for p, (row, _) in ech.rows.items():
        assert max(row) == p and row[p] == ech.field.one


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f"char{f.char}")
def test_echelon_matches_dense_oracle(fld):
    """The rows give the rank; the columns, added in order with their index as
    tag, leave the kernel as relations: one per dependent column, ascending,
    exactly the dense oracle's basis."""
    rng = random.Random(helpers.SEED + fld.char)
    for rows, ncols in cases(rng, fld):
        ech = Echelon(fld)
        grew = [ech.add(row) is None for row in rows]
        assert ech.rank == helpers.matrix_rank(rows, ncols, fld) == sum(grew)
        image = Echelon(fld)
        relations = [image.add([row[j] for row in rows], tag=j) for j in range(ncols)]
        assert image.rank == ech.rank
        assert_monic_at_last_column(ech)
        assert_monic_at_last_column(image)
        kernel = [dense(rel, ncols, fld) for rel in relations if rel is not None]
        assert kernel == helpers.kernel_basis(rows, ncols, fld)
        for v in kernel:
            for row in rows:
                dot = fld.zero
                for a, b in zip(row, v):
                    dot = fld.of(dot + a * b)
                assert fld.is_zero(dot)


def test_echelon_relations_lie_in_untagged_span():
    """`add` returns None exactly when the rank grows.  Otherwise its relation
    has coefficient 1 on vec's own tag, uses only the tagged vectors kept
    before it, and its combination of tagged vectors, plus vec when vec is
    untagged, lies in the span of the untagged vectors added before."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ncols = 4
    entry = st.tuples(st.booleans(), st.lists(st.integers(-2, 2), min_size=ncols,
                                              max_size=ncols))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(FIELDS), st.lists(entry, max_size=10))
    def check(fld, entries):
        ech = Echelon(fld)
        untagged, tagged, kept = [], [], set()
        for is_tagged, ints in entries:
            v = [fld.of(n) for n in ints]
            before = untagged + tagged
            tag = len(tagged) if is_tagged else None
            rel = ech.add(v, tag=tag)
            grew = helpers.span_rank(before + [v], ncols, fld) > \
                helpers.span_rank(before, ncols, fld)
            assert (rel is None) == grew
            if rel is not None:
                assert set(rel) - {tag} <= kept
                assert tag is None or rel[tag] == fld.one
                # vec counts once, through its own tag or, untagged, added to the combination
                member = combination(fld, {len(tagged): fld.one, **rel}, tagged + [v], ncols)
                assert helpers.span_rank(untagged + [member], ncols, fld) == \
                    helpers.span_rank(untagged, ncols, fld)
            if is_tagged:
                tagged.append(v)
                if rel is None:
                    kept.add(tag)
            else:
                untagged.append(v)

    check()


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
            assert (ech.add(v, tag=k) is None) == independent
            if independent:
                basis.append(v)
                kept.append(k)
        # a member: known coefficients on the kept tagged vectors plus untagged noise
        coeffs = {k: fld.of(rng.randint(-4, 4)) for k in kept}
        member = [fld.zero] * ncols
        for k, c in coeffs.items():
            member = [fld.of(x + c * y) for x, y in zip(member, tagged[k])]
        for v in untagged:
            c = fld.of(rng.randint(-4, 4))
            member = [fld.of(x + c * y) for x, y in zip(member, v)]
        sol = ech.solve(member)
        assert sol is not None
        assert set(sol) <= set(kept)
        assert all(sol.get(k, fld.zero) == c for k, c in coeffs.items())
        # a random vector is in the span exactly when the oracle rank does not grow
        probe = random_matrix(rng, fld, 3, ncols)[-1]
        rank = helpers.span_rank(basis, ncols, fld)
        inside = helpers.span_rank(basis + [probe], ncols, fld) == rank
        assert (ech.solve(probe) is not None) == inside


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f"char{f.char}")
def test_dense_zero_vector_is_dropped(fld):
    """An all-zero dense vector reduces to nothing: untagged it leaves the
    falsy {}, tagged it leaves its own tag relation, and the rank stays."""
    for rows in ([], [[fld.one, fld.zero, fld.of(2)]]):
        ech = Echelon(fld)
        for row in rows:
            ech.add(row)
        assert ech.add([fld.zero] * 3) == {}
        assert ech.add([fld.zero] * 3, tag=5) == {5: fld.one}
        assert ech.solve([fld.zero] * 3) == {}
        assert ech.rank == len(rows)


@pytest.mark.parametrize("fld", [helpers.field(3), helpers.field(32003), helpers.field(0)],
                         ids=lambda f: f"char{f.char}")
def test_dense_and_sparse_input_agree(fld):
    """The same vectors, dense or sparse, leave the same relations, rows and
    solutions."""
    rng = random.Random(helpers.SEED + 9 + fld.char)
    for rows, ncols in cases(rng, fld):
        dense_ech, sparse_ech = Echelon(fld), Echelon(fld)
        for k, row in enumerate(rows):
            tag = k if k % 3 else None
            sparse = {j: c for j, c in enumerate(row) if not fld.is_zero(c)}
            assert dense_ech.add(row, tag=tag) == sparse_ech.add(sparse, tag=tag)
        assert dense_ech.rows == sparse_ech.rows
        for row in rows:
            sparse = {j: c for j, c in enumerate(row) if not fld.is_zero(c)}
            assert dense_ech.solve(row) == sparse_ech.solve(sparse)


@pytest.mark.parametrize("kind", ["char3", "char32003", "fraction", "mpq"])
def test_sub_multiple_matches_naive_sum(kind):
    """`field.sub_multiple(vec, c, row)` is vec - c * row as a dict with no
    zero entries, F_p values in [0, p); c = 0 leaves vec unchanged."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    if kind.startswith("char"):
        fld = helpers.field(int(kind[4:]))
        value = st.integers(-40000, 40000).map(fld.of)
    else:
        fld = helpers.field(0)
        rat = pytest.importorskip("gmpy2").mpq if kind == "mpq" else Fraction
        value = st.builds(rat, st.integers(-4, 4), st.integers(1, 3))
    sparse = st.dictionaries(st.integers(0, 7), value, max_size=8).map(
        lambda d: {j: c for j, c in d.items() if c})

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(sparse, value, sparse, st.booleans())
    def check(vec, c, row, cancel):
        if cancel and c:  # vec lies on the row's line, so every entry cancels
            vec = {j: fld.mul(c, a) for j, a in row.items()}
        naive = {}
        for j in set(vec) | set(row):
            s = fld.of(vec.get(j, fld.zero) - c * row.get(j, fld.zero))
            if not fld.is_zero(s):
                naive[j] = s
        out = dict(vec)
        fld.sub_multiple(out, c, row)
        assert out == naive
        assert all(out.values())
        if fld.char:
            assert all(0 <= v < fld.char for v in out.values())
        if not c:
            assert out == vec
        if cancel and c:
            assert out == {}

    check()
