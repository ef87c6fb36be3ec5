"""Groebner bases, normal forms, quotient invariants, socle, colon, trims."""

import gc
import hashlib
import pickle
import random
import weakref

import pytest

import helpers
from gtrim import (
    Ideal,
    KoszulComplex,
    Polynomial,
    QuotientRing,
    TrimChoice,
    canonical_generators,
    gorenstein_ideal,
    selector_labels,
    trim,
    trimmed_ideal,
    variables,
)
from gtrim import ideals
from gtrim.errors import NonHomogeneousError, NotNPrimaryError, QuotientTooLargeError
from gtrim.ideals import _new_pairs, _Reducers, buchberger
from gtrim.poly import mono_div, mono_divides, mono_lcm, monomials_of_degree
from helpers import (
    colon_by_maximal,
    component_basis,
    minimal_generators,
    socle_basis,
    span_rank,
)

F = helpers.field()
X, Y, Z = variables(F)
ONE = Polynomial.constant(F, 1)


def s_polynomial(f, g):
    """Independent S-polynomial construction for the Buchberger criterion."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lmf, lmg)
    a = helpers.monomial(f.field, mono_div(lcm, lmf), f.field.inv(f.leading_coeff()))
    b = helpers.monomial(g.field, mono_div(lcm, lmg), g.field.inv(g.leading_coeff()))
    return a * f - b * g


def assert_reduced_groebner(ideal):
    """Buchberger criterion plus the shape conditions of the reduced basis."""
    gb = ideal.groebner_basis()
    for g in ideal.generators:
        assert helpers.normal_form(ideal, g).is_zero()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j])
            assert helpers.normal_form(ideal, s).is_zero()
    lms = [g.leading_monomial() for g in gb]
    for i, g in enumerate(gb):
        assert g.leading_coeff() == ideal.field.one
        for j, lm in enumerate(lms):
            if i == j:
                continue
            assert not mono_divides(lm, lms[i])
            assert not any(mono_divides(lm, m) for m in g.terms)


# ---- Groebner bases and normal forms ----------------------------------------

def test_family_m2_groebner_frozen():
    I = helpers.family_ideal(2)
    assert [g.to_text() for g in I.groebner_basis()] == [
        "y*z", "x*z", "y^2", "x*y - z^2", "x^2", "z^3"]
    assert helpers.normal_form(I, X * Y).to_text() == "z^2"
    assert helpers.contains(I, X * Y - Z ** 2)
    assert not helpers.contains(I, Z ** 2)


def test_trim_m2_d_groebner_frozen():
    I = helpers.trim_ideal(2, "d")
    assert [g.to_text() for g in I.groebner_basis()] == [
        "y*z", "x*z", "y^2", "x^2", "z^3"]


def test_buchberger_criterion_on_suite_instances():
    assert_reduced_groebner(helpers.family_ideal(2))
    assert_reduced_groebner(helpers.family_ideal(3))
    assert_reduced_groebner(helpers.trim_ideal(2, "x1"))
    assert_reduced_groebner(helpers.trim_ideal(3, "d"))
    assert_reduced_groebner(helpers.trim_ideal(3, "y1"))


def groebner_corpus(max_m=6):
    """(label, ideal): the family and every trim for m <= max_m, then random
    homogeneous ideals (1-5 generators of degree 1-4), 90 per field."""
    out = []
    for m in range(1, max_m + 1):
        out.append((f"family-m{m}", helpers.family_ideal(m)))
        if m >= 2:
            out += [(f"trim-m{m}-{sel}", helpers.trim_ideal(m, sel)) for sel in selector_labels(m)]
    rng = random.Random(helpers.SEED + 11)
    for char in (2, 3, 32003, 0):
        fld = helpers.field(char)
        for k in range(90):
            gens = [helpers.random_form(rng, fld, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 5))]
            out.append((f"random-{char}-{k}", Ideal(gens, fld)))
    return out


def test_groebner_property_on_corpus():
    for label, ideal in groebner_corpus():
        try:
            assert_reduced_groebner(ideal)
        except AssertionError:
            raise AssertionError(f"{label}: {[g.to_text() for g in ideal.generators]}")


def test_buchberger_matches_naive_oracle():
    """The pair criteria, the pair order and the divisor index leave the basis
    as Buchberger's algorithm over every pair gives it."""
    for label, ideal in groebner_corpus(max_m=5):
        gb = buchberger(ideal.generators)
        assert gb == helpers.naive_buchberger(ideal.generators), label


def test_groebner_bases_frozen_by_digest():
    """sha256 of the reduced basis, one `to_text` per line, for g_16 and the
    m = 14 trim of d_m over F_32003."""
    frozen = {
        (16, None): ("a16509eb041fff8d8569ddf6ac90199e24c95fbf9f5c8d8f1cca54ca6921ad86", 153),
        (14, "d"): ("05fdac6e98ed37fc8d15ada9b296012282aee7a2c75152765da76f05da122fcb", 119),
    }
    for (m, sel), (digest, size) in frozen.items():
        ideal = helpers.family_ideal(m) if sel is None else helpers.trim_ideal(m, sel)
        gb = ideal.groebner_basis()
        text = "\n".join(g.to_text() for g in gb)
        assert (hashlib.sha256(text.encode()).hexdigest(), len(gb)) == (digest, size), (m, sel)


def assert_pairs_match_oracle(lms, t):
    got = _new_pairs(_Reducers((lm, None) for lm in lms), t)
    assert len(got) == len(set(got)), (lms, t)
    assert set(got) == set(helpers.new_pairs_oracle(lms, t)), (lms, t)


def test_new_pairs_match_quadratic_rule():
    """Criterion M over the minimal lcms, taken by degree, keeps the same
    pairs as testing every lcm group against every other."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mono = st.tuples(*[st.integers(0, 4)] * 3)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.lists(mono, max_size=14), mono)
    def check(lms, t):
        assert_pairs_match_oracle(lms, t)

    check()


def test_new_pairs_match_quadratic_rule_random():
    """The box of the axis neighbours keeps the oracle's pairs on larger
    inputs than hypothesis reaches: up to 40 leading monomials with exponents
    up to 30, and t sometimes divisible by one of them."""
    rng = random.Random(helpers.SEED + 22)
    for _ in range(3000):
        top = rng.choice((2, 4, 10, 30))
        lms = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(rng.randint(0, 40))]
        t = tuple(rng.randint(0, top) for _ in range(3))
        if lms and rng.random() < 0.2:
            t = tuple(e + rng.randint(0, 2) for e in rng.choice(lms))
        assert_pairs_match_oracle(lms, t)


def recorded_pair_calls(monkeypatch, ideal) -> list:
    """(leading monomials so far, new lm) of every `_new_pairs` call that
    Buchberger makes on the ideal."""
    calls, new_pairs = [], ideals._new_pairs

    def record(reducers, t):
        calls.append((list(reducers.lms), t))
        return new_pairs(reducers, t)

    monkeypatch.setattr(ideals, "_new_pairs", record)
    buchberger(ideal.generators)
    monkeypatch.undo()
    return calls


def test_new_pairs_match_quadratic_rule_in_buchberger(monkeypatch):
    """Every `_new_pairs` call made on the way to the bases of the family and
    every trim for m <= 6, and of random artinian ideals over F_2, F_3,
    F_32003 and Q, keeps the oracle's pairs."""
    corpus = [ideal for label, ideal in groebner_corpus(max_m=6) if not label.startswith("random")]
    rng = random.Random(helpers.SEED + 23)
    corpus += [helpers.random_artinian_ideal(rng, helpers.field(char))
               for char in (2, 3, 32003, 0) for _ in range(15)]
    for ideal in corpus:
        for lms, t in recorded_pair_calls(monkeypatch, ideal):
            assert_pairs_match_oracle(lms, t)


class CountingList(list):
    """A list that counts the items read by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_new_pairs_reads_few_earlier_elements(monkeypatch):
    """Building g_16 reads at most 600 earlier leading monomials in
    `_new_pairs` (11,628 when every earlier one was visited)."""
    reads = 0
    for lms, t in recorded_pair_calls(monkeypatch, helpers.family_ideal(16)):
        reducers = _Reducers((lm, None) for lm in lms)
        reducers.lms = CountingList(reducers.lms)
        _new_pairs(reducers, t)
        reads += reducers.lms.reads
    assert reads <= 600


def test_ideal_pickle_round_trip():
    for char in (32003, 0):
        ideal = trimmed_ideal(TrimChoice(5, "d"), helpers.field(char))
        cold = pickle.loads(pickle.dumps(ideal))  # before the basis is cached
        gb, hilbert = ideal.groebner_basis(), ideal.quotient_ring().hilbert()
        warm = pickle.loads(pickle.dumps(ideal))  # with basis and ring
        for copy in (cold, warm):
            assert copy.groebner_basis() == gb
            assert copy.quotient_ring().hilbert() == hilbert
            assert all(helpers.contains(copy, g) for g in ideal.generators)


def test_normal_form_properties_random():
    rng = random.Random(helpers.SEED + 4)
    ideals = [helpers.family_ideal(2), helpers.family_ideal(3),
              helpers.trim_ideal(2, "x1")]
    for _ in range(150):
        I = ideals[rng.randrange(len(ideals))]
        f = helpers.random_poly(rng, F, max_degree=4)
        g = helpers.random_poly(rng, F, max_degree=4)
        nf = helpers.normal_form(I, f)
        assert helpers.normal_form(I, nf) == nf
        assert helpers.contains(I, f - nf)
        assert helpers.normal_form(I, f + g) == nf + helpers.normal_form(I, g)


def test_membership_on_random_combinations():
    rng = random.Random(helpers.SEED + 5)
    for _ in range(150):
        I = helpers.family_ideal(rng.choice([2, 3]))
        h = Polynomial.zero(F)
        for g in I.generators:
            h = h + helpers.random_poly(rng, F, max_degree=2) * g
        assert helpers.contains(I, h)
        ring = I.quotient_ring()
        level = ring.basis(1) or ring.basis(0)
        s = helpers.monomial(F, level[0])
        assert not helpers.contains(I, h + s)


def test_empty_ideal():
    empty = Ideal([], field=F)
    assert empty.groebner_basis() == ()
    assert not empty.is_n_primary()
    with pytest.raises(ValueError):
        Ideal([])  # empty generators need an explicit field


def test_construction_rejects_bad_input():
    with pytest.raises(NonHomogeneousError):
        Ideal([X + X * X])
    with pytest.raises(ValueError):
        Ideal([X, Polynomial.variable(helpers.field(0), "y")])
    zero_kept = Ideal([X, Polynomial.zero(F)])
    assert zero_kept.generators == (X,)


# ---- quotient ring structure --------------------------------------------------

def test_is_n_primary_cases():
    assert helpers.family_ideal(2).is_n_primary()
    assert Ideal([X, Y, Z]).is_n_primary()
    assert Ideal([X * X, Y * Y, Z * Z]).is_n_primary()
    assert Ideal([ONE]).is_n_primary()
    assert not Ideal([X, Y]).is_n_primary()
    assert not Ideal([X * Y, Z]).is_n_primary()
    with pytest.raises(NotNPrimaryError):
        QuotientRing(Ideal([X, Y]))


def test_dimension_bound(monkeypatch):
    """dim R = MAX_DIM is accepted and one more standard monomial is refused,
    as is a generator of degree above the bound, before any Groebner work.
    (x, y^2, z^150000) passes the generator-degree check and the bound before
    Buchberger (the degrees leave 6), but dim R is 300,000: the staircase
    walk refuses it as it counts past the bound."""
    with pytest.raises(QuotientTooLargeError,
                       match=r"more than 200000 standard monomials \(the bound on dim R\)$"):
        QuotientRing(Ideal([X, Y ** 2, helpers.monomial(F, (0, 0, 150000))]))
    monkeypatch.setattr(ideals, "MAX_DIM", 8)
    assert QuotientRing(Ideal([X * X, Y * Y, Z * Z])).dim() == 8
    with pytest.raises(QuotientTooLargeError, match="more than 8 standard monomials"):
        QuotientRing(Ideal([X ** 3, Y * Y, Z * Z]))
    assert Ideal([X ** 8, Y, Z]).quotient_ring().dim() == 8
    with pytest.raises(QuotientTooLargeError, match="degree 9 is above the bound 8"):
        Ideal([X ** 9, Y, Z])


def test_dimension_bound_before_groebner(monkeypatch):
    """dim R_d >= C(d + 2, 2) - sum_g C(d - deg g + 2, 2), read off the degrees
    before Buchberger: x^105, y^107, z^200 (sum 204,155 by degree 105) and
    three dense forms of degree 60 (201,548) are refused at once, three
    forms of degree 58 (182,056) are not."""
    def refuse(generators):
        raise AssertionError("Buchberger ran")

    monkeypatch.setattr(ideals, "buchberger", refuse)
    rng = random.Random(helpers.SEED + 14)
    for gens in ([X ** 106, Y ** 107, Z ** 200], [X ** 105, Y ** 107, Z ** 200],
                 [Polynomial(F, {m: F.of(rng.randint(1, 9)) for m in monomials_of_degree(60)})
                  for _ in range(3)]):
        with pytest.raises(QuotientTooLargeError, match="more than 200000 standard monomials"):
            QuotientRing(Ideal(gens))
    with pytest.raises(AssertionError, match="Buchberger ran"):
        QuotientRing(Ideal([X ** 58, Y ** 58, Z ** 58]))
    with pytest.raises(QuotientTooLargeError, match="more than 200000 standard monomials"):
        QuotientRing(Ideal([X * Y]))  # a lone generator: the summand grows without end
    monkeypatch.setattr(ideals, "MAX_DIM", 9)  # C(3 + 2, 3) = 10 > 9
    with pytest.raises(QuotientTooLargeError, match="more than 9 standard monomials"):
        QuotientRing(Ideal([X ** 3, Y ** 3, Z ** 3]))


def test_hilbert_functions_frozen():
    assert helpers.family_ideal(2).quotient_ring().hilbert().coefficients == (1, 3, 1)
    assert helpers.family_ideal(3).quotient_ring().hilbert().coefficients == (1, 3, 6, 3, 1)
    assert Ideal([X, Y, Z]).quotient_ring().hilbert().coefficients == (1,)
    assert Ideal([X * X, Y * Y, Z * Z]).quotient_ring().hilbert().coefficients == (1, 3, 3, 1)
    for sel in ("x0", "x1", "d", "y1", "y0"):
        assert helpers.trim_ideal(2, sel).quotient_ring().hilbert().coefficients == (1, 3, 2)
    h = helpers.family_ideal(3).quotient_ring().hilbert().coefficients
    assert (sum(h), h[2], len(h)) == (14, 6, 5)


def test_staircase_walk_matches_filtered_monomials():
    rng = random.Random(helpers.SEED + 12)
    corpus = [I for _, I in helpers.small_instances()]
    corpus += [helpers.random_artinian_ideal(rng, helpers.field(char))
               for char in (2, 3, 32003, 0) for _ in range(15)]
    for I in corpus:
        ring = I.quotient_ring()
        for d in range(ring.top_degree + 2):
            assert ring.basis(d) == helpers.standard_monomials(I, d), (I.field, I, d)
        assert helpers.standard_monomials(I, ring.top_degree + 1) == ()


def test_quotient_ring_bases_and_coords():
    ring = helpers.family_ideal(2).quotient_ring()
    assert ring.top_degree == 2
    assert ring.dim() == 5
    assert ring.basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert ring.basis(2) == ((0, 0, 2),)
    assert ring.basis(3) == ()
    assert helpers.coordinates(ring, X * Y + Z ** 2) == {2: {0: F.of(2)}}
    assert helpers.from_vector(ring, 2, {0: F.of(2)}) == 2 * Z ** 2
    assert helpers.coordinates(ring, X * Y) == {2: {0: F.one}}  # x*y is not standard: it reads as z^2
    assert helpers.coordinates(ring, Z ** 3) == {}  # beyond the top degree


def test_normal_form_table_matches_heap_reduction():
    """`helpers.coordinates` (`QuotientRing._coordinates`) and `mult_matrix`
    read the border table; the heap reduction of `helpers.normal_form` is the
    independent reference."""
    def table_form(ring, f):
        return sum((helpers.from_vector(ring, d, vec)
                    for d, vec in helpers.coordinates(ring, f).items()), Polynomial.zero(ring.field))

    rng = random.Random(helpers.SEED + 13)
    corpus = [Ideal([ONE]), Ideal([X, Y, Z])]
    for char, top_m in ((32003, 6), (0, 4)):
        for m in range(2, top_m + 1):
            corpus.append(helpers.family_ideal(m, char))
            corpus += [helpers.trim_ideal(m, label, char) for label in selector_labels(m)]
    corpus += [helpers.random_artinian_ideal(rng, helpers.field(char))
               for char in (2, 3, 32003, 0) for _ in range(12)]
    for I in corpus:
        ring, fld = I.quotient_ring(), I.field
        for d in range(ring.top_degree + 2):
            for mono in monomials_of_degree(d):
                f = helpers.monomial(fld, mono)
                assert table_form(ring, f) == helpers.normal_form(I, f), (I, mono)
        for _ in range(20):  # inhomogeneous, with terms above the top degree
            f = helpers.random_poly(rng, fld, max_degree=ring.top_degree + 2, max_terms=6)
            assert table_form(ring, f) == helpers.normal_form(I, f), (I, f)
        for d in range(-1, ring.top_degree + 2):
            for v in range(3):
                assert ring.mult_matrix(v, d) == helpers.mult_matrix_oracle(ring, v, d), (I, v, d)
        with pytest.raises(ValueError):
            helpers.coordinates(ring, Polynomial.variable(helpers.field(3 if fld.char != 3 else 2), "x"))


def test_multiplication_refuses_a_variable_index_outside_0_to_2():
    """`mult_column` and `mult_matrix` take x, y, z as 0, 1, 2: a negative
    index is refused, not read as z from the end, and 3 is a ValueError too.
    `mult_matrix` refuses it also in a degree with no basis, where it forms
    no column."""
    ring = helpers.family_ideal(3).quotient_ring()
    b = ring.basis(1)[0]
    for var in (-1, -3, 3):
        with pytest.raises(ValueError, match=f"^variable index {var} is not in 0..2$"):
            ring.mult_column(var, b)
        with pytest.raises(ValueError, match=f"^variable index {var} is not in 0..2$"):
            ring.mult_matrix(var, 1)
    for var, d in ((-1, 99), (7, -5)):
        with pytest.raises(ValueError, match=f"^variable index {var} is not in 0..2$"):
            ring.mult_matrix(var, d)


def test_component_basis_matches_hilbert():
    I = helpers.family_ideal(2)
    h = I.quotient_ring().hilbert().coefficients + (0, 0)
    for d in range(5):
        rows = component_basis(I, d)
        total = len(monomials_of_degree(d))
        assert span_rank(rows, total, F) == total - h[d]


# ---- minimal generators ---------------------------------------------------------

def test_minimal_generators_of_family_keep_all():
    for m in (2, 3):
        I = helpers.family_ideal(m)
        kept, count = minimal_generators(I)
        assert count == 2 * m + 1
        assert kept == list(I.generators)


def test_minimal_generators_drop_redundant():
    kept, count = minimal_generators(Ideal([X, X * X]))
    assert (kept, count) == ([X], 1)
    kept, count = minimal_generators(Ideal([X * X, X * X + Y * Y, Y * Y]))
    assert kept == [X * X, X * X + Y * Y] and count == 2
    kept, count = minimal_generators(helpers.trim_ideal(2, "x1"))
    assert count == 4
    kept, count = minimal_generators(helpers.trim_ideal(2, "d"))
    assert count == 5
    with pytest.raises(ValueError):
        minimal_generators(Ideal([ONE]))


# ---- socle and colon -------------------------------------------------------------

def test_socle_frozen_cases():
    soc = socle_basis(helpers.family_ideal(2))
    assert soc.type_rank == 1
    assert [s.to_text() for s in soc.basis] == ["z^2"]
    soc = socle_basis(Ideal([X * X, Y * Y, Z * Z]))
    assert soc.type_rank == 1
    assert [s.to_text() for s in soc.basis] == ["x*y*z"]
    assert socle_basis(Ideal([X, Y, Z])).type_rank == 1
    assert socle_basis(helpers.trim_ideal(3, "d")).type_rank == 2


def test_socle_members_annihilate_maximal_ideal():
    for m, sel in ((2, None), (3, "x1")):
        I = helpers.family_ideal(m) if sel is None else helpers.trim_ideal(m, sel)
        for s in socle_basis(I).basis:
            assert not helpers.contains(I, s)
            for v in (X, Y, Z):
                assert helpers.contains(I, v * s)


def test_exact_socle_matches_homology_and_oracle():
    """`QuotientRing.socle(e)` in every degree e, top_degree included: as many
    vectors as H_3 has classes in internal degree e + 3 (built in every
    degree by `full_homology`), each killed by x, y and z through
    `mult_column`, spanning what `socle_basis` spans in degree e."""
    rng = random.Random(helpers.SEED + 21)
    corpus = [helpers.random_artinian_ideal(rng, helpers.field(char))
              for char in (2, 3, 32003, 0) for _ in range(10)]
    corpus += [helpers.family_ideal(m) for m in range(1, 7)]
    corpus += [helpers.trim_ideal(m, label) for m in range(2, 7) for label in selector_labels(m)]
    for I in corpus:
        ring, f = I.quotient_ring(), I.field
        h3 = [d - 3 for d, _ in helpers.full_homology(ring)._reps[3]]
        oracle = socle_basis(I).basis
        assert ring.socle(-1) == [] and ring.socle(ring.top_degree + 1) == [], I
        for e in range(ring.top_degree + 1):
            basis, soc = ring.basis(e), ring.socle(e)
            assert len(soc) == h3.count(e), (I, e)
            for vec in soc:
                for v in range(3):
                    image = {}
                    for k, c in vec.items():
                        f.sub_multiple(image, f.neg(c), ring.mult_column(v, basis[k]))
                    assert not image, (I, e, v)
            dense = [[vec.get(k, f.zero) for k in range(len(basis))] for vec in soc]
            dense_ref = [[p.terms.get(b, f.zero) for b in basis]
                         for p in oracle if p.degree() == e]
            assert span_rank(dense, len(basis), f) == len(soc) == len(dense_ref), (I, e)
            assert span_rank(dense + dense_ref, len(basis), f) == len(soc), (I, e)


def test_colon_frozen_cases():
    g2 = helpers.family_ideal(2)
    assert helpers.same_ideal(colon_by_maximal(g2), Ideal(g2.generators + (X * Y,)))
    n = Ideal([X, Y, Z])
    assert helpers.same_ideal(colon_by_maximal(n), Ideal([ONE]))
    ci = Ideal([X * X, Y * Y, Z * Z])
    assert helpers.same_ideal(colon_by_maximal(ci), Ideal(ci.generators + (X * Y * Z,)))


def test_colon_matches_bruteforce_oracle_spot():
    for label, I in helpers.small_instances()[:10]:
        assert helpers.same_ideal(helpers.colon_oracle(I), colon_by_maximal(I)), label


# ---- trimming ---------------------------------------------------------------------

def test_trim_generators_frozen():
    gens = canonical_generators(2, F)
    d2 = gens[2]
    T = trim(Ideal(gens), 2)
    assert [g.to_text() for g in T.generators[:3]] == [
        "x^2*y - x*z^2", "x*y^2 - y*z^2", "x*y*z - z^3"]
    assert T.generators[3:] == tuple(gens[:2] + gens[3:])
    assert all(helpers.contains(T, v * d2) for v in (X, Y, Z))
    assert not helpers.contains(T, d2)


def test_trim_replaces_one_generator():
    T = trim(helpers.family_ideal(2), 0)
    assert helpers.same_ideal(T, helpers.trim_ideal(2, "x0"))
    assert helpers.same_ideal(T, Ideal([X ** 3, X * Z, X * Y - Z * Z, Y * Z, Y * Y]))
    assert not helpers.contains(T, X * X)
    assert all(helpers.contains(T, v * X * X) for v in (X, Y, Z))


def test_trim_validation():
    with pytest.raises(ValueError):
        trim(Ideal([X, Y]), 5)
    with pytest.raises(ValueError):  # the ideal drops its zero generator
        trim(Ideal([X, Polynomial.zero(F)]), 1)


def test_derived_trim_ring_matches_walked_ring():
    """A trim's ring, derived from its parent's, equals the ring walked from
    its own Groebner basis (an `Ideal` of the same generators has no parent):
    std, top_degree, hilbert and `_entry` at every monomial up to top + 1,
    each trim in turn after its earlier siblings have written into the
    tables it shares with them: its family's own dict in every degree but
    deg g.  Every trim of g_m, m = 2..8, and of 60 random artinian ideals (seed 7),
    over F_2, F_3, F_32003 and Q.  The random ones bring each edge case: g
    not minimal (R' = R), deg g = top + 1 (top grows or not) and deg g above
    top + 1.  So does (x^2, y^2, z^2, x^2 + y^2), as `--ideal` may list it:
    one relation ties its generators 0, 1 and 3, whose trims keep R' = R,
    while z^2 is minimal and its trim's ring grows by one."""
    cases = set()
    for char in (2, 3, 32003, 0):
        fld, rng = helpers.field(char), random.Random(7)
        x, y, z = variables(fld)
        tied = Ideal([x * x, y * y, z * z, x * x + y * y])
        parents = [gorenstein_ideal(m, fld) for m in range(2, 9)]
        parents += [helpers.random_artinian_ideal(rng, fld) for _ in range(60)] + [tied]
        for parent in parents:
            ring = parent.quotient_ring()
            for k, g in enumerate(parent.generators):
                T = trim(parent, k)
                derived, walked = T.quotient_ring(), QuotientRing(Ideal(T.generators))
                case = (char, parent, k)
                assert derived.ideal is T and derived is not ring, case
                if parent is tied:
                    assert derived.dim() - ring.dim() == (k == 2), case
                assert derived.std == walked.std, case
                assert derived.top_degree == walked.top_degree, case
                assert derived.hilbert() == walked.hilbert(), case
                assert all(derived._table[d] is ring._table[d]
                           for d in range(ring.top_degree + 1) if d != g.degree()), case
                for t in (t for d in range(walked.top_degree + 2) for t in monomials_of_degree(d)):
                    assert derived._entry(t) == walked._entry(t), (case, t)
                cases.add((min(max(g.degree() - ring.top_degree, 0), 2),
                           derived.dim() - ring.dim()))
    assert cases == {(0, 1), (0, 0), (1, 1), (1, 0), (2, 0)}


def test_trim_ring_is_freed_without_the_cycle_collector(monkeypatch):
    """An ideal holds its quotient ring weakly, so with the cycle collector
    off a trim's ring and complex die when `_classified` returns: each trim
    of g_4 from one family complex, as `table` makes them, and the d trim as
    `classify` makes it, whose family ring and complex go with it.  The
    family ring that the family complex holds stays the ideal's."""
    from gtrim.cli import _classified

    made, init = [], KoszulComplex.__init__

    def spied(kz, ring, family=None):
        made.append((weakref.ref(kz), weakref.ref(ring)))
        init(kz, ring, family)

    monkeypatch.setattr(KoszulComplex, "__init__", spied)
    family = gorenstein_ideal(4, F)
    family_complex = KoszulComplex(family.quotient_ring())
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in range(len(family.generators)):
            _classified(trim(family, k), family_complex)
            assert [ref() for ref in made[-1]] == [None, None], k
        ideal, first = trimmed_ideal(TrimChoice(4, "d"), F), len(made)
        _classified(ideal)
        assert len(made) - first == 2  # the trim's complex and its family's
        assert all(ref() is None for refs in made[first:] for ref in refs)
        assert ideal._parent[0]._ring() is None
        assert family.quotient_ring() is family_complex.ring
    finally:
        if enabled:
            gc.enable()


def test_trimmed_ideal_is_strictly_smaller():
    for m, sel in ((2, "x0"), (2, "d"), (3, "x1")):
        I = helpers.family_ideal(m)
        T = helpers.trim_ideal(m, sel)
        assert all(helpers.contains(I, g) for g in T.generators)
        assert not helpers.same_ideal(T, I)
        assert T.quotient_ring().dim() == I.quotient_ring().dim() + 1
