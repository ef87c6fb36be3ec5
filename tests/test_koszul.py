"""Koszul homology, its multiplication, and the classification table."""

import itertools
import random

import pytest

import helpers
from gtrim import (
    Ideal,
    KoszulComplex,
    KoszulElement,
    Polynomial,
    TorInvariants,
    TrimChoice,
    a1_annihilator_cycle,
    a1_cycle_basis,
    annihilates_a1,
    classify_from_invariants,
    report_dict,
    selector_labels,
    trimmed_ideal,
    variables,
)
from gtrim import ideals
from gtrim.errors import ClassificationScopeError, UnitIdealError
from gtrim.koszul import wedge_words
from helpers import is_interior, matrix_rank, minimal_generators, socle_basis, span_rank

F = helpers.field()
X, Y, Z = variables(F)

E_X, E_Y, E_Z = (0,), (1,), (2,)
E_XY, E_XZ, E_YZ = (0, 1), (0, 2), (1, 2)
E_XYZ = (0, 1, 2)


# ---- exterior algebra bookkeeping ---------------------------------------------

def test_wedge_words_signs():
    assert wedge_words(E_X, E_Y) == (1, E_XY)
    assert wedge_words(E_Y, E_X) == (-1, E_XY)
    assert wedge_words(E_X, E_X) is None
    assert wedge_words(E_XY, E_Z) == (1, E_XYZ)
    assert wedge_words(E_Y, E_XZ) == (-1, E_XYZ)
    assert wedge_words((), E_XY) == (1, E_XY)


def test_differential_formulas():
    kz = helpers.koszul(2)
    one = Polynomial.constant(F, 1)
    d_top = kz.differential(KoszulElement(3, {E_XYZ: one}))
    assert d_top.components[E_YZ] == X
    assert d_top.components[E_XZ] == -Y
    assert d_top.components[E_XY] == Z
    d_xy = kz.differential(KoszulElement(2, {E_XY: one}))
    assert d_xy.components == {E_Y: X, E_X: -Y}


def test_differential_matches_polynomial_oracle():
    rng = random.Random(helpers.SEED + 10)
    for char in (32003, 0):
        for m, sel in ((2, None), (2, "x1"), (3, "d"), (4, "x2")):
            kz = helpers.koszul(m, sel, char)
            for i in range(4):
                samples = [helpers.random_element(rng, kz, i, max_degree=3) for _ in range(15)]
                for el in samples + kz.homology_basis(i):
                    assert kz.differential(el) == helpers.koszul_differential(kz.ring.ideal, el)


def test_differential_squares_to_zero():
    rng = random.Random(helpers.SEED + 7)
    for kz in (helpers.koszul(2), helpers.koszul(3, "d")):
        for i in (2, 3):
            for _ in range(40):
                el = helpers.random_element(rng, kz, i)
                assert kz.differential(kz.differential(el)).is_zero()


# ---- homology ranks -------------------------------------------------------------

def test_residue_field_ranks():
    kz = KoszulComplex(Ideal([X, Y, Z]).quotient_ring())
    assert kz.ranks() == (1, 3, 3, 1)
    with pytest.raises(ClassificationScopeError):
        kz.classify()


def test_family_ranks_match_duality():
    for m in (2, 3):
        kz = helpers.koszul(m)
        assert kz.ranks() == (1, 2 * m + 1, 2 * m + 1, 1)


def test_trim_ranks_frozen():
    assert helpers.koszul(2, "x1").ranks() == (1, 4, 5, 2)
    assert helpers.koszul(2, "x0").ranks() == (1, 5, 6, 2)
    assert helpers.koszul(3, "d").ranks() == (1, 7, 8, 2)
    assert helpers.koszul(3, "x2").ranks() == (1, 6, 7, 2)


def test_euler_characteristic_vanishes():
    for kz in (helpers.koszul(2), helpers.koszul(3), helpers.koszul(2, "d"),
               helpers.koszul(3, "x1"), KoszulComplex(Ideal([X, Y, Z]).quotient_ring())):
        r = kz.ranks()
        assert r[0] - r[1] + r[2] - r[3] == 0


def test_a1_representative_degrees_are_minimal_generator_degrees():
    rng = random.Random(helpers.SEED + 11)
    corpus = [I for _, I in helpers.small_instances()]
    corpus += [helpers.random_artinian_ideal(rng, helpers.field(char))
               for char in (2, 3, 32003, 0) for _ in range(15)]
    for I in corpus:
        kz = KoszulComplex(I.quotient_ring())
        reps = [1 + max(p.degree() for p in b.components.values())
                for b in kz.homology_basis(1)]
        kept, _ = minimal_generators(I)
        assert sorted(reps) == sorted(g.degree() for g in kept), (I.field, I)


def test_ranks_cross_checked_against_ideal_invariants():
    cases = [(2, None), (3, None), (2, "x0"), (2, "x1"), (2, "d"),
             (3, "x1"), (3, "d"), (3, "y0")]
    for m, sel in cases:
        I = helpers.family_ideal(m) if sel is None else helpers.trim_ideal(m, sel)
        kz = helpers.koszul(m, sel)
        assert kz.ranks()[1] == minimal_generators(I)[1]
        assert kz.ranks()[3] == socle_basis(I).type_rank
        assert kz.ranks()[0] == 1


# ---- degree-local homology against the all-degrees oracle ---------------------------

def redundant_generator_ideals(rng, char, count):
    """Random artinian ideals plus x_v * g for one of their generators g, so a
    generator degree can carry no minimal generator (H_1 = 0 there)."""
    out = []
    for _ in range(count):
        ideal = helpers.random_artinian_ideal(rng, helpers.field(char))
        g = ideal.generators[rng.randrange(len(ideal.generators))]
        extra = variables(ideal.field)[rng.randrange(3)] * g
        out.append(Ideal(ideal.generators + (extra,), ideal.field))
    return out


def assert_matches_full_homology(kz, rng, label):
    """Ranks, representatives and class coordinates agree with the homology
    built in every internal degree."""
    ref = helpers.full_homology(kz.ring)
    assert kz.ranks() == ref.ranks(), label
    for i in range(4):
        assert [str(b) for b in kz.homology_basis(i)] == \
            [str(b) for b in ref.homology_basis(i)], (label, i)
    a1, a2 = kz.homology_basis(1), kz.homology_basis(2)
    products = [kz.wedge(a1[s], a1[t]) for s in range(len(a1)) for t in range(s + 1, len(a1))]
    products += [kz.wedge(e, g) for e in a1 for g in a2]
    for el in products + [helpers.random_cycle(rng, kz, i) for i in range(4)]:
        assert kz.class_coords(el) == ref.class_coords(el), (label, str(el))


def test_degree_local_homology_matches_full_oracle():
    rng = random.Random(helpers.SEED + 12)
    for label, ideal in helpers.small_instances():
        assert_matches_full_homology(KoszulComplex(ideal.quotient_ring()), rng, label)
    for char, top in ((32003, 6), (0, 4)):
        for m in range(2, top + 1):
            for label in selector_labels(m):
                assert_matches_full_homology(helpers.koszul(m, label, char), rng,
                                             (m, label, char))
    silent = 0  # generator degrees that carry no A_1 class
    for char in (2, 3, 32003, 0):
        for ideal in redundant_generator_ideals(rng, char, 10):
            kz = KoszulComplex(ideal.quotient_ring())
            assert_matches_full_homology(kz, rng, (char, str(ideal)))
            a1_degrees = {d for d, _ in kz._reps[1]}
            silent += len({g.degree() for g in ideal.generators} - a1_degrees)
    assert silent > 0


def test_invariants_match_all_products_oracle():
    """Skipping the products into degrees without classes changes no
    invariant; some instances have p > 0 and some products are skipped."""
    rng = random.Random(helpers.SEED + 13)
    complexes = [(label, KoszulComplex(ideal.quotient_ring()))
                 for label, ideal in helpers.small_instances()]
    complexes += [((m, label, char), helpers.koszul(m, label, char))
                  for char in (32003, 0) for m in range(2, 7) for label in selector_labels(m)]
    complexes += [((char, str(ideal)), KoszulComplex(ideal.quotient_ring()))
                  for char in (2, 3, 32003, 0)
                  for ideal in redundant_generator_ideals(rng, char, 10)]
    with_p = skipped = 0
    for label, kz in complexes:
        inv = kz.invariants()
        assert inv == helpers.all_products_invariants(kz), label
        with_p += inv.p > 0
        deg = [[d for d, _ in reps] for reps in kz._reps]
        skipped += sum(a + b not in deg[2] for s, a in enumerate(deg[1]) for b in deg[1][s + 1:])
    assert with_p > 0 and skipped > 0


def test_products_on_coordinates_match_polynomial_oracle():
    """`wedge` and `multiply` multiply on coordinates; they agree with
    Polynomial products reduced in R on every pair of basis classes (in one
    order; the other differs by the graded sign) and on random cycles."""
    rng = random.Random(helpers.SEED + 15)
    complexes = [(label, KoszulComplex(ideal.quotient_ring()))
                 for label, ideal in helpers.small_instances()]  # the family to m = 5 over F_p
    complexes += [((m, label, char), helpers.koszul(m, label, char))
                  for char, low in ((32003, 6), (0, 2)) for m in range(low, 7)
                  for label in (None, *selector_labels(m))]
    complexes += [((char, str(ideal)), KoszulComplex(ideal.quotient_ring()))
                  for char in (2, 3, 32003, 0)
                  for ideal in redundant_generator_ideals(rng, char, 10)]
    for label, kz in complexes:
        basis = [b for i in range(4) for b in kz.homology_basis(i)]
        pairs = [(u, v) for u, v in itertools.combinations(basis, 2)
                 if u.exterior_degree + v.exterior_degree <= 3]
        pairs += [(helpers.random_cycle(rng, kz, i), helpers.random_cycle(rng, kz, j))
                  for i, j in ((1, 1), (1, 2), (2, 1), (0, 3))]
        for u, v in pairs:
            oracle = helpers.polynomial_wedge(kz, u, v)
            product = kz.wedge(u, v)
            assert product == oracle and str(product) == str(oracle), label
            assert kz.multiply(u, v) == kz.class_coords(oracle), label


def test_class_product_matches_polynomial_oracle():
    """`class_product(i, s, j, t)` is the class of the Polynomial product of
    basis representatives s of A_i and t of A_j, in either order; it is zero
    where A_{i+j} has no class in the product's degree."""
    complexes = [KoszulComplex(ideal.quotient_ring()) for _, ideal in helpers.small_instances()]
    complexes += [helpers.koszul(3, "d", 0), helpers.koszul(4, "x1", 0)]
    for kz in complexes:
        basis = [kz.homology_basis(i) for i in range(4)]
        for i, j in ((0, 0), (0, 2), (1, 1), (1, 2), (2, 1), (3, 0)):
            for (s, u), (t, v) in itertools.product(enumerate(basis[i]), enumerate(basis[j])):
                oracle = kz.class_coords(helpers.polynomial_wedge(kz, u, v))
                assert kz.class_product(i, s, j, t) == oracle, (kz.ring.ideal, i, s, j, t)


def test_invariants_make_no_polynomial_product(monkeypatch):
    """`invariants` reads the representatives as coordinates: it forms no
    Polynomial product and no homology_basis element."""
    complexes = {sel: KoszulComplex(trimmed_ideal(TrimChoice(6, sel), F).quotient_ring())
                 for sel in ("d", "x2")}
    expected = {sel: helpers.all_products_invariants(kz) for sel, kz in complexes.items()}

    def refuse(*args):
        raise AssertionError("called on the invariants path")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__rmul__", refuse)
    monkeypatch.setattr(KoszulComplex, "homology_basis", refuse)
    for sel, kz in complexes.items():
        assert kz.invariants() == expected[sel], sel
    assert [kz.classify().display() for kz in complexes.values()] == ["G(10)", "G(9)"]


def test_lowest_homology_stops_at_euler_count(monkeypatch):
    """The lowest live H_i stops at its last class, counted from the Euler
    characteristic: the trims of the family eliminate fewer d_1 columns than
    their generator degrees hold, and a generator degree that carries no A_1 class
    eliminates none."""
    calls = []
    column = KoszulComplex._diff_column

    def counted(self, i, d, k):
        calls.append((i, d))
        return column(self, i, d, k)

    monkeypatch.setattr(KoszulComplex, "_diff_column", counted)
    eliminated = held = 0
    for m in range(2, 7):
        for label in selector_labels(m):
            calls.clear()
            kz = KoszulComplex(helpers.trim_ideal(m, label).quotient_ring())
            for d in {g.degree() for g in kz.ring.ideal.generators}:
                eliminated += calls.count((1, d))
                held += kz.component_size(1, d)
    assert eliminated < held
    rng = random.Random(helpers.SEED + 16)
    silent = 0
    for char in (2, 3, 32003, 0):
        for ideal in redundant_generator_ideals(rng, char, 10):
            calls.clear()
            kz = KoszulComplex(ideal.quotient_ring())
            quiet = {g.degree() for g in ideal.generators} - {d for d, _ in kz._reps[1]}
            assert not any((1, d) in calls for d in quiet), (char, str(ideal))
            silent += len(quiet)
    assert silent > 0


def _corner_degrees(ring):
    """Degrees holding a standard monomial b with x*b, y*b and z*b not standard."""
    out = set()
    for d in range(ring.top_degree + 1):
        above = set(ring.basis(d + 1))
        if any(all((b[0] + (v == 0), b[1] + (v == 1), b[2] + (v == 2)) not in above
                   for v in range(3)) for b in ring.basis(d)):
            out.add(d)
    return out


def test_homology_skips_follow_corners_and_generator_degrees():
    """The `_classes` keys show what was eliminated with tags: d_3 only
    above a corner, H_0 only in degree 0, H_1 only in generator degrees."""
    rng = random.Random(helpers.SEED + 14)
    complexes = [helpers.koszul(m, label) for m in range(2, 7) for label in selector_labels(m)]
    complexes += [helpers.koszul(m) for m in range(2, 7)]
    complexes += [KoszulComplex(helpers.random_artinian_ideal(rng, helpers.field(char))
                                .quotient_ring())
                  for char in (2, 3, 32003, 0) for _ in range(10)]
    for kz in complexes:
        corners = _corner_degrees(kz.ring)
        assert all(d - 3 in corners for d, _ in kz._reps[3]), kz.ring.ideal
        assert all(d - 3 in corners for i, d in kz._classes if i == 3), kz.ring.ideal
        gen_degrees = {g.degree() for g in kz.ring.ideal.generators}
        for i, d in kz._classes:
            assert i != 0 or d == 0, kz.ring.ideal
            assert i != 1 or d in gen_degrees, kz.ring.ideal
    # d_3 runs in fewer degrees than the top_degree + 1 where K_3 is non-zero
    kz = helpers.koszul(8, "d")
    assert len({d for i, d in kz._classes if i == 3}) < kz.ring.top_degree + 1


def test_degree_without_homology_checks_cycles():
    kz = helpers.koszul(4, "d")
    for i in (1, 2):
        d = next(d for d in range(kz.ring.top_degree + 4)
                 if (i, d) not in kz._classes and kz.component_size(i, d)
                 and kz.component_size(i + 1, d))
        basis = [kz.element_from_vector(i, {d: {k: F.one}})
                 for k in range(kz.component_size(i, d))]
        non_cycle = next(el for el in basis if not kz.is_cycle(el))
        with pytest.raises(ValueError, match="element is not a cycle"):
            kz.class_coords(non_cycle)
        boundary = next(b for b in (kz.differential(kz.element_from_vector(i + 1, {d: {k: F.one}}))
                                    for k in range(kz.component_size(i + 1, d)))
                        if not b.is_zero())
        assert kz.class_coords(boundary) == [F.zero] * kz.ranks()[i]


def test_classify_path_makes_no_heap_reduction(monkeypatch):
    """Homology, products and the class read normal forms from the quotient
    ring's table; the heap reduction against the Groebner basis is not called."""
    ideal = trimmed_ideal(TrimChoice(6, "d"), F)
    ideal.groebner_basis()
    calls = []
    heap = ideals._normal_form_terms

    def counted(*args):
        calls.append(args)
        return heap(*args)

    monkeypatch.setattr(ideals, "_normal_form_terms", counted)
    kz = KoszulComplex(ideal.quotient_ring())
    kz.invariants()
    assert kz.classify().display() == "G(10)"
    assert len(calls) == 0
    assert ideal.normal_form(X ** 6).is_zero() and len(calls) == 1  # the wrapper counts


def test_homology_basis_elements_are_cycles_not_boundaries():
    for kz in (helpers.koszul(2), helpers.koszul(3, "x1")):
        for i in range(4):
            basis = kz.homology_basis(i)
            assert len(basis) == kz.ranks()[i]
            coords = []
            for b in basis:
                assert helpers.koszul_differential(kz.ring.ideal, b).is_zero()
                assert kz.is_cycle(b)
                assert not kz.is_boundary(b)
                coords.append(kz.class_coords(b))
            assert span_rank(coords, kz.ranks()[i], F) == len(basis)


# ---- products in homology --------------------------------------------------------

def test_unit_class_acts_as_identity():
    kz = helpers.koszul(2, "x1")
    one = kz.homology_basis(0)[0]
    for i in (1, 2, 3):
        for k, b in enumerate(kz.homology_basis(i)):
            coords = kz.multiply(one, b)
            expected = [F.zero] * kz.ranks()[i]
            expected[k] = F.one
            assert coords == expected


def test_multiply_rejects_bad_input():
    kz = helpers.koszul(2)
    one = Polynomial.constant(F, 1)
    not_cycle = KoszulElement(1, {E_X: one})  # boundary of e_x is x, nonzero in R
    cycle2 = kz.homology_basis(2)[0]
    with pytest.raises(ValueError):
        kz.multiply(not_cycle, cycle2)
    with pytest.raises(ValueError):
        kz.multiply(cycle2, cycle2)  # lands beyond the top exterior degree
    with pytest.raises(ValueError):
        kz.class_coords(not_cycle)


def test_elements_with_foreign_words_are_rejected():
    """A word that is not sorted distinct letters of the element's exterior
    degree is refused on the way into coordinates, not read as another
    element."""
    kz = helpers.koszul(3, "d")
    cycle = kz.homology_basis(1)[0]
    for word in (E_XY, (1, 0), (0, 0)):
        bad = KoszulElement(1, {word: X})
        for call in (kz.is_cycle, kz.reduce_element, kz.class_coords,
                     lambda el: kz.multiply(el, cycle)):
            with pytest.raises(ValueError, match="not one of exterior degree 1"):
                call(bad)


def test_graded_commutativity_random():
    rng = random.Random(helpers.SEED + 8)
    complexes = [helpers.koszul(2), helpers.koszul(2, "d"), helpers.koszul(3, "x1")]
    for _ in range(120):
        kz = complexes[rng.randrange(len(complexes))]
        i = rng.choice([1, 1, 2])
        j = rng.choice([1, 2]) if i == 1 else 1
        u = helpers.random_cycle(rng, kz, i)
        v = helpers.random_cycle(rng, kz, j)
        vu = kz.multiply(v, u)
        expect = vu if (i * j) % 2 == 0 else [F.neg(c) for c in vu]
        assert kz.multiply(u, v) == expect
        if i == 1:
            assert all(F.is_zero(c) for c in kz.multiply(u, u))


def test_products_ignore_choice_of_representative():
    rng = random.Random(helpers.SEED + 9)
    complexes = [helpers.koszul(2, "x1"), helpers.koszul(3, "d")]
    for _ in range(80):
        kz = complexes[rng.randrange(len(complexes))]
        i = rng.choice([1, 1, 2])
        j = rng.choice([1, 2]) if i == 1 else 1
        u = helpers.random_cycle(rng, kz, i)
        v = helpers.random_cycle(rng, kz, j)
        base = kz.multiply(u, v)
        w = helpers.random_element(rng, kz, i + 1)
        assert kz.multiply(u + kz.differential(w), v) == base


# ---- invariants and the decision table --------------------------------------------

def test_classification_table_rows():
    def cls(p, q, r, mu, t):
        return classify_from_invariants(TorInvariants(p, q, r, mu, t)).display()

    assert cls(3, 3, 3, 3, 1) == "CompleteIntersection"
    assert cls(0, 1, 5, 5, 1) == "Gorenstein(5)"
    assert cls(1, 1, 2, 5, 2) == "B"
    assert cls(3, 0, 0, 4, 3) == "T"
    assert cls(0, 1, 4, 7, 2) == "G(4)"
    assert cls(3, 2, 2, 4, 2) == "H(3,2)"
    # q = r = 1 must fall through to H(0,1), never G(1)
    assert cls(0, 1, 1, 4, 2) == "H(0,1)"
    assert cls(2, 1, 3, 6, 2) == "Unclassified(mu=6,p=2,q=1,r=3,type=2)"


def test_invariants_frozen_cases():
    inv = helpers.koszul(2, "x1").invariants()
    assert (inv.p, inv.q, inv.r, inv.mu, inv.type_rank) == (3, 2, 2, 4, 2)
    inv = helpers.koszul(2, "x0").invariants()
    assert (inv.p, inv.q, inv.r, inv.mu, inv.type_rank) == (1, 1, 2, 5, 2)
    inv = helpers.koszul(3, "d").invariants()
    assert (inv.p, inv.q, inv.r, inv.mu, inv.type_rank) == (0, 1, 4, 7, 2)
    inv = helpers.koszul(3, "x1").invariants()
    assert (inv.p, inv.q, inv.r, inv.mu, inv.type_rank) == (0, 1, 3, 6, 2)


def test_classify_frozen_cases():
    assert KoszulComplex(Ideal([X * X, Y * Y, Z * Z]).quotient_ring()) \
        .classify().display() == "CompleteIntersection"
    assert helpers.koszul(2).classify().display() == "Gorenstein(5)"
    assert helpers.koszul(3).classify().display() == "Gorenstein(7)"
    assert helpers.koszul(2, "d").classify().display() == "B"
    assert helpers.koszul(2, "y1").classify().display() == "H(3,2)"
    assert helpers.koszul(3, "x2").classify().display() == "G(3)"
    assert helpers.koszul(3, "y0").classify().display() == "G(4)"


def test_trims_have_type_two():
    for m in (2, 3):
        for label in ("x0", "x1", "d", "y1", "y0"):
            assert helpers.koszul(m, label).invariants().type_rank == 2


def test_class_table_at_m7_and_m8():
    for m in (7, 8):
        for label in selector_labels(m):
            mu, r = (2 * m, 2 * m - 3) if is_interior(TrimChoice(m, label)) else (2 * m + 1, 2 * m - 2)
            report = report_dict(helpers.koszul(m, label))
            assert report["ranks"] == [1, mu, mu + 1, 2], (m, label, report)
            assert report["type"] == 2, (m, label, report)
            assert (report["class"], report["class_params"]) == ("G", {"r": r}), (m, label)


def test_delta_matrix_shape_and_rank():
    for char in (32003, 0):
        kz = helpers.koszul(3, "d", char)
        inv = kz.invariants()
        rows = helpers.delta_rows(kz)
        assert len(rows) == kz.ranks()[2]
        assert all(len(r) == inv.mu * kz.ranks()[3] for r in rows)
        assert matrix_rank(rows, inv.mu * kz.ranks()[3], kz.field) == inv.r == 4


def test_delta_is_isomorphism_for_family():
    for m in (2, 3, 4):
        kz = helpers.koszul(m)
        r = matrix_rank(helpers.delta_rows(kz), (2 * m + 1) * kz.ranks()[3], F)
        assert r == kz.invariants().r == 2 * m + 1


def test_classify_requires_ideal_inside_square_of_maximal():
    kz = KoszulComplex(Ideal([X, Y * Y, Z * Z]).quotient_ring())
    with pytest.raises(ClassificationScopeError):
        kz.classify()
    unit = KoszulComplex(Ideal([Polynomial.constant(F, 1), X]).quotient_ring())
    assert unit.ranks() == (0, 0, 0, 0)
    with pytest.raises(UnitIdealError):
        unit.classify()


# ---- hand-built cycles ---------------------------------------------------------------

def test_cycle_basis_spans_degree_one_homology():
    for m, sel in ((3, "x0"), (3, "x1"), (3, "d"), (3, "y0"), (4, "x2")):
        kz = helpers.koszul(m, sel)
        cycles = a1_cycle_basis(TrimChoice(m, sel), kz)
        mu = kz.ranks()[1]
        assert len(cycles) == mu
        coords = [kz.class_coords(c) for c in cycles]
        assert span_rank(coords, mu, F) == mu


def test_annihilator_cycle_properties():
    for m, sel in ((3, "x0"), (3, "x2"), (3, "d"), (3, "y1"), (4, "d")):
        kz = helpers.koszul(m, sel)
        f = a1_annihilator_cycle(TrimChoice(m, sel), kz)
        assert kz.is_cycle(f)
        assert not kz.is_boundary(f)
        assert annihilates_a1(kz, f)


def test_cycle_checks_and_products_stay_on_coordinates(monkeypatch):
    """`is_cycle`, `multiply` and `annihilates_a1` reduce and check their
    factors on table coordinates: with `Polynomial.__init__` and
    `element_from_vector` refusing to run, they give the answers they gave
    before, and a non-cycle is still rejected."""
    kz = helpers.koszul(4, "d")
    a1, a2 = kz.homology_basis(1), kz.homology_basis(2)
    f = a1_annihilator_cycle(TrimChoice(4, "d"), kz)
    not_cycle = KoszulElement(1, {E_X: Polynomial.constant(F, 1)})
    products = [kz.multiply(u, v) for u in a1 for v in a1 + a2]
    annihilated = [not any(any(kz.multiply(u, v)) for u in a1) for v in a1 + a2]
    assert False in annihilated

    def refuse(*args, **kwargs):
        raise AssertionError("left the coordinates")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    monkeypatch.setattr(KoszulComplex, "element_from_vector", refuse)
    assert all(kz.is_cycle(b) for b in a1 + a2 + [f]) and not kz.is_cycle(not_cycle)
    assert [kz.multiply(u, v) for u in a1 for v in a1 + a2] == products
    with pytest.raises(ValueError, match="cycles only"):
        kz.multiply(not_cycle, a2[0])
    assert annihilates_a1(kz, f)
    assert [annihilates_a1(kz, v) for v in a1 + a2] == annihilated
    with pytest.raises(ValueError, match="not a cycle"):
        annihilates_a1(kz, not_cycle)


def test_a_is_poincare_duality_algebra_with_trivial_padding():
    """The abstract's structure, checked by `helpers.pd_padding`: for m = 3..8
    over F_32003, m = 7 over Q and the d trim at m = 12 and 16, every trim has
    rank P_1 = r for its class G(r) and padding (V_1, V_2, V_3) = (3, 4, 1).
    At m = 2 the B trims fail only condition 4: with p = 1,
    (e e')e'' = e(e'e'') lies in e(k e e') = 0, so the product of A_1 lies in
    the radical V_2, which no P_2 meets.  The H(3,2) trims have q = 2 and fail
    all four."""
    cases = [(m, label, 32003) for m in range(3, 9) for label in selector_labels(m)]
    cases += [(7, label, 0) for label in selector_labels(7)]
    cases += [(12, "d", 32003), (16, "d", 32003)]
    for case in cases:
        kz = helpers.koszul(*case)
        assert helpers.pd_padding(kz) == ([], kz.classify().params["r"], (3, 4, 1)), case
    for label in ("x0", "d", "y0"):
        assert helpers.pd_padding(helpers.koszul(2, label)) == ([4], 2, (3, 4, 1)), label
    for label in ("x1", "y1"):
        kz = helpers.koszul(2, label)
        assert kz.invariants().q == 2
        assert helpers.pd_padding(kz) == ([1, 2, 3, 4], 1, (3, 3, 0)), label


def test_random_pfaffian_trims_have_the_abstract_structure():
    """Beyond the band family: the Pfaffians of two seeded random linear skew
    (2n+1)-matrices per field.  For n = 3, 4 every trim passes `pd_padding`
    with padding (3, 4, 1) and class G(r), r = rank P_1; over F_32003 the
    ranks are (1, 2n, 2n+1, 2), while over F_3 a trim can have a larger A_1
    (one at n = 3 has ranks (1, 7, 8, 2) and class G(4)).  At n = 2, where
    mu(g) = 5, the trims over F_32003 have the H(3,2) pattern of the m = 2
    family."""
    for char, n in [(32003, 2)] + [(c, n) for c in (32003, 3, 0) for n in (3, 4)]:
        for draw in range(2):
            rng = random.Random(helpers.SEED + 100 * n + draw)
            ideal, _ = helpers.random_pfaffian_ideal(rng, helpers.field(char), n)
            for k in range(2 * n + 1):
                kz = KoszulComplex(ideals.trim(ideal.generators, k).quotient_ring())
                case = (char, n, draw, k)
                failed, rank_p1, padding = helpers.pd_padding(kz)
                if n == 2:
                    assert (failed, rank_p1, padding) == ([1, 2, 3, 4], 2 * n - 3, (3, 3, 0)), case
                    assert kz.classify().display() == "H(3,2)", case
                else:
                    assert (failed, padding) == ([], (3, 4, 1)), case
                    assert kz.classify().display() == f"G({rank_p1})", case
                if char == 32003:
                    assert kz.ranks() == (1, 2 * n, 2 * n + 1, 2), case


@pytest.mark.slow
def test_abstract_structure_at_scale():
    """Opt-in (`pytest -m slow`): every trim at m = 16 and the d trim at m = 32
    pass `pd_padding` with rank P_1 = r and padding (3, 4, 1)."""
    for m, label in [(16, label) for label in selector_labels(16)] + [(32, "d")]:
        kz = KoszulComplex(trimmed_ideal(TrimChoice(m, label), F).quotient_ring())
        assert helpers.pd_padding(kz) == ([], kz.classify().params["r"], (3, 4, 1)), (m, label)


def test_hand_built_cycles_need_m_at_least_three():
    kz = helpers.koszul(2, "d")
    with pytest.raises(ValueError):
        a1_cycle_basis(TrimChoice(2, "d"), kz)
    with pytest.raises(ValueError):
        a1_annihilator_cycle(TrimChoice(2, "d"), kz)
