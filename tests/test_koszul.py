"""Koszul homology, its multiplication, and the classification table."""

import collections
import functools
import hashlib
import itertools
import random

import pytest

import helpers
from gtrim import (
    Ideal,
    KoszulComplex,
    Polynomial,
    TorInvariants,
    TrimChoice,
    classify_from_invariants,
    gorenstein_ideal,
    report_dict,
    trimmed_ideal,
    variables,
)
from gtrim import ideals, koszul
from gtrim.errors import ClassificationScopeError, UnitIdealError
from gtrim.koszul import _generator_cycle, wedge_words
from gtrim.linalg import Echelon
from helpers import (
    KoszulElement,
    a1_annihilator_cycle,
    a1_cycle_basis,
    annihilates_a1,
    class_coords,
    differential,
    element,
    generator_cycle,
    homology_basis,
    is_boundary,
    is_cycle,
    is_interior,
    matrix_rank,
    minimal_generators,
    multiply,
    reduce_element,
    selector_labels,
    socle_basis,
    span_rank,
    wedge,
)

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
    d_top = differential(kz, KoszulElement(3, {E_XYZ: one}))
    assert d_top.components[E_YZ] == X
    assert d_top.components[E_XZ] == -Y
    assert d_top.components[E_XY] == Z
    d_xy = differential(kz, KoszulElement(2, {E_XY: one}))
    assert d_xy.components == {E_Y: X, E_X: -Y}


def test_differential_matches_polynomial_oracle():
    rng = random.Random(helpers.SEED + 10)
    for char in (32003, 0):
        for m, sel in ((2, None), (2, "x1"), (3, "d"), (4, "x2")):
            kz = helpers.koszul(m, sel, char)
            for i in range(4):
                samples = [helpers.random_element(rng, kz, i, max_degree=3) for _ in range(15)]
                for el in samples + homology_basis(kz, i):
                    assert differential(kz, el) == helpers.koszul_differential(kz.ring.ideal, el)


def test_differential_squares_to_zero():
    rng = random.Random(helpers.SEED + 7)
    for kz in (helpers.koszul(2), helpers.koszul(3, "d")):
        for i in (2, 3):
            for _ in range(40):
                el = helpers.random_element(rng, kz, i)
                assert differential(kz, differential(kz, el)).is_zero()


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
                for b in homology_basis(kz, 1)]
        kept, _ = minimal_generators(I)
        assert sorted(reps) == sorted(g.degree() for g in kept), (I.field, I)
        # A_1 = a/ma: the cycles of the input generators, redundant ones too, span it
        cycles = [generator_cycle(g) for g in I.generators]
        assert all(is_cycle(kz, c) for c in cycles), (I.field, I)
        mu = kz.ranks()[1]
        assert span_rank([class_coords(kz, c) for c in cycles], mu, I.field) == mu, (I.field, I)


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
    built in every internal degree.  The A_1 representatives are the
    generators' cycles and the A_3 ones the socle vectors of
    `QuotientRing.socle`, not the oracle's kernel vectors, so for i = 1 and 3
    they are cycles whose oracle class coordinates form an invertible matrix
    B_i, and a cycle's oracle coordinates are its coordinates times B_i."""
    f, ref = kz.field, helpers.full_homology(kz.ring)
    assert kz.ranks() == ref.ranks(), label
    for i in (0, 2):
        assert [str(b) for b in homology_basis(kz, i)] == \
            [str(b) for b in homology_basis(ref, i)], (label, i)
    a1, a2 = homology_basis(kz, 1), homology_basis(kz, 2)
    change = {}
    for i in (1, 3):
        basis = homology_basis(kz, i)
        assert all(helpers.koszul_differential(kz.ring.ideal, b).is_zero() for b in basis), label
        change[i] = [class_coords(ref, b) for b in basis]
        assert matrix_rank(change[i], len(basis), f) == len(basis), (label, i)
    products = [wedge(kz, a1[s], a1[t]) for s in range(len(a1)) for t in range(s + 1, len(a1))]
    products += [wedge(kz, e, g) for e in a1 for g in a2]
    for el in products + [helpers.random_cycle(rng, kz, i) for i in range(4)]:
        coords = class_coords(kz, el)
        rows = change.get(el.exterior_degree)
        if rows is not None:
            coords = [f.of(sum(a * row[t] for a, row in zip(coords, rows)))
                      for t in range(len(coords))]
        assert coords == class_coords(ref, el), (label, str(el))


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
        basis = [b for i in range(4) for b in homology_basis(kz, i)]
        pairs = [(u, v) for u, v in itertools.combinations(basis, 2)
                 if u.exterior_degree + v.exterior_degree <= 3]
        pairs += [(helpers.random_cycle(rng, kz, i), helpers.random_cycle(rng, kz, j))
                  for i, j in ((1, 1), (1, 2), (2, 1), (0, 3))]
        for u, v in pairs:
            oracle = helpers.polynomial_wedge(kz, u, v)
            product = wedge(kz, u, v)
            assert product == oracle and str(product) == str(oracle), label
            assert multiply(kz, u, v) == class_coords(kz, oracle), label


def test_class_product_matches_polynomial_oracle():
    """`class_product(i, s, j, t)` is the class of the Polynomial product of
    basis representatives s of A_i and t of A_j, in either order; it is zero
    where A_{i+j} has no class in the product's degree and weight."""
    complexes = [KoszulComplex(ideal.quotient_ring()) for _, ideal in helpers.small_instances()]
    complexes += [helpers.koszul(3, "d", 0), helpers.koszul(4, "x1", 0)]
    for kz in complexes:
        basis = [homology_basis(kz, i) for i in range(4)]
        for i, j in ((0, 0), (0, 2), (1, 1), (1, 2), (2, 1), (3, 0)):
            for (s, u), (t, v) in itertools.product(enumerate(basis[i]), enumerate(basis[j])):
                oracle = class_coords(kz, helpers.polynomial_wedge(kz, u, v))
                assert kz.class_product(i, s, j, t) == oracle, (kz.ring.ideal, i, s, j, t)


def index_cells(kz) -> set:
    """The (i, d) that the class index `_at` of a complex names."""
    return {(i, d) for i, at in enumerate(kz._at) for d in at}


def test_classes_record_where_a_lives_and_products_take_one_route(monkeypatch):
    """`_classes` has an entry exactly at the (i, d) of each kept
    representative, and so has `_at`, the index of the classes by exterior
    degree, internal degree and weight, from which `class_product` reads
    where A lives.
    `helpers.multiply` of two cycles, basis classes or not, is the class of
    their `wedge`, from one `_product`; `annihilates_a1` forms at most one per
    A_1 class."""
    rng = random.Random(helpers.SEED + 24)
    corpus = [ideal for _, ideal in helpers.small_instances()]
    corpus += [helpers.random_artinian_ideal(rng, helpers.field(char))
               for char in (2, 3, 32003, 0) for _ in range(20)]
    calls = []
    product = KoszulComplex._product

    def counted(self, u, v):
        calls.append(1)
        return product(self, u, v)

    monkeypatch.setattr(KoszulComplex, "_product", counted)
    for ideal in corpus:
        kz = KoszulComplex(ideal.quotient_ring())
        label = (ideal.field, ideal)
        assert set(kz._classes) == {(i, d) for i, reps in enumerate(kz._reps)
                                    for d, _ in reps} == index_cells(kz), label
        for i, j in ((0, 2), (1, 1), (1, 2), (2, 1), (0, 3)):
            u, v = helpers.random_cycle(rng, kz, i), helpers.random_cycle(rng, kz, j)
            expected = class_coords(kz, wedge(kz, u, v))
            calls.clear()
            assert multiply(kz, u, v) == expected, label
            assert len(calls) == 1, label
        f = helpers.random_cycle(rng, kz, 2)
        calls.clear()
        if annihilates_a1(kz, f):
            assert len(calls) == kz.ranks()[1], label
        else:  # it stops at the first A_1 class that [f] does not kill
            assert 1 <= len(calls) <= kz.ranks()[1], label


def test_live_classes_are_where_products_are_solved():
    """`_class_coords` solves only in degrees with a `_classes` entry, and
    `class_product` asks it only for the `_partners` that the index `_at`
    gives: the two name the same (i, d) for g_m and each of its trims,
    m = 2..8 over F_32003 and F_2, every trim's complex derived once with
    its family's complex passed and once without.  The partners of a class
    are exactly the classes whose product with it has the (degree, weight)
    of a class, and every pair they make has its product formed."""
    for char in (32003, 2):
        fld = helpers.field(char)
        for m in range(2, 9):
            family = gorenstein_ideal(m, fld)
            family_complex = KoszulComplex(family.quotient_ring())
            complexes = [family_complex]
            for k in range(len(family.generators)):
                ring = ideals.trim(family, k).quotient_ring()
                complexes += [KoszulComplex(ring, family_complex), KoszulComplex(ring)]
            for kz in complexes:
                case = (char, m, kz.ring.ideal)
                assert index_cells(kz) == set(kz._classes), case
                live = {(i, d, w) for i, words in enumerate(kz._words) for d, _, w in words}
                n = kz.ranks()
                for i, j in itertools.product(range(4), repeat=2):
                    for s in range(n[i] if i + j <= 3 else 0):
                        du, _, wu = kz._words[i][s]
                        partners = kz._partners(i, s, i + j)
                        assert sorted(partners) == [
                            t for t, (dv, _, wv) in enumerate(kz._words[j])
                            if (i + j, du + dv, tuple(map(int.__add__, wu, wv))) in live], case
                        for t in partners:
                            assert len(kz.class_product(i, s, j, t)) == n[i + j], case


def test_invariants_make_no_polynomial_product(monkeypatch):
    """`invariants` reads the representatives as coordinates: it forms no
    Polynomial product, and builds no Polynomial at all, so no element."""
    complexes = {sel: KoszulComplex(trimmed_ideal(TrimChoice(6, sel), F).quotient_ring())
                 for sel in ("d", "x2")}
    expected = {sel: helpers.all_products_invariants(kz) for sel, kz in complexes.items()}

    def refuse(*args):
        raise AssertionError("called on the invariants path")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__rmul__", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    for sel, kz in complexes.items():
        assert kz.invariants() == expected[sel], sel
    assert [kz.classify().display() for kz in complexes.values()] == ["G(10)", "G(9)"]


def test_lowest_homology_stops_at_euler_count(monkeypatch):
    """The lowest live H_i stops at its last class, counted from the Euler
    characteristic: outside the generator degrees, where it is H_2, the trims
    of the family eliminate fewer d_2 columns than those degrees hold.  H_1 is
    read off the generators: no d_1 column is built for any trim at m = 2..6,
    nor for an ideal with redundant generators, whose generator degrees can
    carry no A_1 class.  The trims' rings are walked (`helpers.walked_ring`):
    a derived ring takes its homology from its family's instead."""
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
            kz = KoszulComplex(helpers.walked_ring(helpers.trim_ideal(m, label)))
            assert not any(i == 1 for i, _ in calls), (m, label)
            gen_degrees = {g.degree() for g in kz.ring.ideal.generators}
            for d in {d for i, d in calls if i == 2} - gen_degrees:
                eliminated += calls.count((2, d))
                held += kz.component_size(2, d)
    assert eliminated < held
    rng = random.Random(helpers.SEED + 16)
    silent = 0
    for char in (2, 3, 32003, 0):
        for ideal in redundant_generator_ideals(rng, char, 10):
            calls.clear()
            kz = KoszulComplex(ideal.quotient_ring())
            assert not any(i == 1 for i, _ in calls), (char, str(ideal))
            silent += len({g.degree() for g in ideal.generators} - {d for d, _ in kz._reps[1]})
    assert silent > 0


def test_a1_representatives_are_generator_cycles():
    """Every A_1 representative is the `_generator_cycle` of an input
    generator of its degree, in coordinates: H_1 = a/ma is read off the
    generators, redundant ones included, in every walked ring (a derived
    ring's A_1 classes combine its family's)."""
    rng = random.Random(helpers.SEED + 17)
    corpus = [ideal for _, ideal in helpers.small_instances()]
    corpus += [ideal for char in (2, 3, 32003, 0)
               for ideal in redundant_generator_ideals(rng, char, 10)]
    for ideal in corpus:
        kz = KoszulComplex(helpers.walked_ring(ideal))
        cycles = [(g.degree(), kz._vectors(_generator_cycle(g))) for g in ideal.generators]
        for d, vec in kz._reps[1]:
            assert (d, {d: vec}) in cycles, (ideal.field, str(ideal), d)


def test_generator_cycles_short_of_the_euler_count_raise(monkeypatch):
    """The Euler count of A_1 is a guarantee, not a cap: cycles that span
    fewer classes (here none, each generator's cycle replaced by zero) make
    the build raise instead of returning fewer classes."""
    monkeypatch.setattr(koszul, "_generator_cycle", lambda g: {})
    with pytest.raises(RuntimeError, match="fewer than"):
        KoszulComplex(helpers.trim_ideal(3, "d").quotient_ring())


def test_invariants_fill_few_table_entries():
    """A product monomial off the border reaches the table through a parent
    that already has an entry where one does: over the 77 trims of
    `table --m 2..8`, each from a fresh g_m, `invariants` adds at most 6,534
    normal-form entries (8,378 when it always took the first non-standard
    parent).  Trimmed as `table` trims, 2m + 1 times from one g_m per m, a
    trim holds its family's tables in every degree but that of g, so an entry
    made for one trim serves its siblings: at most 503 (6,503 when each trim
    copied its family's table)."""

    def made(trims):
        count = 0
        for T in trims:
            kz = KoszulComplex(T.quotient_ring())
            before = sum(map(len, kz.ring._table))
            kz.invariants()
            count += sum(map(len, kz.ring._table)) - before
        return count

    assert made(trimmed_ideal(TrimChoice(m, label), F)
                for m in range(2, 9) for label in selector_labels(m)) <= 6534
    families = [gorenstein_ideal(m, F) for m in range(2, 9)]
    assert made(ideals.trim(I, k) for I in families for k in range(len(I.generators))) <= 503


def test_table_builds_few_differential_columns(monkeypatch):
    """A trim's homology is its family's, corrected by the connecting map of
    0 -> k*gamma(-e) -> R' -> R -> 0 (the `koszul` module docstring): over
    the 77 trims of `table --m 2..8`, built as `table` builds them, 2m + 1
    from one g_m per m with its complex passed, `_diff_column` runs at most
    1,000 times, the family complexes included (9,493 when each trim
    eliminated its own levels deg g - 1 and deg g; 13,861 before that, when
    each built all its own socles, d_2 and d_3 images)."""
    calls, column = [0], KoszulComplex._diff_column

    def counted(kz, i, d, k):
        calls[0] += 1
        return column(kz, i, d, k)

    monkeypatch.setattr(KoszulComplex, "_diff_column", counted)
    for m in range(2, 9):
        family = gorenstein_ideal(m, F)
        family_complex = KoszulComplex(family.quotient_ring())
        for k in range(len(family.generators)):
            report_dict(KoszulComplex(ideals.trim(family, k).quotient_ring(), family_complex))
    assert calls[0] <= 1000


def _report(kz):
    """report_dict of kz, or the repr of the error it raises."""
    try:
        return report_dict(kz)
    except (ClassificationScopeError, UnitIdealError) as exc:
        return repr(exc)


def _check_routed_against_direct(family, k, family_complex):
    """The trim of family at k, its complex derived with family_complex
    passed and with none (then it builds its family's), against the complex
    of the same ring walked from the trim's generators: the same report_dict
    (or error) and degrees of the representatives; the derived
    representatives' classes in the walked complex, C_i, invertible; each
    A_1 x A_1, A_1 x A_2 and A_2 x A_1 class product, the same from both
    derived complexes and, carried by C_(i+j), the walked class of the same
    representatives' product; and each derived basis element's class_coords
    its unit vector.  The derived `invariants`, which skip the pairs whose
    degree and weight meet no class, equal those from every product
    (`helpers.all_products_invariants`).  Returns how the trim relates to
    its family: 'same' (R' = R), 'taller' (deg g = top_degree + 1 and R' one
    degree taller) or 'grown' (R'_e one larger)."""
    ring = ideals.trim(family, k).quotient_ring()
    routed, shared = KoszulComplex(ring), KoszulComplex(ring, family_complex)
    direct = KoszulComplex(helpers.walked_ring(ring.ideal))
    f, case = ring.field, (family.field, family, k)
    assert routed._reps == shared._reps, case
    assert _report(routed) == _report(shared) == _report(direct), case
    assert routed.invariants() == helpers.all_products_invariants(routed), case
    change = []
    for i in range(4):
        assert [d for d, _ in routed._reps[i]] == [d for d, _ in direct._reps[i]], case
        change.append([direct._class_coords(i, {d: vec}) for d, vec in routed._reps[i]])
        assert matrix_rank(change[i], len(change[i]), f) == len(change[i]), (case, i)
        for s, el in enumerate(homology_basis(routed, i)):
            unit = [f.one if r == s else f.zero for r in range(len(change[i]))]
            assert class_coords(routed, el) == unit, (case, i, s)
    for i, j in ((1, 1), (1, 2), (2, 1)):
        for s, (_, u, _) in enumerate(routed._words[i]):
            for t, (_, v, _) in enumerate(routed._words[j]):
                product = routed.class_product(i, s, j, t)
                assert shared.class_product(i, s, j, t) == product, (case, i, s, t)
                carried = {}
                for r, c in enumerate(product):
                    f.sub_multiple(carried, f.neg(c), dict(enumerate(change[i + j][r])))
                expected = helpers.vector_class(direct, i + j, direct._product(u, v))
                assert carried == {r: c for r, c in enumerate(expected) if c}, (case, i, s, t)
    if ring.std == family_complex.ring.std:
        return "same"
    return "taller" if ring.top_degree > family_complex.ring.top_degree else "grown"


def test_derived_trim_complexes_match_walked_ones():
    """A trim's complex derived from its family's (the long exact sequence in
    the `koszul` module docstring) has other representatives than that of
    its ring walked from its generators, so the two are compared basis-free
    (`_check_routed_against_direct`):
    every trim of g_m for m = 2..10 over F_2, F_3 and F_32003 and m = 2..6
    over Q, and every trim of 8 random artinian ideals per field, whose mixed
    generator degrees put e next to the degrees of many products and give
    trims at a non-minimal g (19), at deg g = top_degree + 1 (16, of which
    6 make R' taller) and past it (8).  Also every trim of every trim of g_3
    and g_4, derived from the first trim's derived complex."""
    cases = collections.Counter()
    for char, top in ((2, 10), (3, 10), (32003, 10), (0, 6)):
        fld, rng = helpers.field(char), random.Random(helpers.SEED + 28 + char)
        families = [gorenstein_ideal(m, fld) for m in range(2, top + 1)]
        families += [helpers.random_artinian_ideal(rng, fld) for _ in range(8)]
        for family in families:
            family_complex = KoszulComplex(family.quotient_ring())
            for k, g in enumerate(family.generators):
                past = g.degree() - family_complex.ring.top_degree - 1  # 0 at top + 1
                cases[_check_routed_against_direct(family, k, family_complex),
                      min(max(past, -1), 1)] += 1
    assert sum(cases.values()) == 541
    assert (cases["same", -1], cases["same", 0], cases["taller", 0], cases["same", 1]) == \
        (19, 10, 6, 8)
    for m in (3, 4):  # a trim of a trim, from the derived complex of the first trim
        family = gorenstein_ideal(m, F)
        family_complex = KoszulComplex(family.quotient_ring())
        for k in range(len(family.generators)):
            first = ideals.trim(family, k)
            first_complex = KoszulComplex(first.quotient_ring(), family_complex)
            for j in range(len(first.generators)):
                _check_routed_against_direct(first, j, first_complex)


def test_derived_classes_are_checked():
    """The derivation checks itself: each internal degree against the Euler
    characteristic (here a family complex short of its top A_3 class), and
    each deferred space, on its first solve, that its classes are
    independent of the trim's own boundaries (here one replaced by zero).
    The cycle of the trimmed generator g is a cycle of the family's ring
    alone: its boundary in the trim's ring does not vanish, and solved in
    the trim's own space, which that solve builds, its class is refused."""
    family = gorenstein_ideal(3, F)
    family_complex = KoszulComplex(family.quotient_ring())
    ring = ideals.trim(family, 3).quotient_ring()
    kz = KoszulComplex(ring, family_complex)
    cycle = generator_cycle(family.generators[3])
    assert is_cycle(family_complex, cycle) and not is_cycle(kz, cycle)
    with pytest.raises(ValueError, match="not a cycle"):
        class_coords(kz, cycle)
    with pytest.raises(ValueError, match="not a cycle"):
        kz._class_coords(1, kz._vectors(_generator_cycle(family.generators[3])))
    assert isinstance(kz._classes[1, 3], Echelon)
    assert kz._classes[1, 3] is not family_complex._classes[1, 3]
    (i, d), *_ = (key for key, space in kz._classes.items() if space is None)
    first = next(k for k, (deg, _) in enumerate(kz._reps[i]) if deg == d)
    kz._reps[i][first] = (d, {})
    with pytest.raises(RuntimeError, match="not independent"):
        kz._class_coords(i, {d: {}})
    top = len(family_complex._reps[3]) - 1  # dropped from the reps, words and index alike
    d, _ = family_complex._reps[3].pop()
    _, _, w = family_complex._words[3].pop()
    family_complex._at[3][d][w].remove(top)
    with pytest.raises(RuntimeError, match="internal degree 7 miss chi_d"):
        KoszulComplex(ring, family_complex)


def test_a_derived_complex_reads_no_family_space():
    """A trim's complex derived from a family complex whose `_classes` are
    emptied has the same ranks, invariants and every A_1 x A_1, A_1 x A_2
    and A_2 x A_1 class product as one derived from the intact family
    complex: a trim solves in its own spaces, and the family lends only its
    ring, representatives, words, class index and weights.  Every trim of
    g_m for m = 2..8 over F_32003 and F_2 and m = 2..5 over Q, and of 4
    random artinian ideals per field."""
    for char, top in ((32003, 8), (2, 8), (0, 5)):
        fld, rng = helpers.field(char), random.Random(helpers.SEED + 35 + char)
        families = [gorenstein_ideal(m, fld) for m in range(2, top + 1)]
        families += [helpers.random_artinian_ideal(rng, fld) for _ in range(4)]
        for family in families:
            intact = KoszulComplex(family.quotient_ring())
            emptied = KoszulComplex(intact.ring)
            emptied._classes = {}
            for k in range(len(family.generators)):
                ring = ideals.trim(family, k).quotient_ring()
                kz, bare = KoszulComplex(ring, intact), KoszulComplex(ring, emptied)
                case = (char, family, k)
                assert bare.ranks() == kz.ranks(), case
                assert bare.invariants() == kz.invariants(), case
                n = kz.ranks()
                for i, j in ((1, 1), (1, 2), (2, 1)):
                    for s, t in itertools.product(range(n[i]), range(n[j])):
                        assert bare.class_product(i, s, j, t) == \
                            kz.class_product(i, s, j, t), (case, i, s, t)


def test_table_forms_each_asked_trim_product_once(monkeypatch, capsys):
    """`table --m 2..8` passes each trim its family's complex for the
    homology, and forms each product a trim's `invariants` asks for once, by
    `_product`, and no other.  The trims ask `class_product` only for pairs
    whose degree and weight meet a class: at most 686 calls (9,648 with the
    degree alone, 17,871 when every pair was asked and most came back as
    zero lists)."""
    from gtrim.cli import main

    calls, asked = [0], [0]
    product, class_product = KoszulComplex._product, KoszulComplex.class_product

    def counted(kz, u, v):
        calls[0] += 1
        return product(kz, u, v)

    def counted_class_product(kz, *pair):
        asked[0] += kz.family is not None
        return class_product(kz, *pair)

    monkeypatch.setattr(KoszulComplex, "_product", counted)
    monkeypatch.setattr(KoszulComplex, "class_product", counted_class_product)
    assert main(["table", "--m", "2..8"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "b564f3154460abade1875a989de277fd7507f16500cc67b862ce4c3dcbe42e19"
    assert calls[0] == asked[0] <= 686


def test_table_solves_each_family_once(monkeypatch, capsys):
    """`table --m 2..8`, one family complex per m, solves the degree-m
    generators of each g_m once (`QuotientRing._solve`: 7 times for the 77
    trims), and every trim reads its ring, t, at_t and delta off that solve:
    `_derive` makes no `Echelon.add` of its own (each trim eliminated its
    own a'_e before), and `_derive_homology` never calls `mult_column`
    (4,851 calls when at_t was read off the trim's table)."""
    from gtrim.cli import main
    from gtrim.ideals import QuotientRing

    running, calls = [], collections.Counter()

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name, "_derive" in running and "_solve" not in running,
                  "_derive_homology" in running] += 1
            running.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(cls, name, counted)

    for cls, name in ((QuotientRing, "_derive"), (QuotientRing, "_solve"),
                      (QuotientRing, "mult_column"), (KoszulComplex, "_derive_homology"),
                      (Echelon, "add")):
        spy(cls, name)
    assert main(["table", "--m", "2..8"]) == 0
    capsys.readouterr()
    assert calls["_derive", False, False] == calls["_derive_homology", False, False] == 77
    assert calls["_solve", True, False] == 7
    assert calls["add", False, False] > 0  # the solves and the families' own eliminations
    assert calls["add", True, False] == 0
    assert sum(n for (name, _, homology), n in calls.items()
               if name == "mult_column" and homology) == 0


def test_a_lone_trim_forms_products_only_where_weights_meet(monkeypatch, capsys):
    """`classify --m 14 --trim d` builds g_14's complex for the trim and
    forms at most 30 products (26; 756 when pairs were filtered by degree
    alone): by weight, A_1 x A_2 -> A_3 pairs each A_2 class with at most
    one A_1 class.  `invariants` reads the partners of each class off the
    index `_at`, and `class_product` tests a pair in `_at` without them, so
    `_partners` runs at most 59 times: once per A_1 class (29) and once per
    A_2 class (30); 85 while each product re-listed them.  Pairs tested one
    by one took 432 tests, and 1,328 when every A_1 x A_2 pair was."""
    from gtrim.cli import main

    calls, looked = [0], [0]
    product, partners = KoszulComplex._product, KoszulComplex._partners

    def counted(kz, u, v):
        calls[0] += 1
        return product(kz, u, v)

    def counted_partners(kz, *cls):
        looked[0] += 1
        return partners(kz, *cls)

    monkeypatch.setattr(KoszulComplex, "_product", counted)
    monkeypatch.setattr(KoszulComplex, "_partners", counted_partners)
    assert main(["classify", "--m", "14", "--trim", "d"]) == 0
    capsys.readouterr()
    assert calls[0] <= 30 and looked[0] <= 59


def test_weights_read_off_the_generators():
    """`koszul._weights` gives the weights beyond the degree for which every
    generator is homogeneous: ((1, -1, 0),) for g_m and for each trim of g_m,
    m = 2..10, whose derived complex takes its family's; none where the
    exponent differences span the plane a + b + c = 0, and two for a
    monomial ideal."""
    for m in range(2, 11):
        family = gorenstein_ideal(m, F)
        family_complex = KoszulComplex(family.quotient_ring())
        assert koszul._weights(family.generators) == family_complex._weights == ((1, -1, 0),)
        for k in range(len(family.generators)):
            trim = ideals.trim(family, k)
            assert koszul._weights(trim.generators) == ((1, -1, 0),), (m, k)
            derived = KoszulComplex(trim.quotient_ring(), family_complex)
            assert derived._weights == ((1, -1, 0),), (m, k)
    plane = Ideal([X ** 2 + Y * Z, Y ** 2 + X * Z, Z ** 2 + X * Y], F)
    assert koszul._weights(plane.generators) == KoszulComplex(plane.quotient_ring())._weights == ()
    monomial = Ideal([X ** 2, X * Y, Y ** 3, Z ** 2], F)
    assert koszul._weights(monomial.generators) == ((1, -1, 0), (0, 1, -1))
    assert koszul._weights(Ideal([X ** 2 - Y * Z, Y ** 2, Z ** 2], F).generators) == ((0, 1, -1),)


def test_every_class_is_weight_homogeneous():
    """Every basis class of g_m and of each of its trims has terms of one
    internal degree and one weight, the ones kept beside its words, and the
    index `_at` files exactly the classes under their (i, d, weight):
    m = 2..10 over F_32003, F_2 and F_3, and m = 2..6 over Q.  Both are read
    here off `homology_basis`: a + b + c plus the word length, and a - b, plus
    one for e_x and less one for e_y, of each term x^a y^b z^c e_w."""
    for char, top in ((32003, 10), (2, 10), (3, 10), (0, 6)):
        fld = helpers.field(char)
        for m in range(2, top + 1):
            family = gorenstein_ideal(m, fld)
            family_complex = KoszulComplex(family.quotient_ring())
            for k in range(-1, len(family.generators)):
                kz = family_complex if k < 0 else \
                    KoszulComplex(ideals.trim(family, k).quotient_ring(), family_complex)
                live = {}
                for i in range(4):
                    for s, el in enumerate(homology_basis(kz, i)):
                        found = {(a + b + c + len(w), a - b + (0 in w) - (1 in w))
                                 for w, p in el.components.items() for a, b, c in p.terms}
                        d, _, weight = kz._words[i][s]
                        assert found == {(d, *weight)}, (char, m, k, i, s)
                        live.setdefault((i, d, weight), []).append(s)
                assert {(i, d, w): classes for i, at in enumerate(kz._at)
                        for d, weights in at.items()
                        for w, classes in weights.items()} == live, (char, m, k)


def test_family_complex_of_another_ring_is_refused(monkeypatch):
    """`family` must be the complex of the very ring a ring is derived from:
    that of g_(m+1), of a sibling trim, or of g_m for a ring walked from the
    trim's own generators (or g_m's own ring) raises ValueError before any
    homology is built."""
    family, larger = gorenstein_ideal(4, F), gorenstein_ideal(5, F)
    family_complex = KoszulComplex(family.quotient_ring())
    larger_complex = KoszulComplex(larger.quotient_ring())
    sibling_complex = KoszulComplex(ideals.trim(family, 1).quotient_ring())
    trim_ring = ideals.trim(family, 0).quotient_ring()
    walked = Ideal(ideals.trim(family, 0).generators, F).quotient_ring()

    def refuse(kz):
        raise AssertionError("homology built for a refused family")

    monkeypatch.setattr(KoszulComplex, "_build_homology", refuse)
    for ring, wrong in ((trim_ring, larger_complex), (trim_ring, sibling_complex),
                        (walked, family_complex), (family.quotient_ring(), family_complex)):
        with pytest.raises(ValueError, match="derived from"):
            KoszulComplex(ring, wrong)


def test_a_derived_ring_takes_one_route(monkeypatch, capsys):
    """A ring with a parent always derives its homology from its family's
    complex, passed or not: through `main`, `table --m 2..8` and
    `classify --m M --trim SEL` for every selector at m = 2..6 never run
    `_build_homology` on one.  Built with its family's complex passed and
    without, every trim of g_m, m = 2..6, has the same representatives and
    the same report."""
    from gtrim.cli import main

    build = KoszulComplex._build_homology

    def walked_only(kz):
        assert kz.ring.parent is None, "homology built for a derived ring"
        build(kz)

    monkeypatch.setattr(KoszulComplex, "_build_homology", walked_only)
    assert main(["table", "--m", "2..8"]) == 0
    for m in range(2, 7):
        for sel in selector_labels(m):
            assert main(["classify", "--m", str(m), "--trim", sel]) == 0, (m, sel)
    capsys.readouterr()
    for m in range(2, 7):
        family = gorenstein_ideal(m, F)
        family_complex = KoszulComplex(family.quotient_ring())
        for k in range(len(family.generators)):
            ring = ideals.trim(family, k).quotient_ring()
            alone, shared = KoszulComplex(ring), KoszulComplex(ring, family_complex)
            assert alone._reps == shared._reps, (m, k)
            assert report_dict(alone) == report_dict(shared), (m, k)


def _outcome(ideal):
    """(report_dict or the error, every homology_basis string) of Q/ideal."""
    kz = KoszulComplex(ideal.quotient_ring())
    try:
        report = report_dict(kz)
    except (ClassificationScopeError, UnitIdealError) as exc:
        report = repr(exc)
    return report, [str(b) for i in range(4) for b in homology_basis(kz, i)]


def test_shared_tables_answer_alike_in_any_trim_order():
    """Siblings fill and read their family's normal-form tables, held for
    the whole order, in whatever order they come: the trims of one family,
    in `table` order, reversed and in a seeded shuffle, give the same record
    and the same representatives as a trim of a fresh family each.  g_m for
    m = 3..8 over F_2, F_3 and F_32003 and m = 3..6 over Q, and 8 random
    artinian ideals per field, whose generators of mixed degree vary deg g."""
    for char, top in ((2, 8), (3, 8), (32003, 8), (0, 6)):
        fld, rng = helpers.field(char), random.Random(helpers.SEED + char)
        families = [lambda m=m: gorenstein_ideal(m, fld) for m in range(3, top + 1)]
        for _ in range(8):
            gens = helpers.random_artinian_ideal(rng, fld).generators
            families.append(lambda gens=gens: Ideal(gens, fld))
        for make in families:
            n = len(make().generators)
            fresh = [_outcome(ideals.trim(make(), k)) for k in range(n)]
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for order in (range(n), range(n - 1, -1, -1), shuffled):
                family = make()
                ring = family.quotient_ring()  # held, so the siblings share its tables
                for k in order:
                    assert _outcome(ideals.trim(family, k)) == fresh[k], (char, family, k)
                assert family.quotient_ring() is ring


def _built_with_d3_count(ring, monkeypatch):
    """(KoszulComplex of ring, {internal degree d: d_3 columns built while
    the homology was built}, {d: d_3 image rank} for each d_3 elimination)."""
    columns, images = {}, {}
    build, boundaries = KoszulComplex._diff_column, KoszulComplex._boundaries

    def counted(kz, i, d, k):
        if i == 3:
            columns[d] = columns.get(d, 0) + 1
        return build(kz, i, d, k)

    def recorded(kz, i, d):
        image = boundaries(kz, i, d)
        assert i == 2 and d not in images, (i, d)  # one d_3 elimination per degree
        images[d] = image.rank
        return image

    with monkeypatch.context() as patch:
        patch.setattr(KoszulComplex, "_diff_column", counted)
        patch.setattr(KoszulComplex, "_boundaries", recorded)
        kz = KoszulComplex(ring)
    return kz, columns, images


def test_homology_skips_follow_socle_and_generator_degrees(monkeypatch):
    """What the build eliminated: d_3 only in the degrees where A_2 has a
    class, H_0 only in degree 0, H_1 only in generator degrees, and the H_3
    entries hold the socle representatives alone, no d_3 column.  Each d_3
    elimination is whole: it holds all component_size(3, d) columns, and its
    rank is that of d_3, component_size(3, d) - h_3.  The trims' rings are
    walked, so their complexes build what is checked."""
    rng = random.Random(helpers.SEED + 14)
    rings = [helpers.walked_ring(helpers.trim_ideal(m, label))
             for m in range(2, 7) for label in selector_labels(m)]
    rings += [helpers.family_ideal(m).quotient_ring() for m in range(2, 7)]
    rings += [helpers.random_artinian_ideal(rng, helpers.field(char)).quotient_ring()
              for char in (2, 3, 32003, 0) for _ in range(10)]
    for ring in rings:
        kz, columns, images = _built_with_d3_count(ring, monkeypatch)
        assert set(images) == {d for d, _ in kz._reps[2]}, ring.ideal
        assert set(columns) <= set(images), ring.ideal
        for d, rank in images.items():
            size = kz.component_size(3, d)
            assert columns.get(d, 0) == size, (ring.ideal, d)
            assert rank == size - len(ring.socle(d - 3)), (ring.ideal, d)
        gen_degrees = {g.degree() for g in ring.ideal.generators}
        for (i, d), space in kz._classes.items():
            assert i != 0 or d == 0, ring.ideal
            assert i != 1 or d in gen_degrees, ring.ideal
            if i == 3:
                assert space.rank == len(ring.socle(d - 3)), ring.ideal
                assert all(tags for _, tags in space.rows.values()), ring.ideal


def test_d3_columns_only_under_a_live_h2(monkeypatch):
    """At m = 14 the d trim, its ring walked from its own generators, builds
    196 d_3 columns, all in degrees where A_2 has a class; with d_3 run
    wherever the staircase had a corner it built 730."""
    ring = helpers.walked_ring(trimmed_ideal(TrimChoice(14, "d"), F))
    _, columns, _ = _built_with_d3_count(ring, monkeypatch)
    assert sum(columns.values()) <= 196


def test_pivot_at_last_column_keeps_bases_with_less_fill():
    """Rows pivot at their last column: the A_1 space of the m = 14 d trim in
    internal degree 15 holds at most 640 row entries (1,070 when rows pivoted
    at their first column), and the representatives are the same strings,
    frozen by sha256 over every `homology_basis(i)`, one per line.  The
    rings are walked from the trims' generators: a derived ring has other
    representatives."""
    frozen = {
        (3, "d"): "4391476bc6421157645eef272cf616cce42b3ac0f708363693738b1008a4bdca",
        (4, "x2"): "56dfa6da66eb66e8a7e54e4bb33a5c2a1e89c2abcdaed749fa5b137375877a7c",
        (14, "d"): "ebb3e851a190de3460f2985790cfa60c1e6e684d7d974e9874f2651898752f83",
    }
    for (m, sel), digest in frozen.items():
        kz = KoszulComplex(helpers.walked_ring(helpers.trim_ideal(m, sel)))
        text = "\n".join(str(b) for i in range(4) for b in homology_basis(kz, i))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (m, sel)
    rows = kz._classes[(1, 15)].rows.values()
    assert sum(len(row) for row, _ in rows) <= 640


def test_degree_without_homology_checks_cycles():
    kz = helpers.koszul(4, "d")
    for i in (1, 2):
        d = next(d for d in range(kz.ring.top_degree + 4)
                 if (i, d) not in kz._classes and kz.component_size(i, d)
                 and kz.component_size(i + 1, d))
        basis = [element(kz, i, {d: {k: F.one}})
                 for k in range(kz.component_size(i, d))]
        non_cycle = next(el for el in basis if not is_cycle(kz, el))
        with pytest.raises(ValueError, match="element is not a cycle"):
            class_coords(kz, non_cycle)
        boundary = next(b for b in (differential(kz, element(kz, i + 1, {d: {k: F.one}}))
                                    for k in range(kz.component_size(i + 1, d)))
                        if not b.is_zero())
        assert class_coords(kz, boundary) == [F.zero] * kz.ranks()[i]


def test_classify_path_makes_no_heap_reduction(monkeypatch):
    """The quotient ring (derived from the family's), homology, products and
    the class read normal forms from tables; the heap reduction against the
    Groebner basis is not called, and no divisor index (`_Reducers`) is built."""
    ideal = trimmed_ideal(TrimChoice(6, "d"), F)
    ideal._parent[0].groebner_basis()  # the family's Buchberger reduces S-polynomials
    calls, built = [], []
    heap, reducers = ideals._normal_form_terms, ideals._Reducers

    def counted(*args):
        calls.append(args)
        return heap(*args)

    class Counted(reducers):
        def __init__(self, entries=()):
            built.append(1)
            super().__init__(entries)

    monkeypatch.setattr(ideals, "_normal_form_terms", counted)
    monkeypatch.setattr(ideals, "_Reducers", Counted)
    kz = KoszulComplex(ideal.quotient_ring())
    kz.invariants()
    assert kz.classify().display() == "G(10)"
    assert len(calls) == 0 and len(built) == 0
    ideal.groebner_basis()  # the trim's own, built for normal forms only, by Buchberger
    calls.clear()
    assert helpers.normal_form(ideal, X ** 6).is_zero() and len(calls) == 1  # the wrapper counts


def test_homology_basis_elements_are_cycles_not_boundaries():
    for kz in (helpers.koszul(2), helpers.koszul(3, "x1")):
        for i in range(4):
            basis = homology_basis(kz, i)
            assert len(basis) == kz.ranks()[i]
            coords = []
            for b in basis:
                assert helpers.koszul_differential(kz.ring.ideal, b).is_zero()
                assert is_cycle(kz, b)
                assert not is_boundary(kz, b)
                coords.append(class_coords(kz, b))
            assert span_rank(coords, kz.ranks()[i], F) == len(basis)


# ---- products in homology --------------------------------------------------------

def test_unit_class_acts_as_identity():
    kz = helpers.koszul(2, "x1")
    one = homology_basis(kz, 0)[0]
    for i in (1, 2, 3):
        for k, b in enumerate(homology_basis(kz, i)):
            coords = multiply(kz, one, b)
            expected = [F.zero] * kz.ranks()[i]
            expected[k] = F.one
            assert coords == expected


def test_multiply_rejects_bad_input():
    kz = helpers.koszul(2)
    one = Polynomial.constant(F, 1)
    not_cycle = KoszulElement(1, {E_X: one})  # boundary of e_x is x, nonzero in R
    cycle2 = homology_basis(kz, 2)[0]
    with pytest.raises(ValueError):
        multiply(kz, not_cycle, cycle2)
    with pytest.raises(ValueError):
        multiply(kz, cycle2, cycle2)  # lands beyond the top exterior degree
    with pytest.raises(ValueError):
        class_coords(kz, not_cycle)


def test_class_product_rejects_bad_indices():
    """Exterior degrees outside 0..3, or past 3 in sum, are a ValueError (the
    sum with `helpers.wedge`'s and `multiply`'s message); a class index outside
    0..n-1, negatives included, is an IndexError, never another class."""
    kz = helpers.koszul(3, "d")
    n = kz.ranks()
    for i, j in ((1, 3), (4, 0), (0, 4), (2, 2)):
        with pytest.raises(ValueError, match="^product lands beyond exterior degree 3$"):
            kz.class_product(i, 0, j, 0)
    for i, j in ((-1, 1), (1, -1), (-1, 4)):
        with pytest.raises(ValueError, match="not in 0..3"):
            kz.class_product(i, 0, j, 0)
    for s, t in ((-1, 0), (0, -1), (n[1], 0), (0, n[2])):
        with pytest.raises(IndexError):
            kz.class_product(1, s, 2, t)


def test_exterior_degrees_outside_0_to_3_are_rejected():
    """Every entry point of the element routines in `helpers` refuses an
    exterior degree of -1 or 4 with one ValueError, empty elements included:
    none reads a neighbouring A_i by negative indexing, answers as if the
    element were a cycle or ends in another error."""
    kz = helpers.koszul(3, "d")
    b = homology_basis(kz, 3)[0]
    for i in (-1, 4):
        bad = KoszulElement(i, {})
        calls = [lambda: element(kz, i, {}), lambda: homology_basis(kz, i)]
        calls += [functools.partial(call, kz, bad) for call in (
            reduce_element, differential, is_cycle, class_coords, is_boundary, annihilates_a1)]
        calls += [functools.partial(call, kz, *args) for call in (wedge, multiply)
                  for args in ((bad, b), (b, bad))]
        for call in calls:
            with pytest.raises(ValueError, match=f"^exterior degree {i} is not in 0..3$"):
                call()


def test_elements_with_foreign_words_are_rejected():
    """A word that is not sorted distinct letters of the element's exterior
    degree is refused on the way into coordinates, not read as another
    element."""
    kz = helpers.koszul(3, "d")
    cycle = homology_basis(kz, 1)[0]
    for word in (E_XY, (1, 0), (0, 0)):
        bad = KoszulElement(1, {word: X})
        for call in (is_cycle, reduce_element, class_coords,
                     lambda kz, el: multiply(kz, el, cycle)):
            with pytest.raises(ValueError, match="not one of exterior degree 1"):
                call(kz, bad)


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


# ---- explicit cycles for the trims ------------------------------------------------

def test_cycle_basis_spans_degree_one_homology():
    for m, sel in ((3, "x0"), (3, "x1"), (3, "d"), (3, "y0"), (4, "x2")):
        kz = helpers.koszul(m, sel)
        cycles = a1_cycle_basis(TrimChoice(m, sel), kz)
        mu = kz.ranks()[1]
        assert len(cycles) == mu
        coords = [class_coords(kz, c) for c in cycles]
        assert span_rank(coords, mu, F) == mu


def test_annihilator_cycle_properties():
    for m, sel in ((3, "x0"), (3, "x2"), (3, "d"), (3, "y1"), (4, "d")):
        kz = helpers.koszul(m, sel)
        f = a1_annihilator_cycle(TrimChoice(m, sel), kz)
        assert is_cycle(kz, f)
        assert not is_boundary(kz, f)
        assert annihilates_a1(kz, f)


def test_annihilator_cycles_frozen():
    """One formula in the ladder position k for both sides: frozen over
    F_32003 at m = 4; x0 gives -y^(m-1) e_yz, the i = 0 case of the x-side."""
    expected = {
        "x0": "(-y^3)*e_yz",
        "x1": "(y^3)*e_xy + (y^2*z)*e_yz",
        "x2": "(y^2*z)*e_xy + (-x*y^2 + y*z^2)*e_yz",
        "x3": "(x*y^2 - y*z^2)*e_xy + (2*x*y*z - z^3)*e_yz",
        "d": "(2*x*y*z - z^3)*e_xy",
        "y3": "(x^2*y - x*z^2)*e_xy + (-2*x*y*z + z^3)*e_xz",
        "y2": "(x^2*z)*e_xy + (x^2*y - x*z^2)*e_xz",
        "y1": "(x^3)*e_xy + (-x^2*z)*e_xz",
        "y0": "(x^3)*e_xz",
    }
    assert list(expected) == selector_labels(4)
    for sel, text in expected.items():
        choice = TrimChoice(4, sel)
        assert str(a1_annihilator_cycle(choice, helpers.koszul(4, sel))) == text, sel


def test_cycle_checks_and_products_stay_on_coordinates(monkeypatch):
    """The package multiplies classes and checks cycles on table coordinates:
    with `Polynomial.__init__` refusing to run, `class_product` gives, for
    every A_1 x A_1 and A_1 x A_2 pair of basis classes, the class that
    `helpers.multiply` gave before, and `_class_coords` refuses the
    coordinates of a non-cycle in a degree where A_1 has classes.  The
    helpers' cycle checks stay on coordinates too, and `annihilates_a1`
    tells the annihilator cycle from the classes that A_1 does not kill."""
    kz = helpers.koszul(4, "d")
    a1, a2 = homology_basis(kz, 1), homology_basis(kz, 2)
    f = a1_annihilator_cycle(TrimChoice(4, "d"), kz)
    not_cycle = KoszulElement(1, {E_X: Polynomial.constant(F, 1)})
    pairs = [(1, s, j, t) for s in range(len(a1)) for j in (1, 2)
             for t in range(len(a1 if j == 1 else a2))]
    products = [multiply(kz, a1[s], (a1 if j == 1 else a2)[t]) for _, s, j, t in pairs]
    annihilated = [not any(any(multiply(kz, u, v)) for u in a1) for v in a1 + a2]
    assert False in annihilated
    assert annihilates_a1(kz, f)
    assert [annihilates_a1(kz, v) for v in a1 + a2] == annihilated
    d = kz._reps[1][0][0]
    units = ({d: {k: F.one}} for k in range(kz.component_size(1, d)))
    outside = next(vec for vec in units if not is_cycle(kz, element(kz, 1, vec)))

    def refuse(*args, **kwargs):
        raise AssertionError("left the coordinates")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    assert [kz.class_product(*pair) for pair in pairs] == products
    with pytest.raises(ValueError, match="not a cycle"):
        kz._class_coords(1, outside)
    assert all(is_cycle(kz, b) for b in a1 + a2 + [f]) and not is_cycle(kz, not_cycle)
    with pytest.raises(ValueError, match="cycles only"):
        multiply(kz, not_cycle, a2[0])
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
    ranks are (1, 2n, 2n+1, 2), while over F_3 and F_2 a trim can have a
    larger A_1 (over F_2, 2 of the 14 trims at n = 3 have ranks (1, 7, 8, 2)
    and class G(4), and 1 of the 18 at n = 4 has (1, 9, 10, 2) and G(6)).  At
    n = 2, where mu(g) = 5, the trims over F_32003 have the H(3,2) pattern of
    the m = 2 family; over F_2 and F_3 some are B instead, so n = 2 is
    checked over F_32003 only."""
    for char, n in [(32003, 2)] + [(c, n) for c in (32003, 3, 0, 2) for n in (3, 4)]:
        for draw in range(2):
            rng = random.Random(helpers.SEED + 100 * n + draw)
            ideal, _ = helpers.random_pfaffian_ideal(rng, helpers.field(char), n)
            for k in range(2 * n + 1):
                kz = KoszulComplex(ideals.trim(ideal, k).quotient_ring())
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
    """Opt-in (`pytest -m slow`): every trim at m = 16 and 24 and the d trim
    at m = 32 and 48 pass `pd_padding` with rank P_1 = r and padding
    (3, 4, 1), and `helpers.a1_cycle_basis` gives mu cycles spanning A_1.  Every
    trim's homology is derived from its family's complex: the 49 trims at
    m = 24 are made as `table` makes them, from one g_24 with its complex
    passed, and each other trim builds its family's complex itself."""
    g24 = gorenstein_ideal(24, F)
    g24_complex = KoszulComplex(g24.quotient_ring())
    for m, label in ([(m, label) for m in (16, 24) for label in selector_labels(m)]
                     + [(32, "d"), (48, "d")]):
        choice = TrimChoice(m, label)
        if m == 24:
            kz = KoszulComplex(ideals.trim(g24, choice.index).quotient_ring(), g24_complex)
        else:
            kz = KoszulComplex(trimmed_ideal(choice, F).quotient_ring())
        assert helpers.pd_padding(kz) == ([], kz.classify().params["r"], (3, 4, 1)), (m, label)
        mu, cycles = kz.ranks()[1], a1_cycle_basis(choice, kz)
        assert len(cycles) == mu, (m, label)
        assert span_rank([class_coords(kz, c) for c in cycles], mu, F) == mu, (m, label)


def test_hand_built_cycles_need_m_at_least_three():
    """`helpers.a1_cycle_basis` is built from the generators, so it covers m = 2 too
    (mu = 5, 4, 5, 4, 5); only the annihilator cycle's formulas need m >= 3."""
    for label in selector_labels(2):
        kz = helpers.koszul(2, label)
        cycles, mu = a1_cycle_basis(TrimChoice(2, label), kz), kz.ranks()[1]
        assert len(cycles) == mu, label
        assert span_rank([class_coords(kz, c) for c in cycles], mu, F) == mu, label
    with pytest.raises(ValueError, match="annihilator cycle"):
        a1_annihilator_cycle(TrimChoice(2, "d"), helpers.koszul(2, "d"))
