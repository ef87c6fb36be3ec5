"""Acceptance gate: the headline results, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every check is exact (integer/field arithmetic, no tolerances); randomized
suites print their fixed seed.
"""

import math
import random

import helpers
from gtrim import (
    Ideal,
    KoszulComplex,
    Polynomial,
    TrimChoice,
    build_u,
    build_v,
    canonical_generators,
    d_poly,
    family_hilbert,
    report_dict,
    variables,
)
from gtrim.poly import monomials_of_degree
from helpers import (
    KoszulElement,
    a1_annihilator_cycle,
    a1_cycle_basis,
    annihilates_a1,
    class_coords,
    colon_by_maximal,
    contains,
    delete_row_col,
    det_bareiss,
    is_interior,
    matrix_rank,
    minimal_generators,
    multiply,
    same_ideal,
    selector_labels,
    socle_basis,
    span_rank,
    sub_pfaffian,
)


def passed(num, message):
    print(f"PASS {num:02d} {message} (tolerance: exact)")


def closed_form_oracle(m, fld):
    out = Polynomial.zero(fld)
    for j in range(m // 2 + 1):
        sign = -1 if ((m - 2 * j) // 2) % 2 else 1
        out = out + helpers.monomial(fld, (j, j, m - 2 * j),
                                     sign * math.comb(m - j, j))
    return out


def hilbert_oracle(m):
    """Per-degree dimensions of the family quotient, from binomials alone."""
    coeffs = [0] * (2 * m - 1)
    for i in range(m - 1):
        coeffs[i] += math.comb(i + 2, 2)
        coeffs[2 * m - 2 - i] += math.comb(i + 2, 2)
    coeffs[m - 1] += math.comb(m + 1, 2)
    return coeffs


def proportional(f, g):
    return not f.is_zero() and not g.is_zero() and \
        f.scale(g.leading_coeff()) == g.scale(f.leading_coeff())


# ---- per-criterion check bodies (shared with the cross-characteristic rerun) ----

def check_family(char):
    """mu, Hilbert function, type and socle generator of the family quotients."""
    fld = helpers.field(char)
    results = []
    for m in range(2, 7):
        ideal = helpers.family_ideal(m, char)
        _, mu = minimal_generators(ideal)
        assert mu == 2 * m + 1, (m, mu)
        hilbert = list(ideal.quotient_ring().hilbert().coefficients)
        assert hilbert == hilbert_oracle(m), (m, hilbert)
        assert family_hilbert(m) == hilbert
        socle = socle_basis(ideal)
        assert socle.type_rank == 1, (m, socle.type_rank)
        x, y, _ = variables(fld)
        witness = helpers.normal_form(ideal, x ** (m - 1) * y ** (m - 1))
        assert witness.degree() == 2 * m - 2
        assert proportional(socle.basis[0], witness), m
        results.append((m, mu, hilbert))
    return results


def check_trims_m3_to_m5(char):
    """Classes of every trim selector for m = 3, 4, 5."""
    results = []
    for m in (3, 4, 5):
        for label in selector_labels(m):
            choice = TrimChoice(m, label)
            report = report_dict(helpers.koszul(m, label, char))
            assert report["type"] == 2, (m, label, report)
            assert report["gorenstein"] is False
            if is_interior(choice):
                assert report["mu"] == 2 * m, (m, label, report)
                assert (report["class"], report["class_params"]) == \
                    ("G", {"r": 2 * m - 3}), (m, label, report)
            else:
                assert report["mu"] == 2 * m + 1, (m, label, report)
                assert (report["class"], report["class_params"]) == \
                    ("G", {"r": 2 * m - 2}), (m, label, report)
            results.append((m, label, report["mu"], report["p"], report["q"],
                            report["r"], report["class"]))
    realized = {r for (_, _, _, _, _, r, _) in results}
    assert realized == {3, 4, 5, 6, 7, 8}, realized
    return results


def check_trims_m2(char):
    """The five m = 2 trims: two of class H(3,2), three of class B."""
    results = []
    for label in ("x0", "x1", "d", "y1", "y0"):
        report = report_dict(helpers.koszul(2, label, char))
        pqr = (report["p"], report["q"], report["r"])
        if label in ("x1", "y1"):
            assert report["mu"] == 4, (label, report)
            assert report["class"] == "H", (label, report)
            assert report["class_params"] == {"p": 3, "q": 2}, (label, report)
        else:
            assert report["mu"] == 5, (label, report)
            assert report["class"] == "B", (label, report)
            assert pqr == (1, 1, 2), (label, report)
        results.append((label, report["mu"], pqr, report["class"]))
    return results


# ---- the ten criteria ------------------------------------------------------------

def test_01_band_determinant_routes_agree():
    for char in (32003, 0):
        fld = helpers.field(char)
        x, y, z = variables(fld)
        assert d_poly(-1, fld).is_zero()
        assert d_poly(0, fld) == closed_form_oracle(0, fld)
        for m in range(1, 11):
            d = d_poly(m, fld)
            assert d == det_bareiss(build_u(m, fld)), (char, m)
            assert d == closed_form_oracle(m, fld), (char, m)
            sign = 1 if m % 2 else -1
            assert d == sign * (z * d_poly(m - 1, fld)) + x * y * d_poly(m - 2, fld), (char, m)
    frozen = {1: "z", 2: "x*y - z^2", 3: "2*x*y*z - z^3",
              4: "x^2*y^2 - 3*x*y*z^2 + z^4"}
    for m, text in frozen.items():
        assert d_poly(m, helpers.field()).to_text() == text
    passed(1, "band determinant: d_m equals the Bareiss determinant of U_m, the "
              "binomial oracle and the recurrence for m=0..10 over F_32003 and Q; "
              "m=1..4 displays frozen")


def test_02_sub_pfaffians_square_to_minors():
    for char in (32003, 0):
        fld = helpers.field(char)
        x, y, _ = variables(fld)
        for m in range(1, 11):
            V = build_v(m, fld)
            for i in range(1, 2 * m + 2):
                pf = sub_pfaffian(V, i)
                assert pf * pf == det_bareiss(delete_row_col(V, i - 1)), (char, m, i)
                if i <= m:
                    expected = y ** (m - i + 1) * d_poly(i - 1, fld)
                elif i == m + 1:
                    expected = d_poly(m, fld)
                else:
                    expected = x ** (i - m - 1) * d_poly(2 * m + 1 - i, fld)
                assert pf == expected or pf == -expected, (char, m, i)
    passed(2, "sub-Pfaffians: squares equal the Bareiss principal minors and match "
              "the x/y-power times band-determinant closed forms, m=1..10 over "
              "F_32003 and Q, all positions")


def test_03_family_mu_hilbert_type_socle():
    check_family(32003)
    passed(3, "family quotients m=2..6: mu=2m+1, Hilbert function matches the "
              "binomial closed form, type 1, socle spanned by x^(m-1)*y^(m-1)")


def test_04_trim_classes_for_m3_to_m5():
    results = check_trims_m3_to_m5(32003)
    passed(4, f"trims m=3..5, all {len(results)} selectors: type 2, interior mu=2m "
              "with class G(2m-3), endpoints mu=2m+1 with class G(2m-2); "
              "classes G(3)..G(8) all realized, all non-Gorenstein")


def test_05_trim_classes_for_m2():
    check_trims_m2(32003)
    passed(5, "trims m=2: x*z and y*z give mu=4 class H(3,2); x^2, y^2 and "
              "x*y-z^2 give mu=5 class B with (p,q,r)=(1,1,2)")


def test_06_trimming_complete_intersection():
    ideal = helpers.trimmed_power_ci()
    report = report_dict(KoszulComplex(ideal.quotient_ring()))
    assert report["mu"] == 5, report
    assert report["class"] == "B", report
    assert report["type"] == 2 and report["gorenstein"] is False
    passed(6, "trimming x^2 out of the complete intersection (x^2,y^2,z^2): "
              "mu=5, class B")


def test_07_homology_rank_table():
    trimmed = [(m, label) for m in (3, 4, 5) for label in selector_labels(m)]
    trimmed += [(2, label) for label in selector_labels(2)]
    for m, label in trimmed:
        kz = helpers.koszul(m, label)
        mu = kz.ranks()[1]
        assert kz.ranks() == (1, mu, mu + 1, 2), (m, label, kz.ranks())
    ci_kz = KoszulComplex(helpers.trimmed_power_ci().quotient_ring())
    assert ci_kz.ranks() == (1, 5, 6, 2)
    for m in range(2, 7):
        kz = helpers.koszul(m)
        assert kz.ranks() == (1, 2 * m + 1, 2 * m + 1, 1), m
        rows = helpers.delta_rows(kz)
        assert matrix_rank(rows, 2 * m + 1, kz.field) == kz.invariants().r == 2 * m + 1, m
    passed(7, "homology ranks: every trimmed instance (1, mu, mu+1, 2) with Euler "
              "characteristic 0; family m=2..6 (1, 2m+1, 2m+1, 1) with the "
              "degree-two pairing map of full rank 2m+1")


def test_08_explicit_cycles_span_and_annihilate():
    checked = 0
    for m in (3, 4):
        for label in selector_labels(m):
            choice = TrimChoice(m, label)
            kz = helpers.koszul(m, label)
            mu = kz.ranks()[1]
            cycles = a1_cycle_basis(choice, kz)
            assert len(cycles) == mu
            coords = [class_coords(kz, c) for c in cycles]
            assert span_rank(coords, mu, kz.field) == mu, (m, label)
            special = a1_annihilator_cycle(choice, kz)
            assert not helpers.is_boundary(kz, special), (m, label)
            assert annihilates_a1(kz, special), (m, label)
            g = canonical_generators(m, kz.field)[choice.index]
            multiples = [helpers.reduce_element(kz, KoszulElement(2, {w: g}))
                         for w in ((0, 1), (0, 2), (1, 2))]
            g_coords = []
            for el in multiples:
                assert helpers.is_cycle(kz, el)
                assert annihilates_a1(kz, el), (m, label)
                g_coords.append(class_coords(kz, el))
            assert span_rank(g_coords, kz.ranks()[2], kz.field) == 3, (m, label)
            checked += 1
    passed(8, f"explicit degree-1 cycle bases and annihilator cycles verified for "
              f"{checked} trimmed instances (m=3,4, every selector); the three "
              "classes of g*e_ab are independent and multiply A_1 to zero")


def test_09_property_suites():
    rng = random.Random(helpers.SEED)
    fld = helpers.field()
    x, y, z = variables(fld)

    # normal-form idempotence and linearity
    pool = [helpers.family_ideal(2), helpers.family_ideal(3),
            helpers.trim_ideal(2, "x1"), helpers.trim_ideal(3, "d"),
            Ideal([x * x, y * y, z * z])]
    for _ in range(500):
        ideal = pool[rng.randrange(len(pool))]
        f = helpers.random_poly(rng, fld, max_degree=4)
        g = helpers.random_poly(rng, fld, max_degree=4)
        nf = helpers.normal_form(ideal, f)
        assert helpers.normal_form(ideal, nf) == nf
        assert contains(ideal, f - nf)
        assert helpers.normal_form(ideal, f + g) == nf + helpers.normal_form(ideal, g)

    # membership soundness on random generator combinations
    for _ in range(500):
        ideal = pool[rng.randrange(len(pool))]
        h = Polynomial.zero(fld)
        for gen in ideal.generators:
            h = h + helpers.random_poly(rng, fld, max_degree=2) * gen
        assert contains(ideal, h)
        level = ideal.quotient_ring().basis(1)
        outside = helpers.monomial(fld, level[rng.randrange(len(level))])
        assert not contains(ideal, h + outside)

    # homology products: representative independence under boundary shifts
    complexes = [helpers.koszul(2), helpers.koszul(2, "x1"), helpers.koszul(2, "d"),
                 helpers.koszul(3, "d"), helpers.koszul(3, "x1")]
    for _ in range(500):
        kz = complexes[rng.randrange(len(complexes))]
        i = rng.choice([1, 1, 1, 2])
        j = rng.choice([1, 2]) if i == 1 else 1
        u = helpers.random_cycle(rng, kz, i)
        v = helpers.random_cycle(rng, kz, j)
        base = multiply(kz, u, v)
        w = helpers.random_element(rng, kz, i + 1)
        assert multiply(kz, u + helpers.differential(kz, w), v) == base

    # graded commutativity and vanishing odd squares
    for _ in range(500):
        kz = complexes[rng.randrange(len(complexes))]
        i = rng.choice([1, 1, 2])
        j = rng.choice([1, 2]) if i == 1 else 1
        u = helpers.random_cycle(rng, kz, i)
        v = helpers.random_cycle(rng, kz, j)
        vu = multiply(kz, v, u)
        expect = vu if (i * j) % 2 == 0 else [fld.neg(c) for c in vu]
        assert multiply(kz, u, v) == expect
        if i == 1:
            assert all(fld.is_zero(c) for c in multiply(kz, u, u))

    # colon by the maximal ideal against the brute-force degreewise kernel
    instances = helpers.small_instances()
    for label, ideal in instances:
        assert ideal.quotient_ring().dim() <= 100, label
        assert same_ideal(helpers.colon_oracle(ideal), colon_by_maximal(ideal)), label
    randomized = 0
    for _ in range(500):
        gens = [x ** rng.randint(1, 3), y ** rng.randint(1, 3), z ** rng.randint(1, 3)]
        for _ in range(rng.randrange(3)):
            gens.append(helpers.random_form(rng, fld, rng.randint(2, 3)))
        ideal = Ideal(gens)
        assert ideal.quotient_ring().dim() <= 100
        assert same_ideal(helpers.colon_oracle(ideal), colon_by_maximal(ideal))
        randomized += 1
    passed(9, "property suites, seed "
              f"{helpers.SEED}: normal-form idempotence (500), membership "
              "soundness (500), representative independence (500), graded "
              f"commutativity (500), colon oracle ({len(instances)} suite "
              f"instances + {randomized} random ideals, all dim <= 100)")


def test_10_rational_coefficients_match_prime_field():
    assert check_family(0) == check_family(32003)
    assert check_trims_m3_to_m5(0) == check_trims_m3_to_m5(32003)
    assert check_trims_m2(0) == check_trims_m2(32003)
    passed(10, "family and trim results for m=2..6 agree verbatim over F_32003 "
               "and over the rationals")


def test_consistency_sweep_small_mu_instances():
    """No computed instance pairs mu=5 and p=0 with a non-Gorenstein class G."""
    reports = []
    for m, label in [(2, sel) for sel in selector_labels(2)] + \
                    [(m, sel) for m in (3, 4, 5) for sel in selector_labels(m)]:
        reports.append(report_dict(helpers.koszul(m, label)))
    reports.append(report_dict(KoszulComplex(helpers.trimmed_power_ci().quotient_ring())))
    for m in range(2, 7):
        reports.append(report_dict(helpers.koszul(m)))
    offenders = [r for r in reports
                 if r["mu"] == 5 and r["p"] == 0 and not r["gorenstein"]
                 and r["class"] == "G" and r["r"] >= 2]
    assert not offenders
    print(f"PASS -- consistency sweep over {len(reports)} classified instances: "
          "none pairs mu=5, p=0 with a non-Gorenstein class G (tolerance: exact)")
