"""Band matrices, their determinants and Pfaffians, and the trim selectors."""

import math
import random

import pytest

import helpers
from gtrim import (
    Ideal,
    Polynomial,
    PolyMatrix,
    PfaffianFamily,
    TrimChoice,
    build_u,
    build_v,
    canonical_generators,
    d_poly,
    family_hilbert,
    gorenstein_ideal,
    trim,
    trimmed_ideal,
    variables,
)
from gtrim.errors import QuotientTooLargeError
from gtrim.pfaffians import check_family_size, family_dim, selector_index
from gtrim.poly import mono_mul, monomials_of_degree
from helpers import (
    all_sub_pfaffians,
    delete_row_col,
    det_bareiss,
    is_interior,
    is_skew_symmetric,
    pfaffian,
    selector_labels,
    sub_pfaffian,
)

F = helpers.field()
X, Y, Z = variables(F)


def closed_form_oracle(m, fld):
    """Independent evaluation of the band determinant's closed form."""
    out = Polynomial.zero(fld)
    for j in range(m // 2 + 1):
        sign = -1 if ((m - 2 * j) // 2) % 2 else 1
        out = out + helpers.monomial(fld, (j, j, m - 2 * j),
                                        sign * math.comb(m - j, j))
    return out


# ---- the band matrices -------------------------------------------------------

def test_u_frozen_displays():
    assert build_u(1, F).to_strings() == [["z"]]
    assert build_u(2, F).to_strings() == [["x", "z"], ["z", "y"]]
    assert build_u(3, F).to_strings() == [
        ["0", "x", "z"], ["x", "z", "y"], ["z", "y", "0"]]
    assert build_u(4, F).to_strings() == [
        ["0", "0", "x", "z"], ["0", "x", "z", "y"],
        ["x", "z", "y", "0"], ["z", "y", "0", "0"]]


def test_u_is_symmetric_band():
    for m in range(1, 8):
        U = build_u(m, F)
        assert (len(U.entries), helpers.cols(U)) == (m, m)
        assert all(U.entries[i][j] == U.entries[j][i] for i in range(m) for j in range(m))


def test_v_frozen_displays():
    assert build_v(1, F).to_strings() == [
        ["0", "x", "z"], ["-x", "0", "y"], ["-z", "-y", "0"]]
    assert build_v(2, F).to_strings() == [
        ["0", "0", "0", "x", "z"],
        ["0", "0", "x", "z", "y"],
        ["0", "-x", "0", "y", "0"],
        ["-x", "-z", "-y", "0", "0"],
        ["-z", "-y", "0", "0", "0"]]


def test_v_shape_and_skew_symmetry():
    for m in range(1, 7):
        V = build_v(m, F)
        assert (len(V.entries), helpers.cols(V)) == (2 * m + 1, 2 * m + 1)
        assert is_skew_symmetric(V)
        # upper-right m x m corner is the symmetric band matrix
        U = build_u(m, F)
        for i in range(m):
            for j in range(m):
                assert V.entries[i][m + 1 + j] == U.entries[i][j]
        assert V.entries[m - 1][m] == X
        assert V.entries[m][m + 1] == Y


# ---- the determinant family ---------------------------------------------------

def test_d_frozen_displays():
    assert d_poly(0, F).to_text() == "1"
    assert d_poly(1, F).to_text() == "z"
    assert d_poly(2, F).to_text() == "x*y - z^2"
    assert d_poly(3, F).to_text() == "2*x*y*z - z^3"
    assert d_poly(4, F).to_text() == "x^2*y^2 - 3*x*y*z^2 + z^4"
    assert d_poly(5, F).to_text() == "3*x^2*y^2*z - 4*x*y*z^3 + z^5"


def test_d_three_routes_and_oracle():
    # closed form, Bareiss determinant of U_m and the test-side binomial sum
    for fld in (F, helpers.field(0)):
        assert d_poly(0, fld) == closed_form_oracle(0, fld)
        for m in range(1, 11):
            assert d_poly(m, fld) == det_bareiss(build_u(m, fld))
            assert d_poly(m, fld) == closed_form_oracle(m, fld)


def test_d_recurrence_identity():
    for fld in (F, helpers.field(0)):
        x, y, z = variables(fld)
        for m in range(1, 11):
            sign = 1 if (m - 1) % 2 == 0 else -1
            assert d_poly(m, fld) == \
                sign * (z * d_poly(m - 1, fld)) + x * y * d_poly(m - 2, fld)


def test_d_rejects_bad_input():
    assert d_poly(-1, F).is_zero()
    with pytest.raises(ValueError):
        d_poly(-2, F)


# ---- Pfaffians ------------------------------------------------------------------

def test_pfaffian_small_cases():
    zero = Polynomial.zero(F)
    assert pfaffian(PolyMatrix.from_rows([[zero, X], [-X, zero]])) == X
    a, b, c = X, Y, Z
    d, e, f = X + Y, Y + Z, X * Y
    M = PolyMatrix.from_rows([
        [zero, a, b, c], [-a, zero, d, e], [-b, -d, zero, f], [-c, -e, -f, zero]])
    assert pfaffian(M) == a * f - b * e + c * d


def test_pfaffian_squares_to_determinant_random():
    # the memoized expansion shares minors between branches; dense random
    # entries make every branch and every shared minor count
    rng = random.Random(helpers.SEED + 5)
    zero = Polynomial.zero(F)
    for n in (2, 4, 6, 8):
        for _ in range(3):
            rows = [[zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = helpers.random_poly(rng, F, max_degree=1, max_terms=2)
                    rows[j][i] = -rows[i][j]
            M = PolyMatrix.from_rows(rows)
            pf = pfaffian(M)
            assert pf * pf == det_bareiss(M), n


def test_pfaffian_validation():
    zero = Polynomial.zero(F)
    with pytest.raises(ValueError):
        pfaffian(PolyMatrix.from_rows([[zero, X, Y], [-X, zero, Z], [-Y, -Z, zero]]))
    with pytest.raises(ValueError):
        pfaffian(PolyMatrix.from_rows([[zero, X], [X, zero]]))
    with pytest.raises(ValueError):
        pfaffian(PolyMatrix.from_rows([]))


def test_sub_pfaffian_squares_are_principal_minors():
    for m in range(1, 5):
        V = build_v(m, F)
        for i in range(1, 2 * m + 2):
            pf = sub_pfaffian(V, i)
            assert pf * pf == det_bareiss(delete_row_col(V, i - 1))


def test_pfaffian_lists_frozen():
    assert [p.to_text() for p in all_sub_pfaffians(build_v(1, F))] == ["y", "z", "x"]
    assert [p.to_text() for p in all_sub_pfaffians(build_v(2, F))] == [
        "y^2", "y*z", "-x*y + z^2", "x*z", "x^2"]
    assert [p.to_text() for p in all_sub_pfaffians(build_v(3, F))] == [
        "y^3", "y^2*z", "-x*y^2 + y*z^2", "-2*x*y*z + z^3",
        "-x^2*y + x*z^2", "x^2*z", "x^3"]


def test_family_pfaffians_equal_expansion_with_signs():
    # the ladder read backwards with signs (-1)^floor(min(k, 2m-k)/2) is
    # exactly the first-row expansion of each sub-Pfaffian, signs included
    for fld, top in ((F, 16), (helpers.field(0), 10)):
        x, y, _ = variables(fld)
        for m in range(1, top + 1):
            pfs = all_sub_pfaffians(build_v(m, fld))
            assert PfaffianFamily.build(m, fld).pfaffians == tuple(pfs), (fld, m)
            for i in range(1, 2 * m + 2):
                if i <= m:
                    expected = y ** (m - i + 1) * d_poly(i - 1, fld)
                elif i == m + 1:
                    expected = d_poly(m, fld)
                else:
                    expected = x ** (i - m - 1) * d_poly(2 * m + 1 - i, fld)
                if min(i - 1, 2 * m + 1 - i) // 2 % 2:
                    expected = -expected
                assert pfs[i - 1] == expected, (fld, m, i)


# ---- the generator ladder ---------------------------------------------------------

def test_canonical_generators_frozen():
    assert [g.to_text() for g in canonical_generators(2, F)] == [
        "x^2", "x*z", "x*y - z^2", "y*z", "y^2"]
    assert [g.to_text() for g in canonical_generators(3, F)] == [
        "x^3", "x^2*z", "x^2*y - x*z^2", "2*x*y*z - z^3",
        "x*y^2 - y*z^2", "y^2*z", "y^3"]
    assert [g.to_text() for g in canonical_generators(1, F)] == ["x", "z", "y"]
    with pytest.raises(ValueError):
        canonical_generators(0, F)


def test_generators_span_the_pfaffian_ideal():
    for m in range(2, 5):
        pf_ideal = Ideal(all_sub_pfaffians(build_v(m, F)))
        assert helpers.same_ideal(pf_ideal, helpers.family_ideal(m))


def test_family_ideal_m1_is_maximal():
    assert helpers.same_ideal(gorenstein_ideal(1, F), Ideal([X, Y, Z]))
    with pytest.raises(ValueError):
        gorenstein_ideal(0, F)


def test_family_hilbert_closed_form():
    assert family_hilbert(2) == [1, 3, 1]
    assert family_hilbert(4) == [1, 3, 6, 10, 6, 3, 1]
    for m in range(2, 7):
        h = family_hilbert(m)
        assert len(h) == 2 * m - 1
        assert h == h[::-1]
        assert h[m - 1] == math.comb(m + 1, 2)
    for m in range(2, 6):
        ring = helpers.family_ideal(m).quotient_ring()
        assert tuple(family_hilbert(m)) == ring.hilbert().coefficients


def test_apolar_functional_of_the_family():
    """R = Q/g_m is Gorenstein of socle degree D = 2m - 2, so g_m is the
    annihilator of a functional phi on the forms of degree D (Macaulay's
    inverse system).  Its closed form: phi(x^k y^k z^(D-2k)) = C_(m-1-k), the
    Catalan numbers, and phi is 0 off weight 0 (x -> +1, y -> -1, z -> 0).
    Checked from Polynomial products alone: phi(g*w) = 0 for every generator
    g and monomial w of degree D - m, and the catalecticant of phi in each
    degree j has rank family_hilbert(m)[j], which with the first gives
    g_m = Ann(phi).  The weight-0 support is an independent check of the
    grading by which `KoszulComplex` skips products.  Also, the ring's
    normal form of each degree-D monomial t is phi(t)/phi(s) times the one
    standard monomial s of degree D.  m = 2..10 over F_32003, F_2, F_3 and
    F_5, and m = 2..6 over Q."""
    for char, top in ((32003, 10), (2, 10), (3, 10), (5, 10), (0, 6)):
        fld = helpers.field(char)
        for m in range(2, top + 1):
            top_degree, case = 2 * m - 2, (char, m)

            def phi(mono):
                a, b, _ = mono
                n = m - 1 - a
                return fld.of(math.comb(2 * n, n) // (n + 1)) if a == b else fld.zero

            def phi_of(p):
                total = fld.zero
                for mono, c in p.terms.items():
                    total = fld.of(total + c * phi(mono))
                return total

            ideal = gorenstein_ideal(m, fld)
            for g in ideal.generators:
                for w in monomials_of_degree(top_degree - m):
                    assert fld.is_zero(phi_of(g * helpers.monomial(fld, w, 1))), (case, g, w)
            ranks = []
            for j in range(top_degree + 1):
                rows = [[phi(mono_mul(u, v)) for v in monomials_of_degree(top_degree - j)]
                        for u in monomials_of_degree(j)]
                ranks.append(helpers.matrix_rank(rows, len(rows[0]), fld))
            assert ranks == family_hilbert(m), case
            ring = ideal.quotient_ring()
            (s,) = ring.basis(top_degree)
            for t in monomials_of_degree(top_degree):
                c = fld.mul(phi(t), fld.inv(phi(s)))
                expected = {} if fld.is_zero(c) else {top_degree: {0: c}}
                assert helpers.coordinates(ring, helpers.monomial(fld, t, 1)) == expected, (case, t)


def test_family_size_bound():
    for m in range(1, 41):
        assert family_dim(m) == sum(family_hilbert(m))
    assert (family_dim(8) + 1, family_dim(32) + 1) == (205, 11441)  # trims, as classified
    assert (family_dim(83), family_dim(84)) == (194054, 201110)
    check_family_size(83)  # a trim of g_83 has dim 194055, inside the bound 200000
    for m in (84, 5000, 10 ** 9):
        with pytest.raises(QuotientTooLargeError, match=f"m = {m} gives dim R"):
            check_family_size(m)
    # every family entry point refuses before it builds a polynomial
    for build in (lambda: gorenstein_ideal(84), lambda: canonical_generators(10 ** 9),
                  lambda: trimmed_ideal(TrimChoice(10 ** 9, "d")),
                  lambda: PfaffianFamily.build(10 ** 9)):
        with pytest.raises(QuotientTooLargeError):
            build()


# ---- trim selectors -----------------------------------------------------------------

def test_selector_labels_frozen():
    assert selector_labels(2) == ["x0", "x1", "d", "y1", "y0"]
    assert selector_labels(3) == ["x0", "x1", "x2", "d", "y2", "y1", "y0"]
    assert selector_labels(1) == ["x0", "d", "y0"]


def test_selector_index_inverts_selector_labels():
    """Label k names ladder position k: the one text <-> position mapping."""
    for m in range(1, 13):
        labels = selector_labels(m)
        assert len(labels) == 2 * m + 1
        for k, label in enumerate(labels):
            assert selector_index(label, m) == k
            assert labels[selector_index(label, m)] == label


def test_m_below_one_carries_the_ladder_message():
    for build in (lambda: canonical_generators(0, F), lambda: gorenstein_ideal(0, F),
                  lambda: PfaffianFamily.build(-1, F), lambda: selector_labels(0)):
        with pytest.raises(ValueError, match="family index must be >= 1"):
            build()


def test_trim_choice_index_map():
    expected = {"x0": 0, "x1": 1, "x2": 2, "d": 3, "y2": 4, "y1": 5, "y0": 6}
    for label, idx in expected.items():
        choice = TrimChoice(3, label)
        assert choice.index == idx


def test_trim_choice_interior_flag():
    assert is_interior(TrimChoice(3, "x1"))
    assert is_interior(TrimChoice(3, "y2"))
    assert not is_interior(TrimChoice(3, "x0"))
    assert not is_interior(TrimChoice(3, "y0"))
    assert not is_interior(TrimChoice(3, "d"))


def test_trim_choice_validation():
    for m, sel in ((1, "x0"), (3, "x3"), (3, "y3"), (3, "q1"), (3, ""), (3, "dd"),
                   (3, "x-1"), (0, "d")):
        with pytest.raises(ValueError):
            TrimChoice(m, sel)


def test_trimmed_ideal_matches_generic_trim():
    for m in (2, 3):
        gens = canonical_generators(m, F)
        for label in selector_labels(m):
            choice = TrimChoice(m, label)
            assert helpers.same_ideal(trimmed_ideal(choice, F), trim(Ideal(gens), choice.index))


def test_interior_generators_become_superfluous():
    for m in (3, 4):
        gens = canonical_generators(m, F)
        for label in selector_labels(m):
            choice = TrimChoice(m, label)
            rest = Ideal([g for k, g in enumerate(gens) if k != choice.index])
            absorbed = all(helpers.contains(rest, v * gens[choice.index]) for v in (X, Y, Z))
            assert absorbed == is_interior(choice)
            assert helpers.same_ideal(helpers.trim_ideal(m, label), rest) == is_interior(choice)


# ---- the bundled family object -------------------------------------------------------

def test_family_json_dict():
    fam = PfaffianFamily.build(2, F)
    data = fam.to_json_dict()
    assert list(data) == ["m", "U", "V", "d", "pfaffians", "generators"]
    assert data["m"] == 2
    assert data["U"] == [["x", "z"], ["z", "y"]]
    assert data["d"] == "x*y - z^2"
    assert data["pfaffians"] == ["y^2", "y*z", "-x*y + z^2", "x*z", "x^2"]
    assert data["generators"] == ["x^2", "x*z", "x*y - z^2", "y*z", "y^2"]
    assert fam.generators == gorenstein_ideal(2, F).generators
