"""Polynomial arithmetic, the grevlex order, parsing and determinants."""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from gtrim import (
    Ideal,
    Polynomial,
    PolyMatrix,
    build_u,
    d_poly,
    parse_polynomial,
    variables,
)
from gtrim.errors import NonHomogeneousError
from gtrim.poly import mono_key, mono_str, monomials_of_degree
from helpers import delete_row_col, det_bareiss, exact_div, is_skew_symmetric, mono_cmp

F = helpers.field()
Q = helpers.field(0)
X, Y, Z = variables(F)


# ---- the monomial order -----------------------------------------------------

def test_grevlex_order_examples():
    # degree decides first
    assert mono_cmp((0, 0, 3), (1, 1, 0)) == 1
    # same degree: fewer trailing variables wins
    assert mono_cmp((1, 1, 0), (0, 0, 2)) == 1   # x*y > z^2
    assert mono_cmp((2, 0, 0), (1, 1, 0)) == 1   # x^2 > x*y
    assert mono_cmp((0, 2, 0), (1, 0, 1)) == 1   # y^2 > x*z, grevlex specific
    assert mono_cmp((1, 0, 1), (1, 0, 1)) == 0


def test_monomials_of_degree_two_frozen():
    assert monomials_of_degree(2) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert monomials_of_degree(0) == [(0, 0, 0)]


def test_monomials_of_degree_is_complete_and_descending():
    for d in range(6):
        monos = monomials_of_degree(d)
        assert len(monos) == (d + 1) * (d + 2) // 2
        assert len(set(monos)) == len(monos)
        assert all(mono_key(a) > mono_key(b) for a, b in zip(monos, monos[1:]))


# ---- basic arithmetic --------------------------------------------------------

def test_hand_expanded_products():
    d2 = X * Y - Z * Z
    assert d2 * (X * Y + Z * Z) == X ** 2 * Y ** 2 - Z ** 4
    assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2
    assert (X + Y + Z) ** 0 == Polynomial.constant(F, 1)
    assert X - X == Polynomial.zero(F)


def test_leading_data_and_monic():
    f = 3 * X * Y - 5 * Z ** 2
    assert f.leading_monomial() == (1, 1, 0)
    assert f.leading_coeff() == F.of(3)
    assert f.monic() * 3 == f
    assert f.monic().leading_coeff() == F.one
    # degree decides first: z^3 leads x*y, and monic rescales by its coefficient
    g = X * Y - 2 * Z ** 3
    assert g.leading_monomial() == (0, 0, 3)
    assert g.monic() == Z ** 3 - F.inv(F.of(2)) * X * Y


def test_degree_and_homogeneity():
    f = X ** 2 + Y + Polynomial.constant(F, 3)
    assert f.degree() == 2
    assert not f.is_homogeneous()
    assert Polynomial.zero(F).degree() == -1
    assert Polynomial.zero(F).is_homogeneous()
    with pytest.raises(NonHomogeneousError):
        Ideal([f])


def test_ring_axioms_random():
    rng = random.Random(helpers.SEED)
    fields = [F, Q]
    for case in range(600):
        fld = fields[case % 2]
        f = helpers.random_poly(rng, fld)
        g = helpers.random_poly(rng, fld)
        h = helpers.random_poly(rng, fld)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f - g) + g == f
        assert f * Polynomial.constant(fld, 1) == f
        assert (f * g).is_zero() == (f.is_zero() or g.is_zero())


def test_constructor_keeps_coefficients_canonical():
    """Coefficients go through `field.of`: reduced mod p, zeros dropped, and
    an int over Q becomes the rational type, however the polynomial is made."""
    f7 = helpers.field(7)
    x, y, _ = variables(f7)
    p = Polynomial(f7, {(1, 0, 0): 7, (0, 1, 0): 9})
    assert p.terms == {(0, 1, 0): 2} and p.to_text() == "2*y" and p == y + y
    assert Polynomial(f7, {(1, 0, 0): 7}).is_zero()
    assert Polynomial(f7, {(0, 1, 0): -1}).terms == {(0, 1, 0): 6} == (-y).terms
    z_q = Polynomial(Q, {(0, 0, 1): 1})
    assert type(z_q.terms[(0, 0, 1)]) is type(Q.one) and z_q == variables(Q)[2]


def test_rational_scalars_scale_and_floats_do_not():
    """Every scalar with a denominator scales: int, Fraction and the Fraction
    that `Q.of` returns; a float has no exact value and does not."""
    xq, yq, _ = variables(Q)
    p = xq * yq - 3 * xq
    half = Q.of("1/2")
    assert p * half == p.scale("1/2") == half * p
    assert p * Fraction(1, 2) == p.scale("1/2")
    assert p * 2 == p.scale(2)
    with pytest.raises(TypeError):
        p * 1.5
    with pytest.raises(TypeError):
        1.5 * p


def test_power_squares(monkeypatch):
    """A power takes O(log n) products and equals the repeated product."""
    cases = [(2 * Z, 20), (X + 2 * Y - Z, 7), (variables(Q)[0].scale("1/2"), 13)]
    for base, n in cases:
        power = Polynomial.constant(base.field, 1)
        for _ in range(n):
            power = power * base
        assert base ** n == power
    calls, mul = [], Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert Z ** 150000 == helpers.monomial(F, (0, 0, 150000))
    assert len(calls) <= 40


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(F, "x") + Polynomial.variable(Q, "x")


# ---- text form and parsing ---------------------------------------------------

def test_to_text_frozen():
    assert (X * Y - Z * Z).to_text() == "x*y - z^2"
    assert (-X).to_text() == "-x"
    assert Polynomial.zero(F).to_text() == "0"
    assert Polynomial.constant(F, -3).to_text() == "-3"
    # symmetric coefficient representatives modulo p
    assert Polynomial.constant(F, F.char - 1).to_text() == "-1"
    assert (2 * X * Y * Z - Z ** 3).to_text() == "2*x*y*z - z^3"


def test_parse_examples():
    assert parse_polynomial("2*x*y*z - z^3", F) == 2 * X * Y * Z - Z ** 3
    assert parse_polynomial("x^2*y^2 - 3*x*y*z^2 + z^4", F) == \
        X ** 2 * Y ** 2 - 3 * X * Y * Z ** 2 + Z ** 4
    assert parse_polynomial("  - x +  y ", F) == Y - X
    assert parse_polynomial("x*x*y", F) == X ** 2 * Y
    assert parse_polynomial("7", F) == Polynomial.constant(F, 7)
    xq, yq, _ = variables(Q)
    assert parse_polynomial("1/2*x - y", Q) == xq.scale("1/2") - yq


def test_parse_rejects_garbage():
    for bad in ("", "x +", "x*", "w", "x^", "x^-2", "2//3", "x + + "):
        with pytest.raises(ValueError):
            parse_polynomial(bad, F)


def test_parse_rejects_non_ascii_digits():
    # exponents and coefficients are ASCII: other decimal digits are no digits
    for bad in ("x^\u0663", "\u0663*x", "x^1\u0663", "2/\u0663*x", "\uff11*x", "x^\u00b3"):
        with pytest.raises(ValueError, match="bad character"):
            parse_polynomial(bad, F)


def test_parse_rejects_juxtaposition():
    # each of these used to parse silently as a sum, e.g. "xy" as x + y
    for bad in ("xy", "x y", "x^2y", "2 x", "3x", "x*y z", "x^2 3", "1/2 x"):
        with pytest.raises(ValueError, match="missing operator"):
            parse_polynomial(bad, F)
    assert parse_polynomial("x * y - - z", F) == X * Y + Z


def test_parse_sums_terms_in_one_dict(monkeypatch):
    """The reader adds each term into one dict, with no Polynomial sum per
    term: 4,950 terms parse with `Polynomial.__add__` refusing to run, and
    a term that cancels an earlier one leaves nothing behind."""
    def refuse(self, other):
        raise AssertionError("Polynomial.__add__ ran")

    monos = monomials_of_degree(98)
    text = " + ".join(f"{k % 5 + 1}*{mono_str(m)}" for k, m in enumerate(monos)) + " - x^98"
    expected = {m: F.of(k % 5 + 1) for k, m in enumerate(monos) if m != (98, 0, 0)}
    monkeypatch.setattr(Polynomial, "__add__", refuse)
    assert parse_polynomial(text, F).terms == expected


def test_parse_round_trip_random():
    rng = random.Random(helpers.SEED + 1)
    for case in range(300):
        fld = Q if case % 3 == 0 else F
        f = helpers.random_poly(rng, fld, max_degree=4, max_terms=5)
        assert parse_polynomial(f.to_text(), fld) == f


# ---- exact division ----------------------------------------------------------

def test_exact_div():
    f = (X * Y - Z ** 2) * (X + Z)
    assert exact_div(f, X + Z) == X * Y - Z ** 2
    assert exact_div(f, X * Y - Z ** 2) == X + Z
    assert exact_div(f * X * Z, X.scale(3) * Z) == f.scale(F.inv(F.of(3)))
    with pytest.raises(ValueError):
        exact_div(X * Y + Z, X + Z)
    with pytest.raises(ValueError):  # a monomial divisor, too
        exact_div(X * Y + Z, X.scale(3))
    with pytest.raises(ZeroDivisionError):
        exact_div(f, Polynomial.zero(F))


def test_exact_div_random():
    rng = random.Random(helpers.SEED + 2)
    done = 0
    while done < 200:
        f = helpers.random_poly(rng, F, max_degree=3, max_terms=3)
        g = helpers.random_poly(rng, F, max_degree=2, max_terms=3)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f
        done += 1


# ---- matrices and determinants -------------------------------------------------

def test_polymatrix_basics():
    M = PolyMatrix.from_rows([[X, Y], [Z, X]])
    assert (len(M.entries), helpers.cols(M)) == (2, 2)
    assert M.entries[0][1] == Y
    assert [[M.entries[j][i] for j in range(2)] for i in range(2)] == [[X, Z], [Y, X]]
    assert delete_row_col(M, 0).entries == ((X,),)
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[X], [Y, Z]])


def test_skew_symmetry_detection():
    zero = Polynomial.zero(F)
    skew = PolyMatrix.from_rows([[zero, X], [-X, zero]])
    assert is_skew_symmetric(skew)
    assert not is_skew_symmetric(build_u(2, F))  # symmetric, nonzero diagonal
    assert not is_skew_symmetric(PolyMatrix.from_rows([[zero, X], [X, zero]]))
    assert not is_skew_symmetric(PolyMatrix.from_rows([[zero, X]]))


def det_leibniz(M):
    """Sum over permutations of signed entry products (sign by inversion count)."""
    n = len(M.entries)
    total = Polynomial.zero(M.entries[0][0].field)
    for perm in itertools.permutations(range(n)):
        term = Polynomial.constant(total.field, 1)
        for i in range(n):
            term = term * M.entries[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def test_det_routes_agree_on_band_matrices():
    for fld in (F, Q):
        for m in range(1, 9):
            assert det_bareiss(build_u(m, fld)) == d_poly(m, fld)


def test_det_routes_agree_random():
    rng = random.Random(helpers.SEED + 3)
    for _ in range(40):
        n = rng.randint(1, 3)
        M = PolyMatrix.from_rows(
            [[helpers.random_poly(rng, F, max_degree=2, max_terms=2)
              for _ in range(n)] for _ in range(n)])
        assert det_bareiss(M) == det_leibniz(M)


def test_det_edge_cases():
    dup = PolyMatrix.from_rows([[X, Y], [X, Y]])
    assert det_bareiss(dup).is_zero()
    with pytest.raises(ValueError):
        det_bareiss(PolyMatrix.from_rows([[X, Y]]))
    # swap two rows: determinant flips sign (exercises Bareiss pivoting)
    M = PolyMatrix.from_rows([[Polynomial.zero(F), X], [Y, Z]])
    N = PolyMatrix.from_rows([[Y, Z], [Polynomial.zero(F), X]])
    assert det_bareiss(M) == -det_bareiss(N)
    assert det_bareiss(M) == det_leibniz(M)
