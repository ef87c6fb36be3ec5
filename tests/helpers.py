"""Shared builders and brute-force oracles for the test suite.

Expensive objects (Groebner bases, quotient rings, Koszul homology) are
cached per (m, selector, characteristic) so every test module works on the
same instances without recomputing them.  The oracles here are deliberately
naive re-derivations: they share no code path with the routines they check.
Among them are dense exact linear algebra (the sparse `gtrim.linalg.Echelon`
is checked against it), the Koszul differential from polynomial products and
normal forms (the sparse columns of `KoszulComplex` are checked against it),
the multiplication matrices from heap-reduced normal forms (the border table
of `QuotientRing` is checked against them), Buchberger's algorithm over every
pair with plain first-divisor reduction (`buchberger` is checked against it),
the quadratic Gebauer-Moeller pair rule (`_new_pairs` is checked against it),
standard monomials by filtering every monomial, Bareiss determinants with
exact polynomial division, Pfaffians by memoised first-row expansion (the
sub-Pfaffians of `PfaffianFamily`, read off the generator ladder, are checked
against it), a monomial comparison, ideal equality and degree slices of an
ideal.  `full_homology` runs the homology elimination in every
internal degree, the oracle for the degree-local build of `KoszulComplex`; it
takes its cycles from the dense kernel oracle, and shares the differential
columns, which `koszul_differential` checks, and the `Echelon` that holds
boundaries and representatives.  `polynomial_wedge` multiplies Koszul
elements through Polynomial products and normal forms, the oracle for the
products on coordinates of `KoszulComplex`; `all_products_invariants` forms
every product of homology classes with it, none skipped by degree or
weight, the oracle for `KoszulComplex.invariants`.  `pd_padding` is no oracle: it
reads the paper's structure of A (a Poincare duality algebra with a trivial
padding) through the public `class_product`, the one route for products of
basis classes.
The routines that serve only as cross-checks (minimal generators, the dense
socle that checks `QuotientRing.socle`, the colon by the maximal ideal,
interior selectors, the selector labels, polynomials from coordinate
vectors) live here, not in the package.  So do Koszul elements
(`KoszulElement`, word -> polynomial) and every routine on them: reduction,
differential, cycle check, `wedge`, class coordinates, `multiply`, and the
paper's explicit A_1 cycles and annihilator cycle.  They read the package's
coordinates (`_vectors`, `_diff_column`, `_product`, `_class_coords`), one
route per result.  Normal forms, membership, equality and coordinates of
ideals are here too.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from gtrim import (
    Ideal,
    KoszulComplex,
    Polynomial,
    PolyMatrix,
    TorInvariants,
    TrimChoice,
    canonical_generators,
    d_poly,
    field_of_characteristic,
    gorenstein_ideal,
    ideals,
    trim,
    trimmed_ideal,
    variables,
)
from gtrim.errors import UnitIdealError
from gtrim.koszul import WORDS, _generator_cycle, wedge_words
from gtrim.linalg import Echelon
from gtrim.poly import (
    Monomial,
    mono_div,
    mono_divides,
    mono_degree,
    mono_key,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)

SEED = 20260825
_VAR_MONOS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@lru_cache(maxsize=None)
def field(char=32003):
    return field_of_characteristic(char)


def selector_labels(m: int) -> list:
    """The 2m+1 trim selectors, label k naming ladder position k (the inverse
    of `gtrim.pfaffians.selector_index`); m = 1 gives [x0, d, y0]."""
    if m < 1:
        raise ValueError(f"family index must be >= 1, got {m}")
    left = ["x0"] + [f"x{i}" for i in range(1, m)]
    right = [f"y{i}" for i in range(m - 1, 0, -1)] + ["y0"]
    return left + ["d"] + right


@lru_cache(maxsize=None)
def family_ideal(m, char=32003):
    return gorenstein_ideal(m, field(char))


@lru_cache(maxsize=None)
def trim_ideal(m, selector, char=32003):
    return trimmed_ideal(TrimChoice(m, selector), field(char))


@lru_cache(maxsize=None)
def koszul(m, selector=None, char=32003):
    ideal = family_ideal(m, char) if selector is None else trim_ideal(m, selector, char)
    return KoszulComplex(ideal.quotient_ring())


def walked_ring(ideal):
    """The quotient ring of ideal walked from its own Groebner basis: an
    `Ideal` of the same generators has no parent, so a trim's ring built
    here is not derived and its complex takes `_build_homology`."""
    return Ideal(ideal.generators, ideal.field).quotient_ring()


@lru_cache(maxsize=None)
def trimmed_power_ci(char=32003):
    """The quotient obtained by trimming x^2 out of (x^2, y^2, z^2)."""
    x, y, z = variables(field(char))
    return trim(Ideal([x * x, y * y, z * z]), 0)


def small_instances(char=32003):
    """Every ideal the suite classifies whose quotient has dimension <= 100."""
    fld = field(char)
    x, y, z = variables(fld)
    out = [("maximal", Ideal([x, y, z])),
           ("ci-222", Ideal([x * x, y * y, z * z])),
           ("trim-m1-x0", trimmed_power_ci(char))]
    for m in range(2, 7):
        out.append((f"family-m{m}", family_ideal(m, char)))
    for m in range(2, 6):
        for label in selector_labels(m):
            out.append((f"trim-m{m}-{label}", trim_ideal(m, label, char)))
    return out


def random_form(rng, fld, degree, max_terms=3):
    """Random nonzero homogeneous polynomial of the given degree."""
    monos = monomials_of_degree(degree)
    out = Polynomial.zero(fld)
    while out.is_zero():
        for _ in range(rng.randint(1, max_terms)):
            mono = monos[rng.randrange(len(monos))]
            out = out + monomial(fld, mono, rng.randint(-9, 9))
    return out


def random_poly(rng, fld, max_degree=3, max_terms=4):
    """Random polynomial with small support; may be zero or inhomogeneous."""
    out = Polynomial.zero(fld)
    for _ in range(rng.randrange(max_terms + 1)):
        d = rng.randrange(max_degree + 1)
        monos = monomials_of_degree(d)
        mono = monos[rng.randrange(len(monos))]
        out = out + monomial(fld, mono, rng.randint(-9, 9))
    return out


def random_artinian_ideal(rng, fld):
    """Pure powers of x, y, z (exponents 2..4) plus up to three random forms of
    degree 1..3, shuffled; the quotient is artinian with dimension <= 64."""
    x, y, z = variables(fld)
    gens = [x ** rng.randint(2, 4), y ** rng.randint(2, 4), z ** rng.randint(2, 4)]
    gens += [random_form(rng, fld, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(gens)
    return Ideal(gens, fld)


def random_pfaffian_ideal(rng, fld, n):
    """(ideal, re-draws): the 2n+1 submaximal Pfaffians of a random skew
    (2n+1)-matrix of linear forms, by `all_sub_pfaffians`, re-drawn until none
    is zero and the quotient is artinian, with the number of matrices
    re-drawn.  Such an ideal is Gorenstein of codimension 3 (Buchsbaum-
    Eisenbud), like the family `g_m`, but with no band structure."""
    size, zero, xyz = 2 * n + 1, Polynomial.zero(fld), variables(fld)
    for redraws in itertools.count():
        upper = {(i, j): sum((v * rng.randint(-2, 2) for v in xyz), zero)
                 for i in range(size) for j in range(i + 1, size)}
        rows = [[upper[i, j] if i < j else -upper[j, i] if i > j else zero
                 for j in range(size)] for i in range(size)]
        ideal = Ideal(all_sub_pfaffians(PolyMatrix.from_rows(rows)), fld)
        if len(ideal.generators) == size and ideal.is_n_primary():
            return ideal, redraws


# ---- Koszul elements: word -> polynomial, read through the package's coordinates ----

_WORD_STR = {(): "1", (0,): "e_x", (1,): "e_y", (2,): "e_z",
             (0, 1): "e_xy", (0, 2): "e_xz", (1, 2): "e_yz", (0, 1, 2): "e_xyz"}


def _check_degree(i: int) -> None:
    if not 0 <= i <= 3:
        raise ValueError(f"exterior degree {i} is not in 0..3")


@dataclass
class KoszulElement:
    """Element of the Koszul complex: word -> polynomial coefficient."""

    exterior_degree: int
    components: dict

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components.values())

    def __add__(self, other: "KoszulElement") -> "KoszulElement":
        if self.exterior_degree != other.exterior_degree:
            raise ValueError("cannot add elements of different exterior degrees")
        out = dict(self.components)
        for w, p in other.components.items():
            s = out.get(w, Polynomial.zero(p.field)) + p
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return KoszulElement(self.exterior_degree, out)

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for w in WORDS[self.exterior_degree]:
            p = self.components.get(w)
            if p is None or p.is_zero():
                continue
            bits.append(f"({p})*{_WORD_STR[w]}" if w else f"({p})")
        return " + ".join(bits)


def words(kz, el) -> dict:
    """{word: {monomial: coefficient}} of el, the input of `KoszulComplex._vectors`
    and `_product`; its exterior degree, field and words are checked here."""
    _check_degree(el.exterior_degree)
    if any(p.field != kz.field for p in el.components.values()):
        raise ValueError("mismatched coefficient fields")
    if any(w not in _WORD_STR or len(w) != el.exterior_degree for w in el.components):
        raise ValueError(f"a word is not one of exterior degree {el.exterior_degree}")
    return {w: p.terms for w, p in el.components.items()}


def boundary(kz, i, vecs) -> dict:
    """The differential of coordinates {d: vec} in K_i, one `_diff_column`
    per coordinate, as {d: vec} in K_(i-1) with the zero images left out."""
    f, out = kz.field, {}
    for d, vec in vecs.items():
        image = {}
        for k, c in vec.items():
            f.sub_multiple(image, f.neg(c), kz._diff_column(i, d, k))
        if image:
            out[d] = image
    return out


def coords(kz, el, cycle=False) -> dict:
    """The coordinates {internal degree: sparse vector} of el reduced in R;
    with `cycle`, an element whose boundary does not vanish is refused."""
    vecs = kz._vectors(words(kz, el))
    if cycle and boundary(kz, el.exterior_degree, vecs):
        raise ValueError(f"element is not a cycle: {el}")
    return vecs


def element(kz, i, vecs) -> KoszulElement:
    """The element with coordinates {d: vec} in K_i: the inverse of `coords`."""
    _check_degree(i)
    return KoszulElement(i, {w: Polynomial(kz.field, t) for w, t in kz._terms(i, vecs).items()})


def reduce_element(kz, el, cycle=False) -> KoszulElement:
    """el reduced in R, from one pass into coordinates; with `cycle`, checked to be one."""
    return element(kz, el.exterior_degree, coords(kz, el, cycle))


def homology_basis(kz, i) -> list:
    """The cycle representatives of the basis of A_i, as elements."""
    _check_degree(i)
    return [element(kz, i, {d: vec}) for d, vec in kz._reps[i]]


def differential(kz, el) -> KoszulElement:
    """The boundary of el, reduced in R, from the package's differential columns."""
    i = el.exterior_degree
    return element(kz, max(i - 1, 0), boundary(kz, i, coords(kz, el)))


def is_cycle(kz, el) -> bool:
    return not boundary(kz, el.exterior_degree, coords(kz, el))


def wedge(kz, u, v) -> KoszulElement:
    """u ^ v reduced in R, by the package's `_product` on coordinates."""
    pair = words(kz, u), words(kz, v)
    if (i := u.exterior_degree + v.exterior_degree) > 3:
        raise ValueError("product lands beyond exterior degree 3")
    return element(kz, i, kz._product(*pair))


def vector_class(kz, i, vecs) -> list:
    """The class over the A_i basis of a cycle with coordinates {d: vec} in
    K_i, solved by `_class_coords` in the degrees with classes.  Elsewhere
    H_(i,d) = 0: only the boundary is checked to vanish."""
    live = {}
    for d, vec in vecs.items():
        if (i, d) in kz._classes:
            live[d] = vec
        elif boundary(kz, i, {d: vec}):
            raise ValueError(f"element is not a cycle (internal degree {d})")
    return kz._class_coords(i, live)


def class_coords(kz, el) -> list:
    """The class of a cycle over the A_i basis."""
    return vector_class(kz, el.exterior_degree, coords(kz, el))


def is_boundary(kz, el) -> bool:
    return not any(class_coords(kz, el))


def multiply(kz, u, v) -> list:
    """The class coordinates of [u][v], the class of their `wedge`; cycles only."""
    if not (is_cycle(kz, u) and is_cycle(kz, v)):
        raise ValueError("multiply is defined on cycles only")
    return class_coords(kz, wedge(kz, u, v))


def annihilates_a1(kz, f) -> bool:
    """True when the cycle f multiplies every A_1 basis class to zero."""
    coords(kz, f, cycle=True)
    return not any(any(class_coords(kz, wedge(kz, e, f))) for e in homology_basis(kz, 1))


def generator_cycle(g) -> KoszulElement:
    """The package's `_generator_cycle` of g as an element."""
    return KoszulElement(1, {w: Polynomial(g.field, t) for w, t in _generator_cycle(g).items()})


# ---- the paper's explicit cycles for the trims: A_1 = a/ma from the minimal
# generators; only the annihilator cycle is hand-built, from syzygies.

def a1_cycle_basis(choice: TrimChoice, kz) -> list:
    """The mu(a) cycles spanning A_1 for a trimmed family ideal: the
    `generator_cycle` of each minimal generator of the trim, in ladder order.
    Those are the canonical generators with g_(choice.index) replaced in place
    by x*g (x0), y*g (y0) or z*g (d), or removed (interior xI, yI).  Every
    element is reduced in R and verified to be a cycle.
    """
    m, k = choice.m, choice.index
    gens = canonical_generators(m, kz.field)
    x, y, z = variables(kz.field)
    scale = {0: x, m: z, 2 * m: y}.get(k)
    gens[k:k + 1] = [scale * gens[k]] if scale is not None else []
    return [reduce_element(kz, generator_cycle(g), cycle=True) for g in gens]


def a1_annihilator_cycle(choice: TrimChoice, kz) -> KoszulElement:
    """A degree-2 cycle whose class multiplies A_1 to zero, for m >= 3, from
    the ladder position k of the trimmed generator: d_(m-1) e_xy at k = m,
    else u^(m-i) d_(i-1) e_xy + s u^(m-i-1) d_i e_uz with (i, u, e_uz, s) =
    (k, y, e_yz, (-1)^(i-1)) on the x-side and (2m-k, x, e_xz, (-1)^i) on the
    y-side, its x <-> y image up to sign.  d_(-1) = 0, so the pure powers are
    the i = 0 cases, -y^(m-1) e_yz and x^(m-1) e_xz.  Verified to be a cycle.
    """
    m, k = choice.m, choice.index
    if m < 3:
        raise ValueError("the annihilator cycle is provided for m >= 3")
    if k == m:
        return reduce_element(kz, KoszulElement(2, {(0, 1): d_poly(m - 1, kz.field)}), cycle=True)
    x, y, _ = variables(kz.field)
    x_side = k < m
    i = k if x_side else 2 * m - k
    u, e_uz = (y, (1, 2)) if x_side else (x, (0, 2))
    s = -1 if (i - x_side) % 2 else 1
    el = KoszulElement(2, {(0, 1): u ** (m - i) * d_poly(i - 1, kz.field),
                           e_uz: u ** (m - i - 1) * d_poly(i, kz.field) * s})
    return reduce_element(kz, el, cycle=True)


def random_element(rng, kz, i, max_degree=2, density=0.7):
    """Random reduced element of exterior degree i (not necessarily a cycle)."""
    comps = {}
    for w in WORDS[i]:
        if rng.random() < density:
            p = random_poly(rng, kz.ring.field, max_degree=max_degree, max_terms=3)
            if not p.is_zero():
                comps[w] = p
    return reduce_element(kz, KoszulElement(i, comps))


def random_cycle(rng, kz, i):
    """Random cycle: a combination of basis classes plus a random boundary."""
    el = KoszulElement(i, {})
    for b in homology_basis(kz, i):
        c = rng.randint(-5, 5)
        if c:
            el = el + KoszulElement(i, {w: p * c for w, p in b.components.items()})
    if i < 3:
        el = el + differential(kz, random_element(rng, kz, i + 1))
    return reduce_element(kz, el)


def koszul_differential(ideal, el):
    """The Koszul boundary of el, sum over words of (-1)^t x_(w_t) p e_(w - w_t),
    from Polynomial products and `normal_form` alone."""
    xyz = variables(ideal.field)
    comps = {}
    for w, p in el.components.items():
        for t, letter in enumerate(w):
            piece = xyz[letter] * p
            w2 = w[:t] + w[t + 1:]
            comps[w2] = comps.get(w2, Polynomial.zero(ideal.field)) + (-piece if t % 2 else piece)
    reduced = {w: normal_form(ideal, p) for w, p in comps.items()}
    return KoszulElement(max(el.exterior_degree - 1, 0),
                         {w: p for w, p in reduced.items() if not p.is_zero()})


def mult_matrix_oracle(ring, var, d):
    """Matrix of multiplication by x_var from degree d to degree d+1, from
    `normal_form` of every product of x_var and a basis(d) monomial."""
    source = ring.basis(d)
    target_len = len(ring.basis(d + 1))
    mat = [[ring.field.zero] * len(source) for _ in range(target_len)]
    if target_len:
        for j, mono in enumerate(source):
            image = normal_form(ring.ideal, monomial(ring.field, mono_mul(mono, _VAR_MONOS[var])))
            for m, c in image.terms.items():
                mat[ring.basis(d + 1).index(m)][j] = c
    return mat


def polynomial_wedge(kz, u, v):
    """The exterior product u ^ v from Polynomial products, reduced in R by
    `reduce_element`: the oracle for `wedge`, which multiplies on coordinates."""
    comps = {}
    for w1, p1 in u.components.items():
        for w2, p2 in v.components.items():
            hit = wedge_words(w1, w2)
            if hit is None:
                continue
            sign, merged = hit
            piece = p1 * p2
            if sign < 0:
                piece = -piece
            cur = comps.get(merged)
            comps[merged] = piece if cur is None else cur + piece
    return reduce_element(kz, KoszulElement(u.exterior_degree + v.exterior_degree, comps))


def delta_rows(kz):
    """The matrix of A_2 -> Hom(A_1, A_3): one row per A_2 basis class, the
    concatenated A_3 coordinates of its products with each A_1 basis class."""
    a1 = homology_basis(kz, 1)
    return [[c for e in a1 for c in class_coords(kz, polynomial_wedge(kz, e, g))]
            for g in homology_basis(kz, 2)]


def all_products_invariants(kz):
    """The invariants from every product of A_1 x A_1 and A_1 x A_2, each
    formed with `polynomial_wedge` and `class_coords`, none skipped: the
    oracle for `KoszulComplex.invariants`, which multiplies on coordinates
    and skips the pairs whose degree and weight meet no class."""
    f = kz.field
    a1 = homology_basis(kz, 1)
    a2 = homology_basis(kz, 2)
    p_span, q_span, r_span = Echelon(f), Echelon(f), Echelon(f)
    for s in range(len(a1)):
        for t in range(s + 1, len(a1)):
            p_span.add(class_coords(kz, polynomial_wedge(kz, a1[s], a1[t])))
    for g in a2:  # r is the rank of A_2 -> Hom(A_1, A_3), one row per A_2 class
        row = []
        for e in a1:
            prod = class_coords(kz, polynomial_wedge(kz, e, g))
            q_span.add(prod)
            row.extend(prod)
        r_span.add(row)
    return TorInvariants(p=p_span.rank, q=q_span.rank, r=r_span.rank,
                         mu=len(a1), type_rank=kz.ranks()[3])


def pd_padding(kz):
    """The abstract's structure of A = H(K^R), read through the public
    `class_product` of basis classes: a Poincare duality algebra P padded
    with a graded space V on which A_1 acts trivially.  Returns (the numbers
    of the conditions that fail, rank P_1, (dim V_1, dim V_2, dim V_3)):
    1. A_1 A_2 is one-dimensional; it is P_3, and V_3 is a complement;
    2. the pairing A_1 x A_2 -> A_3 has left radical V_1 and right radical
       V_2 whose complements P_1, P_2 have one dimension, so that
       P_1 x P_2 -> P_3 is perfect;
    3. V_1 A_1 = 0;
    4. A_1 A_1 meets V_2 only in 0, so P_2 can hold P_1 P_1, which is A_1 A_1
       by 3."""
    f = kz.field
    _, n1, n2, n3 = kz.ranks()
    left11 = [[c for t in range(n1) for c in kz.class_product(1, s, 1, t)]
              for s in range(n1)]  # A_1 -> Hom(A_1, A_2)
    left12 = [[c for t in range(n2) for c in kz.class_product(1, s, 2, t)]
              for s in range(n1)]  # A_1 -> Hom(A_2, A_3)
    products = [left11[s][t * n2:(t + 1) * n2] for s in range(n1) for t in range(n1)]
    q = span_rank([row[t * n3:(t + 1) * n3] for row in left12 for t in range(n2)], n3, f)
    v1 = kernel_basis([list(col) for col in zip(*left12)], n1, f)
    v2 = kernel_basis([[row[t * n3 + k] for t in range(n2)] for row in left12
                       for k in range(n3)], n2, f)
    failed = [k for k, holds in (
        (1, q == 1),
        (2, n1 - len(v1) == n2 - len(v2)),
        # V_1 = ker(left12) lies in ker(left11): stacking left11 keeps the rank
        (3, matrix_rank([a + b for a, b in zip(left12, left11)], n2 * n3 + n1 * n2, f)
            == n1 - len(v1)),
        (4, span_rank(products + v2, n2, f) == span_rank(products, n2, f) + len(v2)),
    ) if not holds]
    return failed, n1 - len(v1), (len(v1), len(v2), n3 - q)


def standard_monomials(ideal, d):
    """The degree-d monomials outside the leading-term ideal, grevlex descending."""
    lms = ideal.leading_monomials()
    return tuple(m for m in monomials_of_degree(d) if not any(mono_divides(lm, m) for lm in lms))


def colon_oracle(ideal):
    """(I : (x, y, z)) recomputed degreewise from first principles.

    A degree-d form f lies in the colon exactly when x*f, y*f and z*f all
    reduce to zero mod I.  That is a linear condition over the full space of
    degree-d forms, so the kernel of the stacked multiplication-then-reduce
    matrix gives the degree-d slice; beyond the top degree of Q/I the colon
    agrees with I and contributes nothing new.
    """
    fld = ideal.field
    ring = ideal.quotient_ring()
    xyz = variables(fld)
    gens = list(ideal.generators)
    for d in range(ring.top_degree + 1):
        monos = monomials_of_degree(d)
        target = monomials_of_degree(d + 1)
        col = {mm: k for k, mm in enumerate(target)}
        nrows = 3 * len(target)
        columns = []
        for mono in monos:
            f = monomial(fld, mono)
            column = [fld.zero] * nrows
            for v, var in enumerate(xyz):
                nf = normal_form(ideal, var * f)
                for mm, c in nf.terms.items():
                    column[v * len(target) + col[mm]] = c
            columns.append(column)
        rows = [[columns[j][i] for j in range(len(monos))] for i in range(nrows)]
        for vec in kernel_basis(rows, len(monos), fld):
            terms = {mono: c for mono, c in zip(monos, vec) if not fld.is_zero(c)}
            gens.append(Polynomial(fld, terms))
    return Ideal(gens, fld)


# ---- Groebner oracles ---------------------------------------------------------

def naive_normal_form(f: Polynomial, basis) -> Polynomial:
    """The normal form of f against `basis`: the leading term of what is
    left is cancelled by the first element whose leading monomial divides
    it, or moved to the remainder."""
    fld = f.field
    lms = [g.leading_monomial() for g in basis]
    rest, out = f, Polynomial.zero(fld)
    while not rest.is_zero():
        lm, lc = rest.leading_monomial(), rest.leading_coeff()
        j = next((j for j, m in enumerate(lms) if mono_divides(m, lm)), None)
        if j is None:
            term = monomial(fld, lm, lc)
            rest, out = rest - term, out + term
        else:
            coeff = fld.mul(lc, fld.inv(basis[j].leading_coeff()))
            rest = rest - monomial(fld, mono_div(lm, lms[j]), coeff) * basis[j]
    return out


def naive_buchberger(generators) -> list:
    """The reduced Groebner basis by Buchberger's algorithm in its plainest
    form: every pair of elements is reduced, with no criterion, lowest lcm
    degree first, and each non-zero remainder joins made monic; then the
    minimal elements are made monic and each is reduced against the others.
    Sorted by increasing leading monomial."""
    basis = [g for g in generators if not g.is_zero()]

    def pair(i, j):
        lmf, lmg = basis[i].leading_monomial(), basis[j].leading_monomial()
        lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
        return sum(lcm), i, j, mono_div(lcm, lmf), mono_div(lcm, lmg)

    pairs = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        chosen = min(pairs)
        pairs.remove(chosen)
        _, i, j, shift_f, shift_g = chosen
        f, g, fld = basis[i], basis[j], basis[i].field
        s = (monomial(fld, shift_f, fld.inv(f.leading_coeff())) * f
             - monomial(fld, shift_g, fld.inv(g.leading_coeff())) * g)
        rem = naive_normal_form(s, basis)
        if not rem.is_zero():
            basis.append(rem.monic())
            pairs += [pair(k, len(basis) - 1) for k in range(len(basis) - 1)]
    lms = [g.leading_monomial() for g in basis]
    minimal = [g for k, g in enumerate(basis)
               if not any(mono_divides(m, lms[k]) and (m != lms[k] or j < k)
                          for j, m in enumerate(lms) if j != k)]
    minimal = [g.monic() for g in minimal]
    reduced = [naive_normal_form(g, minimal[:k] + minimal[k + 1:])
               for k, g in enumerate(minimal)]
    return sorted(reduced, key=lambda g: mono_key(g.leading_monomial()))


def new_pairs_oracle(lms, t) -> list:
    """The pairs (lcm degree, i, k, lcm) that a new element k = len(lms) with
    leading monomial t adds in the Gebauer-Moeller update, by the quadratic
    rule: every lcm group is tested against every other (criterion M), a
    group keeps its first index (criterion F), and a group with a coprime
    pair forms no pair."""
    k = len(lms)
    groups = {}  # lcm -> (first index, any pair coprime)
    for i, lm in enumerate(lms):
        lcm = mono_lcm(lm, t)
        first, coprime = groups.get(lcm, (i, False))
        groups[lcm] = (first, coprime or lcm == mono_mul(lm, t))
    pairs = []
    for lcm, (i, coprime) in groups.items():
        if not coprime and not any(other != lcm and mono_divides(other, lcm)
                                   for other in groups):  # criteria F and M
            pairs.append((mono_degree(lcm), i, k, lcm))
    return pairs


# ---- dense exact linear algebra ----------------------------------------------

def rref(rows, ncols: int, field):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][col])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(c, inv) for c in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][col]):
                c = mat[i][col]
                mat[i] = [field.of(a - c * b) for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def matrix_rank(rows, ncols: int, field) -> int:
    return len(rref(rows, ncols, field)[1])


def span_rank(vectors, dim: int, field) -> int:
    return matrix_rank(vectors, dim, field)


def kernel_basis(rows, ncols: int, field) -> list:
    """Basis of the right kernel {v : A v = 0}; A given as a list of rows."""
    echelon, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for row, p in zip(echelon, pivots):
            v[p] = field.neg(row[free])
        basis.append(v)
    return basis


# ---- polynomial and ideal oracles ----------------------------------------------

def monomial(field, mono, coeff=1) -> Polynomial:
    """coeff * x^a y^b z^c for mono = (a, b, c)."""
    return Polynomial(field, {tuple(mono): field.of(coeff)})


def cols(M: PolyMatrix) -> int:
    return len(M.entries[0]) if M.entries else 0


def normal_form(ideal, f: Polynomial) -> Polynomial:
    """The normal form of f against the reduced Groebner basis, by the
    package's heap reduction (`ideals._normal_form_terms`)."""
    if f.field != ideal.field:
        raise ValueError("mismatched coefficient fields")
    reducers = ideals._Reducers((g.leading_monomial(), g) for g in ideal.groebner_basis())
    return Polynomial(ideal.field, ideals._normal_form_terms(f.terms, reducers, ideal.field))


def contains(ideal, f: Polynomial) -> bool:
    return normal_form(ideal, f).is_zero()


def same_ideal(a, b) -> bool:
    """Equality of ideals: the same field and the same reduced Groebner basis."""
    return a.field == b.field and a.groebner_basis() == b.groebner_basis()


def coordinates(ring, f: Polynomial) -> dict:
    """The normal form of f in ring as {degree d: sparse coordinates over basis(d)}."""
    if f.field != ring.field:
        raise ValueError("mismatched coefficient fields")
    return ring._coordinates(f.terms)


def mono_cmp(a: Monomial, b: Monomial) -> int:
    """-1, 0 or 1 as a <, =, > b in grevlex."""
    ka, kb = mono_key(a), mono_key(b)
    return (ka > kb) - (ka < kb)


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient f / g when g divides f exactly; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    field = f.field
    if field != g.field:
        raise ValueError("mismatched coefficient fields")
    lm_g = g.leading_monomial()
    lc_g = g.leading_coeff()
    if len(g.terms) == 1:  # a monomial divides term by term (mono_div raises if inexact)
        inv = field.inv(lc_g)
        return Polynomial(field, {mono_div(m, lm_g): field.mul(c, inv)
                                  for m, c in f.terms.items()})
    rem = f
    quot = Polynomial.zero(field)
    while not rem.is_zero():
        lm = rem.leading_monomial()
        if not mono_divides(lm_g, lm):
            raise ValueError("inexact polynomial division")
        t = monomial(field, mono_div(lm, lm_g),
                                field.mul(rem.leading_coeff(), field.inv(lc_g)))
        quot = quot + t
        rem = rem - t * g
    return quot


def det_bareiss(M: PolyMatrix) -> Polynomial:
    """Determinant by fraction-free (Bareiss) elimination with exact division."""
    if len(M.entries) != cols(M):
        raise ValueError("determinant of a non-square matrix")
    n = len(M.entries)
    if n == 0:
        raise ValueError("empty matrix needs an explicit field")
    field = M.entries[0][0].field
    a = [list(row) for row in M.entries]
    sign = 1
    prev = Polynomial.constant(field, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pivot is None:
                return Polynomial.zero(field)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                if a[i][j].is_zero() and (a[i][k].is_zero() or a[k][j].is_zero()):
                    continue  # the update is zero already
                a[i][j] = exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
            a[i][k] = Polynomial.zero(field)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


def is_skew_symmetric(M: PolyMatrix) -> bool:
    if len(M.entries) != cols(M):
        return False
    return all(M.entries[i][j] == -M.entries[j][i]
               for i in range(len(M.entries)) for j in range(i, cols(M)))


def delete_row_col(M: PolyMatrix, i: int) -> PolyMatrix:
    """Remove 0-based row i and column i."""
    keep = [r for r in range(len(M.entries)) if r != i]
    return PolyMatrix(tuple(tuple(M.entries[r][c] for c in keep) for r in keep))


def pfaffian(M: PolyMatrix) -> Polynomial:
    """Pfaffian of an even skew-symmetric matrix by first-row expansion.

    Each principal minor is expanded once: results are kept per tuple of
    remaining rows, which turns the (n-1)!! expansion into at most 2^n minors.
    """
    if len(M.entries) != cols(M):
        raise ValueError("Pfaffian of a non-square matrix")
    if len(M.entries) % 2:
        raise ValueError("Pfaffian needs an even-sized matrix")
    if not is_skew_symmetric(M):
        raise ValueError("Pfaffian of a non-skew-symmetric matrix")
    if not M.entries:
        raise ValueError("empty matrix has no coefficient field; use size >= 2")
    field = M.entries[0][1].field
    memo = {(): Polynomial.constant(field, 1)}

    def pf(active):
        if active in memo:
            return memo[active]
        first = active[0]
        rest = active[1:]
        total = Polynomial.zero(field)
        for pos, j in enumerate(rest):
            e = M.entries[first][j]
            if e.is_zero():
                continue
            term = e * pf(rest[:pos] + rest[pos + 1:])
            # expansion signs alternate +, -, +, ... along the first row
            if pos % 2:
                term = -term
            total = total + term
        memo[active] = total
        return total

    return pf(tuple(range(len(M.entries))))


def sub_pfaffian(V: PolyMatrix, i: int) -> Polynomial:
    """Pfaffian of V with 1-based row and column i removed."""
    if len(V.entries) != cols(V):
        raise ValueError("sub-Pfaffian of a non-square matrix")
    if not is_skew_symmetric(V):
        raise ValueError("sub-Pfaffian of a non-skew-symmetric matrix")
    if not 1 <= i <= len(V.entries):
        raise ValueError(f"index {i} out of range 1..{len(V.entries)}")
    minor = delete_row_col(V, i - 1)
    if len(minor.entries) % 2:
        raise ValueError("deleting one row/column must leave an even size")
    return pfaffian(minor)


def all_sub_pfaffians(V: PolyMatrix) -> list:
    return [sub_pfaffian(V, i) for i in range(1, len(V.entries) + 1)]


def component_basis(ideal: Ideal, d: int) -> list:
    """Vectors (over all degree-d monomials) spanning the degree-d slice of I."""
    monos = monomials_of_degree(d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.groebner_basis():
        dg = g.degree()
        if dg > d:
            continue
        for shift in monomials_of_degree(d - dg):
            vec = [ideal.field.zero] * len(monos)
            for m, c in g.terms.items():
                vec[index[mono_mul(m, shift)]] = c
            rows.append(vec)
    return rows


# ---- the homology in every internal degree --------------------------------------

class _FullHomology(KoszulComplex):
    """A `KoszulComplex` whose homology runs the full kernel, boundary and
    representative elimination in every (i, d), with no degree left out and
    the cycles taken from the dense kernel oracle."""

    def _build_homology(self):
        """Per (i, d): cycles are the kernel of d_i, and a cycle becomes a
        representative when it is independent of the boundaries and of the
        representatives before it."""
        f = self.field
        for d in range(self.ring.top_degree + 4):
            cols = [[self._diff_column(i, d, k) for k in range(self.component_size(i, d))]
                    for i in range(4)]
            for i in range(4):
                if not cols[i]:
                    continue
                nrows = self.component_size(i - 1, d)
                rows = [[col.get(r, f.zero) for col in cols[i]] for r in range(nrows)]
                space = Echelon(f)
                for col in cols[i + 1] if i < 3 else ():
                    space.add(col)
                reps = self._reps[i]
                for vec in kernel_basis(rows, len(cols[i]), f):
                    cycle = {j: c for j, c in enumerate(vec) if not f.is_zero(c)}
                    if space.add(cycle, tag=len(reps)) is None:
                        reps.append((d, cycle))
                self._classes[(i, d)] = space


def full_homology(ring):
    """The Koszul homology of `ring` built in every internal degree."""
    return _FullHomology(ring)


# ---- cross-checks kept out of the package -----------------------------------------

def minimal_generators(ideal):
    """(subset of the input generators that generates minimally, count).

    Candidates are scanned by ascending degree, ties broken by input
    order; a candidate is kept exactly when it is independent in I/(nI).
    """
    if any(g.degree() == 0 for g in ideal.generators):
        raise UnitIdealError("minimal generators are only defined for ideals inside (x, y, z)")
    ranked = sorted(enumerate(ideal.generators), key=lambda t: (t[1].degree(), t[0]))
    kept = []
    spans = {}
    for _, g in ranked:
        d = g.degree()
        if d not in spans:
            index = {m: i for i, m in enumerate(monomials_of_degree(d))}
            space = Echelon(ideal.field)
            for h in ideal.groebner_basis():
                if h.degree() < d:  # multiples m*h with deg m >= 1 span (nI)_d
                    for shift in monomials_of_degree(d - h.degree()):
                        space.add({index[mono_mul(m, shift)]: c for m, c in h.terms.items()})
            spans[d] = (space, index)
        space, index = spans[d]
        if space.add({index[m]: c for m, c in g.terms.items()}) is None:
            kept.append(g)
    return kept, len(kept)


def from_vector(ring, d: int, vec: dict) -> Polynomial:
    """The degree-d polynomial with sparse coordinates {index: coefficient}
    over ring.basis(d)."""
    basis = ring.basis(d)
    return Polynomial(ring.field, {basis[j]: c for j, c in sorted(vec.items())})


@dataclass(frozen=True)
class SocleData:
    basis: tuple
    type_rank: int


def socle_basis(ideal) -> SocleData:
    """Basis of the annihilator of (x, y, z) in Q/I, as normal forms."""
    ring = ideal.quotient_ring()
    reps = []
    for d in range(ring.top_degree + 1):
        rows = [row for v in range(3) for row in ring.mult_matrix(v, d)]
        reps += [from_vector(ring, d, dict(enumerate(vec)))
                 for vec in kernel_basis(rows, len(ring.basis(d)), ideal.field)]
    return SocleData(basis=tuple(reps), type_rank=len(reps))


def colon_by_maximal(ideal) -> Ideal:
    """The ideal (I : (x, y, z)), computed as I plus socle lifts."""
    lifts = socle_basis(ideal).basis
    return Ideal(ideal.generators + tuple(lifts), ideal.field)


def is_interior(choice: TrimChoice) -> bool:
    """True for xi/yi with 1 <= i <= m-1 (neither a pure power nor d_m)."""
    return choice.index not in (0, choice.m, 2 * choice.m)
