"""Koszul complex homology over an artinian graded quotient R = Q/a.

The complex is the exterior algebra on e_x, e_y, e_z over R with
differential e_x -> x (and so on), so H_i lives in internal degrees
(coefficient degree plus exterior degree) between 0 and top_degree(R) + 3.
The differential and its sign rule are written once, as one sparse column
per basis element of K_{i,d} over the standard-monomial coordinates, read
from the quotient ring's sparse multiplication columns, and `differential`
applies the columns in an element's support to its coordinates.  Each d_i
is eliminated once per internal degree, column by column: the relations
among its columns are the cycles in K_i, and the rows left behind span the
boundaries in K_{i-1}.  An element enters coordinates one way, `_coords`,
one entry of the quotient ring's normal-form table per monomial; reduction,
the differential, cycle checks and classes all read them.  Products too:
the words of two elements multiply with their exterior sign, each product
monomial reads one table entry, with no Polynomial product; products of
classes have one route, `class_product`, and `multiply` is bilinear over it.

The homology is built only where it can be non-zero.  H_i(K^R)_d is
Tor_i(R, k)_d, so H_0 is k in degree 0 and H_1 lives only in the degrees of
the input generators; the eliminations in degree d end at the lowest H_i
that can live, at its last class: the Euler characteristic of the degree
counts them.  H_3,d is the socle of R in degree d - 3.  Betti numbers only
grow under Groebner degeneration, beta_3,d(Q/a) <= beta_3,d(Q/in(a))
(Herzog-Hibi, Monomial Ideals, GTM 260, ch. 3), and the staircase corners
span the socle of Q/in(a), so d_3 is eliminated with tags only above a
corner; elsewhere it runs only for the boundaries of a live H_2.  Where A
is zero a cycle's class is zero.  A product [a][b] lies in internal degree
deg a + deg b and is formed only when A_{i+j} has a class there.

The class is read from A = H(K^R) alone: A_0 = 0 is the unit ideal, an A_1
class in internal degree 1 is a linear minimal generator, and the products
on A give the invariants (p, q, r) of the Tor-algebra classification.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ClassificationScopeError, UnitIdealError
from .ideals import QuotientRing
from .linalg import Echelon, _sub_multiple
from .pfaffians import TrimChoice, d_poly
from .poly import Polynomial, variables

WORDS = (((),), ((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
WORD_INDEX = tuple({w: k for k, w in enumerate(level)} for level in WORDS)
_WORD_STR = {(): "1", (0,): "e_x", (1,): "e_y", (2,): "e_z",
             (0, 1): "e_xy", (0, 2): "e_xz", (1, 2): "e_yz", (0, 1, 2): "e_xyz"}


def wedge_words(a: tuple, b: tuple):
    """(sign, merged word) for e_a ^ e_b, or None when a letter repeats."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for p in a for q in b if p > q)
    return (-1 if inversions % 2 else 1, tuple(sorted(a + b)))


class KoszulElement:
    """Element of the Koszul complex: word -> polynomial coefficient."""

    __slots__ = ("exterior_degree", "components")

    def __init__(self, exterior_degree: int, components: dict):
        self.exterior_degree, self.components = exterior_degree, components

    def __eq__(self, other):
        if not isinstance(other, KoszulElement):
            return NotImplemented
        return (self.exterior_degree, self.components) == (other.exterior_degree, other.components)

    def __repr__(self):
        return (f"KoszulElement(exterior_degree={self.exterior_degree!r}, "
                f"components={self.components!r})")

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


class TorInvariants(namedtuple("TorInvariants", "p q r mu type_rank")):
    """Multiplication invariants of A = H(K^R) plus mu and the type."""

    __slots__ = ()


class TorClass(namedtuple("TorClass", "tag params")):
    """Classification tag with its numeric parameters."""

    __slots__ = ()

    def display(self) -> str:
        if self.tag == "Gorenstein":
            return f"Gorenstein({self.params['r']})"
        if self.tag == "G":
            return f"G({self.params['r']})"
        if self.tag == "H":
            return f"H({self.params['p']},{self.params['q']})"
        if self.tag == "Unclassified":
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"Unclassified({inner})"
        return self.tag


def classify_from_invariants(inv: TorInvariants) -> TorClass:
    """Decision table on (p, q, r), type and mu; never coerces odd inputs."""
    p, q, r = inv.p, inv.q, inv.r
    if inv.type_rank == 1 and inv.mu == 3:
        return TorClass("CompleteIntersection", {})
    if inv.type_rank == 1:
        return TorClass("Gorenstein", {"r": r})
    if (p, q, r) == (1, 1, 2):
        return TorClass("B", {})
    if (p, q, r) == (3, 0, 0):
        return TorClass("T", {})
    if p == 0 and q == 1 and r >= 2:
        return TorClass("G", {"r": r})
    if r == q:
        return TorClass("H", {"p": p, "q": q})
    return TorClass("Unclassified",
                    {"p": p, "q": q, "r": r, "mu": inv.mu, "type": inv.type_rank})


class KoszulComplex:
    """Homology of the Koszul complex of a quotient ring, with multiplication."""

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        self.field = ring.field
        self._reps = ([], [], [], [])  # per exterior degree: (internal degree, cycle)
        self._classes = {}  # (i, d) -> Echelon: boundaries untagged, representatives tagged
        self._inv = self._words = None  # words: per class, (internal degree, split words)
        self._build_homology()

    # ---- chain-level structure -------------------------------------------

    def component_size(self, i: int, d: int) -> int:
        if not 0 <= i <= 3:
            return 0
        return len(WORDS[i]) * len(self.ring.basis(d - i))

    def _diff_column(self, i: int, d: int, k: int) -> dict:
        """Sparse column k of the internal-degree-d differential K_i -> K_{i-1}:
        e_w * b maps to the sum over the letters w_t of (-1)^t x_(w_t) b e_(w - w_t)."""
        f, ring = self.field, self.ring
        source = ring.basis(d - i)
        h_tgt = len(ring.basis(d - i + 1))
        w = WORDS[i][k // len(source)]
        mono = source[k % len(source)]
        col = {}
        for t, letter in enumerate(w):
            base = WORD_INDEX[i - 1][w[:t] + w[t + 1:]] * h_tgt
            for r, val in ring.mult_column(letter, mono).items():
                col[base + r] = f.neg(val) if t % 2 else val
        return col

    def _build_homology(self):
        """A_i only where it can be non-zero.  With no corner in degree d - 3,
        H_3,d = 0 and d_3 is eliminated untagged, for its image alone.  The
        cascade ends at the lowest i that can live (0 at d = 0, 1 in the
        generator degrees, else 2), whose class count the Euler characteristic
        sum (-1)^i dim H_i,d = chi_d fixes from those above: its columns stop
        at the last class, and none run (no `_classes` entry) when it is 0.
        The image of each d_{i+1} is the boundary span for H_{i,d}."""
        ring, f = self.ring, self.field
        gen_degrees = {g.degree() for g in ring.ideal.generators}
        for d in range(ring.top_degree + 4):
            lowest = 0 if d == 0 else 1 if d in gen_degrees else 2
            corner = ring.corners(d - 3) > 0
            chi = sum((-1) ** i * self.component_size(i, d) for i in range(4))
            if lowest == 2 and not corner and not chi:
                continue
            if corner:
                image = self._homology(3, d, Echelon(f))
            else:
                image = Echelon(f)
                for c in range(self.component_size(3, d)):
                    image.add(self._diff_column(3, d, c))
            count = chi + self.component_size(3, d) - image.rank  # h_2 - h_1 + h_0
            for i in range(2, lowest, -1):
                found = len(self._reps[i])
                image = self._homology(i, d, image)
                count = len(self._reps[i]) - found - count  # h_{i-1} - h_{i-2} + ...
            if count:
                self._homology(lowest, d, image, count)

    def _homology(self, i: int, d: int, space: Echelon, count=None) -> Echelon:
        """Representatives of H_{i,d}, appended to `_reps[i]`, from one
        elimination of the columns of d_i.  Each column that depends on the
        earlier ones leaves its relation, a cycle, and the cycle becomes a
        representative when it is independent of `space` (the boundaries, with
        no tags) and of the representatives before it.  Given the number of
        classes, `count`, the columns stop at the last one: every later
        relation lies in `space`.  Returns the image of d_i, partial if they
        stopped, with its column tags dropped: the boundaries for H_{i-1,d}."""
        image = Echelon(self.field)
        n = self.component_size(i, d)
        if not n:
            return image
        reps = self._reps[i]
        stop = None if count is None else len(reps) + count
        for c in range(n):
            cycle = image.add(self._diff_column(i, d, c), tag=c)
            if cycle is not None and space.add(cycle, tag=len(reps)) is None:
                reps.append((d, cycle))
                if len(reps) == stop:
                    break
        self._classes[(i, d)] = space
        image.rows = {p: (row, {}) for p, (row, _) in image.rows.items()}
        return image

    def ranks(self) -> tuple:
        return tuple(len(reps) for reps in self._reps)

    # ---- elements ----------------------------------------------------------

    def reduce_element(self, el: KoszulElement) -> KoszulElement:
        return self.element_from_vector(el.exterior_degree, self._coords(el))

    def element_from_vector(self, i: int, vecs: dict) -> KoszulElement:
        """The element with sparse coordinates {internal degree d: {index:
        coefficient} in K_{i,d}}; the inverse of `_vectors`."""
        return KoszulElement(i, {w: Polynomial(self.field, t)
                                 for w, t in self._terms(i, vecs).items()})

    def _terms(self, i: int, vecs: dict) -> dict:
        """Coordinates {d: vec} in K_i as {word: {monomial: coefficient}}."""
        terms = {}
        for d, vec in vecs.items():
            basis = self.ring.basis(d - i)
            for k, c in vec.items():
                terms.setdefault(WORDS[i][k // len(basis)], {})[basis[k % len(basis)]] = c
        return terms

    def _split(self, el: KoszulElement) -> dict:
        """{word: {monomial: coefficient}} of an element over this ring's field."""
        if any(p.field != self.field for p in el.components.values()):
            raise ValueError("mismatched coefficient fields")
        if any(w not in _WORD_STR or len(w) != el.exterior_degree for w in el.components):
            raise ValueError(f"a word is not one of exterior degree {el.exterior_degree}")
        return {w: p.terms for w, p in el.components.items()}

    def _vectors(self, comps: dict) -> dict:
        """{word: {monomial: coefficient}} reduced in R, one table entry per
        monomial, as {internal degree: sparse coordinates}."""
        ring = self.ring
        out = {}
        for w, terms in comps.items():
            i = len(w)
            for e, vec in ring._coordinates(terms).items():
                base = WORD_INDEX[i][w] * len(ring.basis(e))
                out.setdefault(e + i, {}).update((base + j, c) for j, c in vec.items())
        return out

    def _coords(self, el: KoszulElement) -> dict:
        """The coordinates {internal degree: sparse vector} of el reduced in R:
        the one way from an element into coordinates."""
        return self._vectors(self._split(el))

    def homology_basis(self, i: int) -> list:
        """Deterministic cycle representatives of a basis of A_i."""
        return [self.element_from_vector(i, {d: vec}) for d, vec in self._reps[i]]

    def differential(self, el: KoszulElement) -> KoszulElement:
        """The boundary of el, with coefficients reduced in R: the columns of
        `_diff_column` applied to the coordinates of the reduced element."""
        i = el.exterior_degree
        if i == 0:
            return KoszulElement(0, {})
        return self.element_from_vector(i - 1, {
            d: self._boundary_vector(i, d, vec) for d, vec in self._coords(el).items()})

    def _boundary_vector(self, i: int, d: int, vec: dict) -> dict:
        """The differential applied to coordinates in K_{i,d}, one column per
        coordinate in the support."""
        f = self.field
        image = {}
        for k, c in vec.items():
            _sub_multiple(f, image, f.neg(c), self._diff_column(i, d, k))
        return image

    def is_cycle(self, el: KoszulElement) -> bool:
        i = el.exterior_degree
        return not any(self._boundary_vector(i, d, vec) for d, vec in self._coords(el).items())

    def _product(self, u: dict, v: dict) -> dict:
        """Coordinates of u ^ v for {word: {monomial: coefficient}} elements:
        word pairs signed by `wedge_words`, the product reduced by `_vectors`."""
        f, comps = self.field, {}
        for w1, t1 in u.items():
            for w2, t2 in v.items():
                hit = wedge_words(w1, w2)
                if hit is None:
                    continue
                sign, merged = hit
                terms = comps.setdefault(merged, {})
                for (a, b, c), c1 in t1.items():
                    _sub_multiple(f, terms, f.neg(c1) if sign > 0 else c1,
                                  {(a + p, b + q, c + r): c2 for (p, q, r), c2 in t2.items()})
        return self._vectors(comps)

    def wedge(self, u: KoszulElement, v: KoszulElement) -> KoszulElement:
        """Exterior product with coefficients reduced in R, from `_product`."""
        i = u.exterior_degree + v.exterior_degree
        if i > 3:
            raise ValueError("product lands beyond exterior degree 3")
        return self.element_from_vector(i, self._product(self._split(u), self._split(v)))

    def class_coords(self, el: KoszulElement) -> list:
        """Coordinates of the homology class of a cycle over the A_i basis."""
        return self._class_coords(el.exterior_degree, self._coords(el))

    def _class_coords(self, i: int, vecs: dict) -> list:
        """`class_coords` of coordinates {d: vec} in K_i.  Where (i, d) has no
        `_classes` entry, H_{i,d} = 0: only the boundary is checked to vanish."""
        coords = [self.field.zero] * len(self._reps[i])
        for d, vec in sorted(vecs.items()):
            space = self._classes.get((i, d))
            if space is not None:
                sol = space.solve(vec)
            else:
                sol = None if self._boundary_vector(i, d, vec) else {}
            if sol is None:
                raise ValueError(f"element is not a cycle (internal degree {d})")
            for k, c in sol.items():
                coords[k] = c
        return coords

    def is_boundary(self, el: KoszulElement) -> bool:
        return all(self.field.is_zero(c) for c in self.class_coords(el))

    def class_product(self, i: int, s: int, j: int, t: int) -> list:
        """Class coordinates of basis class s of A_i times basis class t of A_j,
        by `_product`; zero, not formed, where A_{i+j} has no class in its degree."""
        if self._words is None:
            self._words = [[(d, self._terms(k, {d: vec})) for d, vec in reps]
                           for k, reps in enumerate(self._reps)]
            self._live = [{d for d, _ in reps} for reps in self._reps]
        (du, u), (dv, v) = self._words[i][s], self._words[j][t]
        if du + dv not in self._live[i + j]:
            return [self.field.zero] * len(self._reps[i + j])
        return self._class_coords(i + j, self._product(u, v))

    def _class_sum(self, i: int, a: list, j: int, b: list) -> list:
        """Sum of a_s b_t class_product(i, s, j, t) for class coordinates a, b."""
        if i + j > 3:
            raise ValueError("product lands beyond exterior degree 3")
        f, out = self.field, [self.field.zero] * len(self._reps[i + j])
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                if not (f.is_zero(x) or f.is_zero(y)):
                    c, prod = f.mul(x, y), self.class_product(i, s, j, t)
                    out = [f.add(o, f.mul(c, p)) for o, p in zip(out, prod)]
        return out

    def multiply(self, u: KoszulElement, v: KoszulElement) -> list:
        """Class coordinates of [u][v], bilinear over `class_product`; cycles only."""
        vecs = self._coords(u), self._coords(v)
        try:
            a, b = (self._class_coords(el.exterior_degree, vec) for el, vec in zip((u, v), vecs))
        except ValueError:
            raise ValueError("multiply is defined on cycles only") from None
        return self._class_sum(u.exterior_degree, a, v.exterior_degree, b)

    # ---- invariants and classification ------------------------------------

    def invariants(self) -> TorInvariants:
        """(p, q, r) from A_1 x A_1 -> A_2 and A_1 x A_2 -> A_3, one
        `class_product` per pair of basis classes."""
        if self._inv is None:
            _, n1, n2, n3 = self.ranks()
            p_span, q_span, r_span = (Echelon(self.field) for _ in range(3))
            pairs = [self.class_product(1, s, 1, t) for s in range(n1) for t in range(s + 1, n1)]
            for prod in filter(any, pairs):  # a zero product adds nothing to a span
                p_span.add(prod)
            for g in range(n2):  # r is the rank of A_2 -> Hom(A_1, A_3), one row per A_2 class
                prods = [self.class_product(1, e, 2, g) for e in range(n1)]
                for prod in filter(any, prods):
                    q_span.add(prod)
                r_span.add([c for prod in prods for c in prod])
            self._inv = TorInvariants(p=p_span.rank, q=q_span.rank, r=r_span.rank,
                                      mu=n1, type_rank=n3)
        return self._inv

    def classify(self) -> TorClass:
        """The class of R; the scope is read from A: A_0 = k unless R = 0, and
        A_1 in internal degree d counts the degree-d minimal generators."""
        if not self._reps[0]:
            raise UnitIdealError("minimal generators are only defined for ideals inside (x, y, z)")
        if any(d == 1 for d, _ in self._reps[1]):
            raise ClassificationScopeError(
                "ideal has a degree-1 minimal generator; classification "
                "requires the ideal to sit inside the square of the maximal ideal")
        return classify_from_invariants(self.invariants())


def report_dict(kz: KoszulComplex) -> dict:
    """Classification report with a fixed key order: the `classify` record."""
    inv = kz.invariants()
    cls = kz.classify()
    return {
        "mu": inv.mu,
        "type": inv.type_rank,
        "hilbert": list(kz.ring.hilbert().coefficients),
        "ranks": list(kz.ranks()),
        "p": inv.p,
        "q": inv.q,
        "r": inv.r,
        "class": cls.tag,
        "class_params": cls.params,
        "gorenstein": inv.type_rank == 1,
    }


# ---- hand-built cycles for the trimmed family ------------------------------

def _check_choice(choice: TrimChoice):
    if choice.m < 3:
        raise ValueError("hand-built cycle bases are provided for m >= 3")


def a1_cycle_basis(choice: TrimChoice, kz: KoszulComplex) -> list:
    """The explicit mu(a) cycles spanning A_1 for a trimmed family ideal.

    For the x-side generators: x^(m-j-1) d_j e_x for the surviving columns,
    their y-side mirrors, plus either the replaced pure power times e_x
    (x0/y0), d_m e_z (selector d), or the degree-(m-1) cycle whose boundary
    is d_m via the d-recurrence.  Every element is verified to be a cycle.
    """
    _check_choice(choice)
    m = choice.m
    field = kz.ring.field
    x, y, z = variables(field)
    d = [d_poly(k, field) for k in range(m + 1)]
    sel = choice.selector
    e_x, e_y, e_z = (0,), (1,), (2,)

    def on(word, coeff):
        return KoszulElement(1, {word: coeff})

    def x_side(skip=None):
        return [on(e_x, x ** (m - j - 1) * d[j]) for j in range(m) if j != skip]

    def y_side(skip=None):
        return [on(e_y, y ** (m - j - 1) * d[j]) for j in range(m) if j != skip]

    sign = 1 if (m - 1) % 2 == 0 else -1
    bridge_x = KoszulElement(1, {e_z: d[m - 1] * sign, e_y: x * d[m - 2]})
    bridge_y = KoszulElement(1, {e_z: d[m - 1] * sign, e_x: y * d[m - 2]})

    if sel == "x0":
        cycles = [on(e_x, x ** m)] + x_side(skip=0) + y_side() + [bridge_x]
    elif sel == "y0":
        cycles = [on(e_y, y ** m)] + y_side(skip=0) + x_side() + [bridge_y]
    elif sel == "d":
        cycles = x_side() + y_side() + [on(e_z, d[m])]
    elif sel[0] == "x":
        cycles = x_side(skip=int(sel[1:])) + y_side() + [bridge_x]
    else:
        cycles = y_side(skip=int(sel[1:])) + x_side() + [bridge_y]

    return [_checked_cycle(kz, c) for c in cycles]


def a1_annihilator_cycle(choice: TrimChoice, kz: KoszulComplex) -> KoszulElement:
    """A degree-2 cycle whose homology class multiplies A_1 to zero.

    Selector x0: y^(m-1) e_yz; selector d: d_(m-1) e_xy; interior xi:
    y^(m-i) d_(i-1) e_xy + (-1)^(i-1) y^(m-i-1) d_i e_yz; y-side selectors by
    the x <-> y swap.  The element is verified to be a cycle.
    """
    _check_choice(choice)
    m = choice.m
    field = kz.ring.field
    x, y, z = variables(field)
    d = [d_poly(k, field) for k in range(m + 1)]
    sel = choice.selector
    e_xy, e_xz, e_yz = (0, 1), (0, 2), (1, 2)

    if sel == "x0":
        el = KoszulElement(2, {e_yz: y ** (m - 1)})
    elif sel == "y0":
        el = KoszulElement(2, {e_xz: x ** (m - 1)})
    elif sel == "d":
        el = KoszulElement(2, {e_xy: d[m - 1]})
    elif sel[0] == "x":
        i = int(sel[1:])
        sign = 1 if (i - 1) % 2 == 0 else -1
        el = KoszulElement(2, {e_xy: y ** (m - i) * d[i - 1],
                               e_yz: y ** (m - i - 1) * d[i] * sign})
    else:
        i = int(sel[1:])
        sign = 1 if i % 2 == 0 else -1
        el = KoszulElement(2, {e_xy: x ** (m - i) * d[i - 1],
                               e_xz: x ** (m - i - 1) * d[i] * sign})

    return _checked_cycle(kz, el)


def _checked_cycle(kz: KoszulComplex, el: KoszulElement) -> KoszulElement:
    """el reduced in R, verified to be a cycle."""
    if not kz.is_cycle(el):
        raise ValueError(f"element is not a cycle: {el}")
    return kz.reduce_element(el)


def annihilates_a1(kz: KoszulComplex, f: KoszulElement) -> bool:
    """True when [f] multiplies every A_1 basis class to zero: each [e_s][f]
    is the sum that `multiply` forms, over the class coordinates of f."""
    b, n1, fld = kz.class_coords(f), kz.ranks()[1], kz.field
    units = ([fld.one if k == s else fld.zero for k in range(n1)] for s in range(n1))
    return all(fld.is_zero(c) for a in units for c in kz._class_sum(1, a, f.exterior_degree, b))
