"""Homogeneous ideals in k[x, y, z]: Groebner bases and graded invariants.

The engine is Buchberger's algorithm with the Gebauer-Moeller pair criteria
(M, F, B and coprime leading terms) and S-pair selection by lcm degree,
followed by interreduction to the unique reduced Groebner basis.  A new
element reads only the earlier ones in the box that its nearest neighbours
along each axis bound (criterion M drops every other), and criterion M
tests each new lcm only against the minimal lcms of lower degree.  Normal
forms take terms from a heap and reduce each by its first divisor among the
reducers, read off bit sets of their exponents rather than found by a scan;
Buchberger uses them.  The quotient ring walks the
staircase: t of degree d+1 is standard when it is no leading monomial and
each parent t / x_v is standard, so the cost follows dim R.  The Hilbert
function is read off those bases.  The quotient's normal forms and
multiplication maps come from one table per degree over the border (standard
monomials times a variable), built on first use in increasing term order from
the reduced basis alone (FGLM), with no polynomial reduction.  A trim a' =
(x, y, z)*g_k + (the others) of a has a'_d = a_d for every d != e = deg g_k,
so its ring shares a's bases and tables (filled then) in every degree but e,
and a' needs no Groebner basis.  In degree e all of R's trims read one solve,
kept per degree like the tables: c(u) = {k: c_k(u)} writes u - NF(u), for
each border leading monomial u, over the degree-e generators modulo the
lower multiples.  A k in a relation among them is not minimal, and R' = R;
else std'_e = std_e + {t}, t the least u with c_k(u) != 0, and with gamma =
t - NF(t), NF'(u) = NF(u) + c_k(u)/c_k(t)*gamma.  Before any of this, a
lower bound on dim R read off the generator degrees refuses inputs above
the size bound without a Groebner basis.
"""

from __future__ import annotations

import heapq
import weakref
from collections import namedtuple
from math import comb
from operator import itemgetter

from .errors import NonHomogeneousError, NotNPrimaryError, QuotientTooLargeError
from .poly import (
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    variables,
)

_VAR_MONOS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# bound on dim R, checked on the generators' degrees, then while the staircase
# is walked (about 1 us per monomial): a huge input fails in under a second
MAX_DIM = 200_000
_NOT_ARTINIAN = "quotient is not artinian; some variable has no pure-power leading term"


def _too_large() -> QuotientTooLargeError:
    return QuotientTooLargeError(
        f"quotient has more than {MAX_DIM} standard monomials (the bound on dim R)")


def _parents(t):
    """(v, t / x_v) for each variable x_v dividing t, in the order x, y, z."""
    a, b, c = t
    for v, p in ((0, (a - 1, b, c)), (1, (a, b - 1, c)), (2, (a, b, c - 1))):
        if t[v]:
            yield v, p


class _Reducers:
    """Monic polynomials and their leading monomials, appended only, with a
    bit set per variable x_v and exponent e of those whose lm has x_v-exponent
    at most e: the lowest bit common to the three sets of t is t's first divisor."""

    def __init__(self, entries=()):
        self.lms, self.polys, self.masks = [], [], ([0], [0], [0])
        for lm, g in entries:
            self.append(lm, g)

    def append(self, lm, g):
        bit = 1 << len(self.lms)
        self.lms.append(lm)
        self.polys.append(g)
        for col, e in zip(self.masks, lm):
            col.extend(col[-1:] * (e + 1 - len(col)))
            col[e:] = [m | bit for m in col[e:]]

    def first_divisor(self, t) -> int:
        """The index of the first lm dividing t, or -1."""
        (x, y, z), (a, b, c) = self.masks, t
        hits = x[min(a, len(x) - 1)] & y[min(b, len(y) - 1)] & z[min(c, len(z) - 1)]
        return (hits & -hits).bit_length() - 1


def _normal_form_terms(terms, reducers: _Reducers, field):
    """Full normal form of a term dict.  Terms pop from a heap keyed by the
    negated grevlex key, largest first, and reduce by their first divisor; a
    term cancelled and re-created is pushed again, its stale entry skipped."""

    work = dict(terms)
    heap = [(-a - b - c, c, b, (a, b, c)) for a, b, c in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        mono = heapq.heappop(heap)[3]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        j = reducers.first_divisor(mono)
        if j < 0:
            out[mono] = coeff
            continue
        a, b, c = mono_div(mono, reducers.lms[j])
        tail = {(p + a, q + b, r + c): v for (p, q, r), v in reducers.polys[j].terms.items()}
        del tail[mono]  # the monic leading term, which coeff cancels
        # new terms (coeff and tail[t] are nonzero); a keys() view difference would walk all of work
        for t in set(tail).difference(work):
            heapq.heappush(heap, (-t[0] - t[1] - t[2], t[2], t[1], t))
        field.sub_multiple(work, coeff, tail)
    return out


def _new_pairs(reducers: _Reducers, t) -> list:
    """The pairs (lcm degree, i, k, lcm) that element k = len(reducers.lms)
    with lm t adds: one per lcm, with its first index (F), none for an lcm
    with a coprime pair or one another properly divides (M).  Only a box is
    read: for each v, e_v is the least x_v-exponent >= t_v among the elements
    whose other two exponents are at most t's (none: no bound).  Outside the
    box an lcm with t is a proper multiple of such a neighbour's, so M drops
    it.  Proper divisors have lower degree, so lcms taken by degree are
    tested only against minimal ones."""
    lms, masks, k = reducers.lms, reducers.masks, len(reducers.lms)

    def le(v, e):  # the elements with x_v-exponent at most e
        col = masks[v]
        return col[min(e, len(col) - 1)]

    box = (1 << k) - 1
    for v, (u, w) in enumerate(((1, 2), (0, 2), (0, 1))):
        axis = le(u, t[u]) & le(w, t[w])
        if axis:
            e = t[v]
            while not le(v, e) & axis:
                e += 1
            box &= le(v, e)
    a, b, c = t
    groups = {}  # lcm -> [first index, any pair coprime]
    while box:
        low = box & -box
        box ^= low
        i = low.bit_length() - 1
        p, q, r = lms[i]
        group = groups.setdefault((p if p > a else a, q if q > b else b, r if r > c else c),
                                  [i, False])
        if not (p and a or q and b or r and c):
            group[1] = True
    minimal, pairs = [], []
    for lcm in sorted(groups, key=sum):
        x, y, z = lcm
        for m in minimal:
            if m[0] <= x and m[1] <= y and m[2] <= z:
                break
        else:
            minimal.append(lcm)
            i, coprime = groups[lcm]
            if not coprime:
                pairs.append((x + y + z, i, k, lcm))
    return pairs


def buchberger(generators) -> list:
    """The reduced Groebner basis of the given polynomials.

    A new element h gets its pairs from `_new_pairs` (M over the minimal lcms,
    and F); criterion B drops a pending pair (i, j) when lm(h) divides its lcm
    and lcm(i, h), lcm(j, h) both differ from it.  S-polynomials, by lcm
    degree then index, are built as one term dict from the pair's stored lcm
    and reduce against all elements so far (first divisors from `_Reducers`).
    Interreduction keeps the elements whose lm no other divides and reduces
    each tail against all of them (an lm divides no smaller term).
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    field = gens[0].field
    reducers, pairs = _Reducers(), []
    basis, lms = reducers.polys, reducers.lms

    def add(h):
        t = h.leading_monomial()
        pairs[:] = [p for p in pairs
                    if not (mono_divides(t, p[3]) and mono_lcm(lms[p[1]], t) != p[3]
                            and mono_lcm(lms[p[2]], t) != p[3])]  # criterion B
        pairs.extend(_new_pairs(reducers, t))
        heapq.heapify(pairs)
        reducers.append(t, h)

    for g in gens:
        add(g.monic())
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)  # the S-polynomial of monic basis[i], basis[j]:
        (a, b, c), (p, q, r) = mono_div(lcm, lms[i]), mono_div(lcm, lms[j])
        s = {(x + a, y + b, z + c): v for (x, y, z), v in basis[i].terms.items()}
        field.sub_multiple(s, field.one,
                           {(x + p, y + q, z + r): v for (x, y, z), v in basis[j].terms.items()})
        rem = _normal_form_terms(s, reducers, field)
        if rem:
            add(Polynomial(field, rem).monic())

    minimal = _Reducers()
    for lm, g in sorted(zip(lms, basis), key=lambda r: mono_key(r[0])):
        if minimal.first_divisor(lm) < 0:
            minimal.append(lm, g)
    return [Polynomial(field, {lm: g.terms[lm], **_normal_form_terms(
                {m: c for m, c in g.terms.items() if m != lm}, minimal, field)})
            for lm, g in zip(minimal.lms, minimal.polys)]


class Ideal:
    """Homogeneous ideal with a cached reduced Groebner basis.

    Construction rejects non-homogeneous generators; zero generators are
    dropped.  The Groebner basis is computed once, on first use.
    """

    __slots__ = ("field", "generators", "_gb", "_ring", "_parent")

    def __init__(self, generators, field=None):
        gens = list(generators)
        if field is None:
            if not gens:
                raise ValueError("an empty ideal needs an explicit field")
            field = gens[0].field
        kept = []
        for g in gens:
            if g.field != field:
                raise ValueError("mismatched coefficient fields among generators")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise NonHomogeneousError(f"non-homogeneous generator: {g}")
            # a minimal generator of degree D leaves R_d != 0 for d < D, so dim R >= D
            if g.degree() > MAX_DIM:
                raise QuotientTooLargeError(
                    f"generator of degree {g.degree()} is above the bound {MAX_DIM} on dim R")
            kept.append(g)
        self.field = field
        self.generators = tuple(kept)
        self._gb = None
        self._ring = None  # a weak reference: the ring holds this ideal
        self._parent = None  # a trim's (parent, index of g): its ring is derived from the parent's

    def __getstate__(self):  # a weak reference does not pickle: the copy has no ring
        return None, {**{k: getattr(self, k) for k in self.__slots__}, "_ring": None}

    # ---- Groebner machinery ---------------------------------------------

    def groebner_basis(self) -> tuple:
        if self._gb is None:
            self._gb = tuple(buchberger(self.generators))
        return self._gb

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial() for g in self.groebner_basis())

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"

    # ---- graded structure --------------------------------------------------

    def is_n_primary(self) -> bool:
        """True when Q/I is artinian: each variable has a pure-power leading term."""
        lms = self.leading_monomials()
        if (0, 0, 0) in lms:
            return True
        for v in range(3):
            if not any(m[v] > 0 and m[(v + 1) % 3] == 0 and m[(v + 2) % 3] == 0 for m in lms):
                return False
        return True

    def quotient_ring(self) -> "QuotientRing":
        """The quotient ring, cached while anything else holds it."""
        ring = self._ring and self._ring()
        if ring is None:
            ring = QuotientRing(self)
            self._ring = weakref.ref(ring)
        return ring


def trim(ideal: Ideal, index: int) -> Ideal:
    """The trim of ideal at its index-th generator g: x*g, y*g, z*g, then the
    other generators in order.  It keeps ideal and g, and its quotient ring is
    derived from ideal's (a'_d = a_d for d != deg g), never by Buchberger."""
    gens = list(ideal.generators)
    if not 0 <= index < len(gens):
        raise ValueError(f"trim index {index} out of range for {len(gens)} generators")
    g = gens.pop(index)
    x, y, z = variables(ideal.field)
    out = Ideal([x * g, y * g, z * g] + gens, ideal.field)
    out._parent = (ideal, index)
    return out


def _staircase(lms) -> tuple:
    """(std, index): the monomials outside (lms) per degree, and their positions."""
    std, index, count = [], [], 0
    level = [] if (0, 0, 0) in lms else [(0, 0, 0)]
    while level:  # standard monomials are closed under division: walk the staircase
        count += len(level)
        if count > MAX_DIM:
            raise _too_large()
        below = {m: i for i, m in enumerate(level)}
        std.append(tuple(level))
        index.append(below)
        # a candidate t = m * x_v, x_v the first variable dividing t (so
        # each is made once), is standard iff it is no leading monomial
        # and every t / x_u is standard
        level = []
        for a, b, c in std[-1]:
            t = (a + 1, b, c)
            if t not in lms and (not b or (a + 1, b - 1, c) in below) and (
                    not c or (a + 1, b, c - 1) in below):
                level.append(t)
            if not a:
                t = (0, b + 1, c)
                if t not in lms and (not c or (0, b + 1, c - 1) in below):
                    level.append(t)
                if not b and (0, 0, c + 1) not in lms:
                    level.append((0, 0, c + 1))
        level.sort(key=itemgetter(2, 1))  # grevlex descending within a degree
    return std, index


class HilbertData(namedtuple("HilbertData", "coefficients")):
    """Hilbert function of an artinian quotient as a coefficient tuple."""

    __slots__ = ()


class QuotientRing:
    """Artinian graded quotient Q/I with standard-monomial bases per degree.

    Normal forms are read from one table per degree d: NF(t) as sparse
    coordinates {index: coefficient} over basis(d), for every standard and
    every border monomial x_v * b (b standard) of degree d, built on first use
    (so the Hilbert function never pays for them).  A trim a' of a at g is a
    in every degree but e = deg g, so its ring is derived from a's (`_derive`),
    with no Groebner basis of a', and holds a's tables but in degree e.
    `parent` is (R, e, cut) for a ring derived from R at a generator of
    degree e (cut from `_derive`, None where R' = R), else None.  The ring
    holds its ideal, which holds it only weakly, so a ring is freed when its
    last user drops it.
    """

    __slots__ = ("ideal", "field", "std", "top_degree", "parent", "_index", "_table",
                 "_solves", "__weakref__")

    def __init__(self, ideal: Ideal):
        # I_d is spanned by the m * g, so dim R_d >= C(d+2, 2) - sum_g C(d - deg g + 2, 2):
        # summed before any Groebner basis is built, until the sum passes the
        # bound or, past the least degree, the summand is <= 0 and not rising
        # (it is concave there, so no later one is positive)
        degrees = [g.degree() for g in ideal.generators]
        least, bound, last, d = min(degrees, default=0), 0, 0, 0
        while bound <= MAX_DIM:
            here = comb(d + 2, 2) - sum(comb(d - e + 2, 2) for e in degrees if e <= d)
            if d > least and here <= min(last, 0):
                break
            bound, last, d = bound + max(here, 0), here, d + 1
        if bound > MAX_DIM:
            raise QuotientTooLargeError(
                f"quotient has more than {MAX_DIM} standard monomials (the bound on "
                f"dim R): the generator degrees leave at least {bound}")
        self.ideal = ideal
        self.field = ideal.field
        self.parent = None
        self._solves = {}  # degree e -> `_solve(e)`, read by every trim at a degree-e generator
        if ideal._parent is None:
            if not ideal.is_n_primary():
                raise NotNPrimaryError(_NOT_ARTINIAN)
            std, self._index = _staircase(set(ideal.leading_monomials()))
            self._table = None
        else:
            std, self._index, self._table = self._derive(*ideal._parent)
        self.std = tuple(std)
        self.top_degree = len(std) - 1

    def _derive(self, parent: Ideal, k: int) -> tuple:
        """(std, index, tables) of R' = Q/a' from R = Q/a, a' = m*g_k + (the
        others): a'_d = a_d for d != e = deg g_k, so R' keeps R's bases and
        table objects but in degree e (an entry any ring of the family makes
        in them is right for all).  There it reads R's `_solve(e)`, made once
        for all of R's trims: in R' the other generators and the lower
        multiples vanish, so u = NF(u) + c_k(u)*g_k.  A k in a relation, and
        any e past top_degree + 1 (a'_e = Q_e), leave a'_e = a_e and R' = R.
        Else t, the least border monomial with c_k(t) != 0, joins std_e: for
        another leading monomial L with c_k(L) != 0, r_L - c_k(L)/c_k(t)*r_t
        is in a'_e with leading monomial L, and a non-border L reduces through
        smaller border monomials.  With gamma = t - NF(t), each border entry
        is NF(u) + c_k(u)/c_k(t)*gamma; R makes x_v*t in the degree-(e + 1)
        table that R' shares.  `parent` keeps (gamma, {u: c_k(u)/c_k(t)})."""
        try:
            ring = parent.quotient_ring()
        except QuotientTooLargeError:  # then so is R', which maps onto R
            if not parent.is_n_primary():  # R' is artinian iff R is
                raise NotNPrimaryError(_NOT_ARTINIAN)
            raise _too_large()
        f, e = self.field, parent.generators[k].degree()
        self.parent = ring, e, None
        std, index, tables = list(ring.std), list(ring._index), list(ring._nf_table())
        if e > ring.top_degree + 1:
            return std, index, tables
        if (solved := ring._solves.get(e)) is None:
            solved = ring._solves[e] = ring._solve(e)
        dependent, coefficients = solved
        if k in dependent:
            return std, index, tables
        t = next(u for u, c in coefficients.items() if k in c)
        inv = f.inv(coefficients[t][k])
        ratio = {u: f.mul(c[k], inv) for u, c in coefficients.items() if k in c}
        old = ring.basis(e)
        level = tuple(sorted(old + (t,), key=mono_key, reverse=True))
        std[e:e + 1], index[e:e + 1] = [level], [{u: j for j, u in enumerate(level)}]
        if sum(map(len, std)) > MAX_DIM:
            raise _too_large()
        into = [index[e][b] for b in old]
        gamma = {index[e][t]: f.one, **{into[j]: f.neg(c) for j, c in ring._entry(t).items()}}
        table = {u: {j: f.one} for u, j in index[e].items()}
        for u in coefficients:
            if u != t:
                table[u] = vec = {into[j]: c for j, c in ring._entry(u).items()}
                if u in ratio:
                    f.sub_multiple(vec, f.neg(ratio[u]), gamma)
        tables[e:e + 1] = [table]
        if e < ring.top_degree:  # x_v * t is on the border below the top
            for v in _VAR_MONOS:
                ring._entry(mono_mul(t, v))
        self.parent = ring, e, (gamma, ratio)
        return std, index, tables

    def _solve(self, e: int) -> tuple:
        """(dependent, coefficients): one tagged elimination over Q_e, its
        columns in increasing term order, of the degree-e multiples of the
        lower generators, untagged, then of each degree-e generator, tagged
        by its index k.  dependent holds every tag in a relation the adds
        return, the indices of generators that are not minimal.  coefficients
        maps each non-standard border monomial u of degree e, in increasing
        term order, to c(u) = {k: c_k(u)}, u - NF(u) over the kept generators
        modulo the lower multiples (u is a leading monomial of a_e)."""
        from .linalg import Echelon

        f, gens = self.field, self.ideal.generators
        col = {t: j for j, t in enumerate(reversed(monomials_of_degree(e)))}
        span, dependent = Echelon(f), set()
        for h in gens:
            for s in monomials_of_degree(e - h.degree()) if h.degree() < e else ():
                span.add({col[mono_mul(t, s)]: c for t, c in h.terms.items()})
        for k, h in enumerate(gens):
            if h.degree() == e and (rel := span.add(
                    {col[t]: c for t, c in h.terms.items()}, tag=k)) is not None:
                dependent.update(rel)
        basis, coefficients = self.basis(e), {}
        # degree 0 has no border; 1 stands for it, a leading monomial where a unit generates
        border = {mono_mul(b, v) for b in self.basis(e - 1) for v in _VAR_MONOS} or {(0, 0, 0)}
        for u in sorted(border.difference(basis), key=mono_key):
            vec = {col[u]: f.one}
            vec.update((col[basis[j]], f.neg(c)) for j, c in self._entry(u).items())
            coefficients[u] = span.solve(vec)
        return dependent, coefficients

    def dim(self) -> int:
        return sum(len(level) for level in self.std)

    def hilbert(self) -> HilbertData:
        return HilbertData(tuple(len(level) for level in self.std))

    def basis(self, d: int) -> tuple:
        if 0 <= d <= self.top_degree:
            return self.std[d]
        return ()

    def socle(self, e: int) -> list:
        """A basis of the socle of R in degree e, as sparse coordinates over
        basis(e).  Under grevlex with z last, in(I : z) = in(I) : z (Bayer-
        Stillman), so z divides NF(z*b) for a standard b with z*b not standard,
        and the f_b = b - NF(z*b)/z span ker(z: R_e -> R_e+1).  The socle is
        the relations among the columns (x*f_b, y*f_b), one tagged elimination."""
        from .linalg import Echelon

        if not 0 <= e <= self.top_degree:
            return []
        f, basis, index, z = self.field, self.std[e], self._index[e], _VAR_MONOS[2]
        above, standard = self.basis(e + 1), self._index[e + 1] if e < self.top_degree else {}
        kernel = []
        for j, b in enumerate(basis):
            zb = mono_mul(b, z)
            if zb not in standard:
                kernel.append({j: f.one, **{index[mono_div(above[k], z)]: f.neg(c)
                                            for k, c in self._entry(zb).items()}})
        span, out = Echelon(f), []
        for t, vec in enumerate(kernel):
            xf, yf = {}, {}
            for k, c in vec.items():
                f.sub_multiple(xf, f.neg(c), self.mult_column(0, basis[k]))
                f.sub_multiple(yf, f.neg(c), self.mult_column(1, basis[k]))
            xf.update((len(above) + r, a) for r, a in yf.items())
            rel = span.add(xf, tag=t)
            if rel is not None:
                soc = {}
                for s, c in rel.items():
                    f.sub_multiple(soc, f.neg(c), kernel[s])
                out.append(soc)
        return out

    # ---- the normal-form table ---------------------------------------------

    def _nf_table(self) -> list:
        """The tables of NF(t), one dict per degree, filled on first use over
        the standard and the border monomials (FGLM), degree by degree in
        increasing term order: a standard t maps to itself, a leading monomial
        t of the reduced basis to t - g, and any other t through `_entry`."""
        if self._table is None:
            f = self.field
            reduced = {g.leading_monomial(): g for g in self.ideal.groebner_basis()}
            self._table = []
            for d, index in enumerate(self._index):
                self._table.append(table := {t: {j: f.one} for t, j in index.items()})
                border = {mono_mul(b, v) for b in self.basis(d - 1) for v in _VAR_MONOS}
                for t in sorted(border - index.keys(), key=mono_key):
                    g = reduced.get(t)
                    if g is None:
                        self._entry(t)
                    else:
                        table[t] = {index[m]: f.neg(c) for m, c in g.terms.items() if m != t}
        return self._table

    def _entry(self, t) -> dict:
        """NF(t) over basis(deg t), shared with the tables: read it, never
        change it.  Above top_degree every monomial is zero.  A t without an
        entry is x_w * t' with t' non-standard, and NF(t) is the sum of
        c * NF(x_w * b) over NF(t') = sum of c * b; each x_w * b is standard or
        on the border and smaller than t, so the table has it.  Off the border
        t' may lack an entry too, so the rule descends, through a non-standard
        parent that has an entry if one does, else through the first, until
        an entry exists, then climbs back, keeping every entry made on the way.
        The normal form does not depend on the path; the entries made do."""
        d = t[0] + t[1] + t[2]
        if d > self.top_degree:
            return {}
        tables = self._nf_table()
        if (vec := tables[d].get(t)) is not None:
            return vec
        f, letters = self.field, []
        while t not in tables[d]:
            up = [q for q in _parents(t) if q[1] not in self._index[d - 1]]
            w, t = next((q for q in up if q[1] in tables[d - 1]), up[0])
            letters.append(w)
            d -= 1
        vec = tables[d][t]
        for w in reversed(letters):
            basis, var, row, vec = self.std[d], _VAR_MONOS[w], vec, {}
            d, t = d + 1, mono_mul(t, var)
            for j, c in row.items():
                f.sub_multiple(vec, f.neg(c), tables[d][mono_mul(basis[j], var)])
            tables[d][t] = vec
        return vec

    def mult_column(self, var: int, mono) -> dict:
        """NF(x_var * mono) as sparse coordinates {index: coefficient} over
        basis(deg mono + 1); the dict is the table's, read-only."""
        if not 0 <= var <= 2:
            raise ValueError(f"variable index {var} is not in 0..2")
        a, b, c = mono
        return self._entry(((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))[var])

    def mult_matrix(self, var: int, d: int) -> list:
        """Dense matrix of multiplication by x_var from degree d to degree
        d+1, one row per basis(d + 1) monomial, from `mult_column`; built on
        each call, not cached."""
        if not 0 <= var <= 2:  # here too: where basis(d) is empty no mult_column runs
            raise ValueError(f"variable index {var} is not in 0..2")
        source = self.basis(d)
        mat = [[self.field.zero] * len(source) for _ in self.basis(d + 1)]
        for j, mono in enumerate(source):
            for r, c in self.mult_column(var, mono).items():
                mat[r][j] = c
        return mat

    def _coordinates(self, terms: dict) -> dict:
        """The normal form of the polynomial with terms {monomial: coefficient}
        as {degree d: sparse coordinates over basis(d)}, read term by term
        from the table; degrees whose part vanishes are left out."""
        fld = self.field
        out = {}
        for mono, c in terms.items():
            entry = self._entry(mono)
            if entry:
                fld.sub_multiple(out.setdefault(mono_degree(mono), {}), fld.neg(c), entry)
        return {d: vec for d, vec in out.items() if vec}
