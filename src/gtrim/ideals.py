"""Homogeneous ideals in k[x, y, z]: Groebner bases and graded invariants.

The engine is Buchberger's algorithm with the Gebauer-Moeller pair criteria
(M, F, B and coprime leading terms) and S-pair selection by lcm degree,
followed by interreduction to the unique reduced Groebner basis.  Normal
forms take terms from a heap, against reducers each ideal builds once.
The standard monomials form an order ideal, so the quotient ring walks the
staircase: degree d+1 is {x, y, z} times degree d, less the multiples of a
leading monomial, so its cost follows dim R rather than the count of all
monomials up to the top degree.  The Hilbert function and the
multiplication matrices are read off those bases one degree at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import NonHomogeneousError, NotNPrimaryError
from .poly import (
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
    variables,
)

_VAR_MONOS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_GREVLEX = mono_key("grevlex")  # basis(d) is grevlex descending, as monomials_of_degree


def _normal_form_terms(terms, reducers, field, order):
    """Full normal form of a term dict against monic reducers [(lm, terms)].

    Pending terms sit in a heap keyed by the negated order key, so the largest
    pops first.  A term cancelled and later re-created is pushed again; its
    stale entry is skipped when popped.
    """
    key = mono_key(order)

    def entry(m):
        return (tuple(-k for k in key(m)), m)

    work = dict(terms)
    heap = [entry(m) for m in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        for lm, rterms in reducers:  # mono_divides, inlined in the innermost loop
            if lm[0] <= mono[0] and lm[1] <= mono[1] and lm[2] <= mono[2]:
                break
        else:
            out[mono] = coeff
            continue
        shift = mono_div(mono, lm)
        for rm, rc in rterms.items():
            if rm == lm:
                continue
            t = mono_mul(rm, shift)
            s = field.sub(work.get(t, field.zero), field.mul(coeff, rc))
            if field.is_zero(s):
                work.pop(t, None)
            else:
                if t not in work:
                    heapq.heappush(heap, entry(t))
                work[t] = s
    return out


def _s_poly(f: Polynomial, g: Polynomial, lmf, lmg) -> Polynomial:
    """S-polynomial of two monic polynomials with the given leading monomials."""
    lcm = mono_lcm(lmf, lmg)
    mf = Polynomial.monomial(f.field, mono_div(lcm, lmf))
    mg = Polynomial.monomial(f.field, mono_div(lcm, lmg))
    return mf * f - mg * g


def buchberger(generators, order: str = "grevlex") -> list:
    """The reduced Groebner basis of the given polynomials.

    Each new element h joins through the Gebauer-Moeller update.  Of its
    pairs with earlier elements, criterion M drops those whose lcm is
    properly divisible by another new pair's lcm, and criterion F keeps one
    pair per lcm; the survivor is dropped too when any pair of that lcm has
    coprime leading monomials.  Criterion B drops a pending pair (i, j) when
    lm(h) divides its lcm and lcm(i, h), lcm(j, h) both differ from it.
    Pending pairs are taken by lcm degree, ties broken by index, and their
    S-polynomials are reduced against every element so far.  Interreduction
    then yields the unique reduced basis.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    field = gens[0].field
    key = mono_key(order)
    basis, lms, reducers, pairs = [], [], [], []

    def add(h):
        t = h.leading_monomial(order)
        k = len(basis)
        pairs[:] = [p for p in pairs
                    if not (mono_divides(t, p[3]) and mono_lcm(lms[p[1]], t) != p[3]
                            and mono_lcm(lms[p[2]], t) != p[3])]  # criterion B
        groups = {}  # lcm -> (first index, any pair coprime)
        for i, lm in enumerate(lms):
            lcm = mono_lcm(lm, t)
            first, coprime = groups.get(lcm, (i, False))
            groups[lcm] = (first, coprime or lcm == mono_mul(lm, t))
        for lcm, (i, coprime) in groups.items():
            if not coprime and not any(other != lcm and mono_divides(other, lcm)
                                       for other in groups):  # criteria F and M
                pairs.append((mono_degree(lcm), i, k, lcm))
        heapq.heapify(pairs)
        basis.append(h)
        lms.append(t)
        reducers.append((t, h.terms))

    for g in gens:
        add(g.monic(order))
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        s = _s_poly(basis[i], basis[j], lms[i], lms[j])
        rem = _normal_form_terms(s.terms, reducers, field, order)
        if rem:
            add(Polynomial(field, rem).monic(order))

    # interreduce to the unique reduced basis
    minimal = []
    for lm, terms in sorted(reducers, key=lambda r: key(r[0])):
        if not any(mono_divides(m, lm) for m, _ in minimal):
            minimal.append((lm, terms))
    return [Polynomial(field, _normal_form_terms(terms, minimal[:k] + minimal[k + 1:],
                                                 field, order))
            for k, (_, terms) in enumerate(minimal)]


class Ideal:
    """Homogeneous ideal with a cached reduced Groebner basis.

    Construction rejects non-homogeneous generators; zero generators are
    dropped.  The Groebner basis and its (lm, terms) reducers are computed
    once, on first use.
    """

    __slots__ = ("field", "order", "generators", "_gb", "_reducers", "_ring")

    def __init__(self, generators, order: str = "grevlex", field=None):
        gens = list(generators)
        if field is None:
            if not gens:
                raise ValueError("an empty ideal needs an explicit field")
            field = gens[0].field
        mono_key(order)  # validate the order name
        kept = []
        for g in gens:
            if g.field != field:
                raise ValueError("mismatched coefficient fields among generators")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise NonHomogeneousError(f"non-homogeneous generator: {g}")
            kept.append(g)
        self.field = field
        self.order = order
        self.generators = tuple(kept)
        self._gb = None
        self._reducers = None
        self._ring = None

    # ---- Groebner machinery ---------------------------------------------

    def groebner_basis(self) -> tuple:
        if self._gb is None:
            self._gb = tuple(buchberger(self.generators, self.order))
            self._reducers = [(g.leading_monomial(self.order), g.terms) for g in self._gb]
        return self._gb

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial(self.order) for g in self.groebner_basis())

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.field != self.field:
            raise ValueError("mismatched coefficient fields")
        self.groebner_basis()  # builds self._reducers on first use
        return Polynomial(self.field,
                          _normal_form_terms(f.terms, self._reducers, self.field, self.order))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.field != self.field or other.order != self.order:
            raise ValueError("ideal sum needs matching field and order")
        return Ideal(self.generators + other.generators, self.order, self.field)

    def equals(self, other: "Ideal") -> bool:
        if self.field != other.field:
            return False
        if self.order == other.order:
            return self.groebner_basis() == other.groebner_basis()
        return (all(self.contains(g) for g in other.generators)
                and all(other.contains(g) for g in self.generators))

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

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
        if self._ring is None:
            self._ring = QuotientRing(self)
        return self._ring

    def hilbert_function(self) -> "HilbertData":
        return self.quotient_ring().hilbert()


def scale_by_maximal(g: Polynomial, order: str = "grevlex") -> Ideal:
    """The ideal (x*g, y*g, z*g)."""
    x, y, z = variables(g.field)
    return Ideal([x * g, y * g, z * g], order, g.field)


def trim(generators, index: int, order: str = "grevlex") -> Ideal:
    """Replace the index-th generator g by (x, y, z)*g."""
    gens = list(generators)
    if not 0 <= index < len(gens):
        raise ValueError(f"trim index {index} out of range for {len(gens)} generators")
    g = gens.pop(index)
    if g.is_zero():
        raise ValueError("cannot trim a zero generator")
    return scale_by_maximal(g, order) + Ideal(gens, order, g.field)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert function of an artinian quotient as a coefficient tuple."""

    coefficients: tuple


class QuotientRing:
    """Artinian graded quotient Q/I with standard-monomial bases per degree."""

    __slots__ = ("ideal", "field", "std", "top_degree", "_mult", "_index")

    def __init__(self, ideal: Ideal):
        if not ideal.is_n_primary():
            raise NotNPrimaryError(
                "quotient is not artinian; some variable has no pure-power leading term")
        self.ideal = ideal
        self.field = ideal.field
        lms = ideal.leading_monomials()
        std = []
        level = {(0, 0, 0)}
        while True:  # standard monomials are closed under division: walk the staircase
            level = tuple(sorted((m for m in level if not any(mono_divides(lm, m) for lm in lms)),
                                 key=_GREVLEX, reverse=True))
            if not level:
                break
            std.append(level)
            level = {mono_mul(m, v) for m in level for v in _VAR_MONOS}
        self.std = tuple(std)
        self.top_degree = len(std) - 1
        self._mult = {}
        self._index = [
            {m: i for i, m in enumerate(level)} for level in std
        ]

    def dim(self) -> int:
        return sum(len(level) for level in self.std)

    def hilbert(self) -> HilbertData:
        return HilbertData(tuple(len(level) for level in self.std))

    def basis(self, d: int) -> tuple:
        if 0 <= d <= self.top_degree:
            return self.std[d]
        return ()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.ideal.normal_form(f)

    def index(self, mono) -> int:
        """Position of a standard monomial in basis(deg mono)."""
        d = mono_degree(mono)
        if d > self.top_degree or mono not in self._index[d]:
            raise ValueError(f"{mono} is not a standard monomial")
        return self._index[d][mono]

    def from_vector(self, d: int, vec: dict) -> Polynomial:
        """The degree-d polynomial with sparse coordinates {index: coefficient}
        over basis(d)."""
        basis = self.basis(d)
        return Polynomial(self.field, {basis[j]: c for j, c in sorted(vec.items())})

    def mult_matrix(self, var: int, d: int) -> list:
        """Matrix of multiplication by x_var from degree d to degree d+1."""
        key = (var, d)
        if key not in self._mult:
            source = self.basis(d)
            target_len = len(self.basis(d + 1))
            mat = [[self.field.zero] * len(source) for _ in range(target_len)]
            if target_len:
                for j, mono in enumerate(source):
                    image = self.ideal.normal_form(
                        Polynomial.monomial(self.field, mono_mul(mono, _VAR_MONOS[var])))
                    for m, c in image.terms.items():
                        mat[self._index[d + 1][m]][j] = c
            self._mult[key] = mat
        return self._mult[key]
