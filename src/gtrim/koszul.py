"""Koszul complex homology over an artinian graded quotient R = Q/a.

The complex is the exterior algebra on e_x, e_y, e_z over R with
differential e_x -> x (and so on), so H_i lives in internal degrees
(coefficient plus exterior degree) 0 to top_degree(R) + 3.  The differential
is written once, as one sparse column per basis element of K_{i,d} over the
standard monomials (`_diff_column`).  d_2 is eliminated at most once per
internal degree, column by column, with tags: the relations among its
columns are the cycles, and the rows left behind span the boundaries below;
d_3 is eliminated only for its image, d_1 never.  Words {word: {monomial:
coefficient}} enter coordinates one way, `_vectors`, one normal-form table
entry per monomial, and products are formed one way, `_product`: the words
of two factors multiply with their exterior sign, each product monomial
reads one entry.

The homology is built only where it can be non-zero.  H_i(K^R)_d is
Tor_i(R, k)_d, so H_0 is k in degree 0, and H_1 = a/ma lives only in the
degrees of the input generators and is read off them: `_generator_cycle`
sends g = x f_x + y f_y + z f_z to the cycle f_x e_x + f_y e_y + f_z e_z,
and these cycles span H_1.  H_3,d is the socle of R in degree d - 3, read
exactly off the normal-form table (`QuotientRing.socle`, after Bayer-
Stillman); its vectors are the A_3 representatives.  The Euler
characteristic of the degree then counts the one H_i left to find, so d_2
runs only where H_2 lives or H_1 can, and d_3 only for the boundaries of a
live H_2.  Where A is zero a cycle's class is zero.

A weight w grades R too if every generator is homogeneous for it: w.u = 0
for the exponent differences u within each, a lattice in a + b + c = 0.
`_weights` gives none at rank 2, two at rank 0, and at rank 1, spanned by v,
v x (1, 1, 1) over its content: x -> 1, y -> -1, z -> 0 for g_m and its trims
(x*g, y*g, z*g are homogeneous).  With e_x, e_y, e_z weighing as x, y, z,
d keeps w.  Every class is homogeneous (else RuntimeError), as `_diff_column`,
the table, the socle, gamma and the generator cycles are, and `Echelon` only
combines rows of one weight.  So [a][b] is formed only where `_partners` finds
A_{i+j} at deg a + deg b, w_a + w_b in `_at`, the classes by degree, then weight.

A ring R' derived from the family's R at g of degree e takes its homology
from R's complex (`table` passes one per m as `family`, else it is built),
by the long exact sequence of 0 -> k*gamma(-e) -> R' -> R -> 0 (Bruns-
Herzog, 1.6).  If g is minimal, std'_e = std_e + {t} and gamma = t - NF_R(t)
(NF_R(t) = 0 at e = top_degree(R) + 1); otherwise R' = R and nothing
changes.  m*gamma = 0, so K(k*gamma) = Lambda (x) k*gamma(-e) has zero
differential, and in internal degree d, with s = d - i the coefficient degree:
- s not e - 1, e: H_i(R')_d = H_i(R)_d, with the family's representatives,
  whose coordinates are the same; so outside d = e - 1 .. e + 3 the trim
  takes the family's classes by degree and walks nothing.
- s = e - 1: H_i(R')_d = ker delta_i, where delta_i(z) is the t-coordinate
  of the trim's boundary of z, from the t-coordinates c_k(x_v*b)/c_k(t) of
  NF'(x_v*b), b in std_e-1, read off the family's generator solve
  (`QuotientRing._derive`); nothing is eliminated.
- s = e: H_i(R')_d is Lambda_i*gamma / im delta_i+1, the gamma*e_w for the
  words kept greedily in WORDS order past the kernel span's rows, plus the
  family's representatives re-indexed into std'_e.
Every degree is checked against sum (-1)^i h_i,d = chi_d.  A derived ring
solves in its own spaces, each built on its first solve: its own
boundaries, then its classes.

The class is read from A = H(K^R) alone: A_0 = 0 is the unit ideal, an A_1
class in internal degree 1 is a linear minimal generator, and the products
on A give the invariants (p, q, r) of the Tor-algebra classification.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import ClassificationScopeError, UnitIdealError
from .ideals import QuotientRing
from .linalg import Echelon

WORDS = (((),), ((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
WORD_INDEX = tuple({w: k for k, w in enumerate(level)} for level in WORDS)


def wedge_words(a: tuple, b: tuple):
    """(sign, merged word) for e_a ^ e_b, or None when a letter repeats."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for p in a for q in b if p > q)
    return (-1 if inversions % 2 else 1, tuple(sorted(a + b)))


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


def _generator_cycle(g) -> dict:
    """The words of f_x e_x + f_y e_y + f_z e_z for g = x f_x + y f_y + z f_z,
    no constant term, each term of g split at its first variable (x, else y,
    else z).  Its boundary is g, so it is a cycle whenever g lies in the ideal."""
    parts = ({}, {}, {})
    for mono, c in g.terms.items():
        v = 0 if mono[0] else 1 if mono[1] else 2
        parts[v][mono[:v] + (mono[v] - 1,) + mono[v + 1:]] = c
    return {(v,): t for v, t in enumerate(parts) if t}


def _weights(gens) -> tuple:
    """The weights for which every generator is homogeneous (module docstring)."""
    diffs = [(a - p, b - q, c - r) for g in gens for (p, q, r) in list(g.terms)[:1]
             for a, b, c in g.terms if (a, b, c) != (p, q, r)]
    if not diffs:
        return ((1, -1, 0), (0, 1, -1))
    a, b, c = diffs[0]
    w = (b - c, c - a, a - b)  # v x (1, 1, 1), then over its content, first entry > 0
    w = tuple(x // (gcd(*w) if next(filter(None, w)) > 0 else -gcd(*w)) for x in w)
    return (w,) if all(sum(x * y for x, y in zip(w, u)) == 0 for u in diffs) else ()


class KoszulComplex:
    """Homology of the Koszul complex of a quotient ring, with multiplication."""

    def __init__(self, ring: QuotientRing, family: KoszulComplex | None = None):
        if family is not None and (ring.parent is None or ring.parent[0] is not family.ring):
            raise ValueError("family is not the complex of the ring this ring is derived from")
        if family is None and ring.parent is not None:
            family = KoszulComplex(ring.parent[0])
        self.ring, self.family, self.field = ring, family, ring.field
        self._weights = _weights(ring.ideal.generators) if family is None else family._weights
        self._reps = ([], [], [], [])  # per exterior degree: (internal degree, cycle)
        self._classes = {}  # (i, d) -> Echelon: boundaries untagged, representatives
        # tagged; for a derived ring None until its first solve
        self._inv = None
        # per class of A_i: (internal degree, {word: {monomial: coefficient}}, weight)
        self._words = ([], [], [], [])
        if family is None:
            self._build_homology()
            for i, reps in enumerate(self._reps):
                self._words[i].extend(self._word(i, d, vec) for d, vec in reps)
        else:
            self._derive_homology()
        self._at = ({}, {}, {}, {})  # per exterior degree: internal degree -> weight -> classes
        for at, words in zip(self._at, self._words):
            for s, (d, _, w) in enumerate(words):
                at.setdefault(d, {}).setdefault(w, []).append(s)

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
        a, b, c = source[k % len(source)]
        shifted = ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))
        col = {}
        for t, letter in enumerate(w):
            base = WORD_INDEX[i - 1][w[:t] + w[t + 1:]] * h_tgt
            entry = ring._entry(shifted[letter])
            if t % 2:
                for r, val in entry.items():
                    col[base + r] = f.neg(val)
            else:
                for r, val in entry.items():
                    col[base + r] = val
        return col

    def _build_homology(self):
        """A_i of a walked ring (no parent) only where it can be non-zero, each
        H_i,d counted before its elimination.  H_3,d is `socle(d - 3)`, its vectors the
        A_3 representatives (K_3 = R e_xyz).  H_0 lives only at d = 0 and H_1
        only in the generator degrees, so elsewhere the Euler characteristic
        sum (-1)^i dim H_i,d = chi_d gives h_2 = chi_d + h_3, and d_2 stops at
        the last class.  In a generator degree the whole d_2 runs: h_2 is its
        nullity less rank d_3 = dim K_3,d - h_3, and h_1 follows from chi_d;
        the `_generator_cycle`s of the degree-d input generators, in input
        order, span H_1.  The image of d_3, the boundaries for H_2, is built
        only when h_2 > 0.  Nothing runs, and no `_classes` entry is made,
        for an H_i,d that is 0."""
        ring, f = self.ring, self.field
        gens = ring.ideal.generators
        gen_degrees = {g.degree() for g in gens}
        for d in range(ring.top_degree + 4):
            chi = sum((-1) ** i * self.component_size(i, d) for i in range(4))
            socle = ring.socle(d - 3)
            h3 = len(socle)
            if h3:
                self._keep(3, d, Echelon(f), socle, h3)
            if d == 0 and chi:  # H_0 = k = K_0,0; with R = 0 nothing below runs
                self._keep(0, d, Echelon(f), [{0: f.one}], 1)
            elif d not in gen_degrees:
                if chi + h3:
                    self._keep(2, d, self._boundaries(2, d), self._cycles(d, Echelon(f)), chi + h3)
            else:
                image = Echelon(f)  # its rows, with no tags, are the boundaries for H_1
                cycles = list(self._cycles(d, image))
                h2 = len(cycles) - (self.component_size(3, d) - h3)  # less rank d_3
                if h2:
                    self._keep(2, d, self._boundaries(2, d), cycles, h2)
                h1 = h2 - h3 - chi  # chi_d = -h_1 + h_2 - h_3 here
                if h1:
                    gen_cycles = (self._vectors(_generator_cycle(g)).get(d, {})
                                  for g in gens if g.degree() == d)
                    untagged = {p: (row, {}) for p, (row, _) in image.rows.items()}
                    self._keep(1, d, Echelon(f, untagged), gen_cycles, h1)

    def _derive_homology(self):
        """The homology of a ring derived from the family's (module docstring).
        Only internal degrees e - 1 to e + 3 hold a coefficient degree e - 1
        or e; everywhere else the trim takes the family's classes, read off
        `_reps` and `_words` by degree, and checks chi_d on their counts in
        `_at`.  In those degrees it runs exterior degrees 3 down to 0, so that
        the image of delta_i+1 is in the span where Lambda_i*gamma is cut by
        it.  A class is (its coordinates, the index k of the family class it
        is), whose words `fam._words[i][k]` it reuses, or None where it is
        new: gamma*e_w, or a kernel vector of more than one term.  Every space
        is deferred to `_space`.  Raises RuntimeError when a degree misses chi_d."""
        fam, ring, f = self.family, self.ring, self.field
        _, e, cut = ring.parent
        lo, hi = (e - 1, e + 4) if cut else (0, 0)  # empty where R' = R
        for d in (d for d in range(ring.top_degree + 4) if not lo <= d < hi):
            counts = (sum(map(len, fam._at[i].get(d, {}).values())) for i in range(4))
            if sum((-1) ** i * (h - self.component_size(i, d)) for i, h in enumerate(counts)):
                raise RuntimeError(f"the classes derived in internal degree {d} miss chi_d")
        window = ([], [], [], [])  # per exterior degree: (d, cycle, words) in lo..hi - 1
        if cut:
            gamma, ratio = cut
            n, old = len(ring.basis(e)), len(fam.ring.basis(e))
            into = [ring._index[e][b] for b in fam.ring.basis(e)]
            at_t = {(v, j): r for j, (a, b, c) in enumerate(ring.basis(e - 1))  # c_k(x_v b)/c_k(t)
                    for v, u in enumerate(((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)))
                    if (r := ratio.get(u)) is not None}
        for d in range(lo, hi):
            span, euler = Echelon(f), 0  # the image of delta_i+1 at d - i = e - 1, cut at d - i = e
            for i in (3, 2, 1, 0):  # the family's classes here, (index, cycle), in index order
                ks = sorted(sum(fam._at[i].get(d, {}).values(), []))
                here = [(k, fam._reps[i][k][1]) for k in ks]
                if d - i == e - 1:  # the kernel of delta_i, one relation per class
                    classes = []
                    for k, vec in here:
                        if (rel := span.add(self._delta(i, d, vec, at_t), tag=k)) is not None:
                            vec = {}
                            for k2, c in rel.items():
                                f.sub_multiple(vec, f.neg(c), fam._reps[i][k2][1])
                            classes.append((vec, k if len(rel) == 1 else None))
                elif d - i == e:  # Lambda_i*gamma less the image of delta_i+1, then the family's
                    classes = [({w * n + j: c for j, c in gamma.items()}, None)
                               for w in range(len(WORDS[i])) if span.add({w: f.one}) is None]
                    classes += [({k // old * n + into[k % old]: c for k, c in vec.items()}, k)
                                for k, vec in here]
                else:
                    classes = [(vec, k) for k, vec in here]
                window[i].extend((d, vec, self._word(i, d, vec) if k is None else fam._words[i][k])
                                 for vec, k in classes)
                euler += (-1) ** i * (len(classes) - self.component_size(i, d))
            if euler:
                raise RuntimeError(f"the classes derived in internal degree {d} miss chi_d")
        for i, own in enumerate(window):  # the family's before lo, the window's, then from hi
            reps, words = fam._reps[i], fam._words[i]
            a, b = (sum(d < x for d, _ in reps) for x in (lo, hi))
            self._reps[i].extend(reps[:a] + [(d, vec) for d, vec, _ in own] + reps[b:])
            self._words[i].extend(words[:a] + [w for *_, w in own] + words[b:])
        self._classes = dict.fromkeys((i, d) for i, reps in enumerate(self._reps) for d, _ in reps)

    def _delta(self, i: int, d: int, vec: dict, at_t: dict) -> dict:
        """delta_i of a cycle of R in K_{i,d}, d - i = e - 1: the coordinate at
        t of its boundary in K(R'), per word of Lambda_{i-1}, from at_t[v, j],
        the t-coordinate of NF'(x_v b_j)."""
        f, n, out = self.field, len(self.ring.basis(d - i)), {}
        for k, c in vec.items():
            w = WORDS[i][k // n]
            for p, letter in enumerate(w):
                if (x := at_t.get((letter, k % n))) is not None:
                    f.sub_multiple(out, f.mul(x, c if p % 2 else f.neg(c)),
                                   {WORD_INDEX[i - 1][w[:p] + w[p + 1:]]: f.one})
        return out

    def _boundaries(self, i: int, d: int) -> Echelon:
        """The image of d_{i+1} in K_{i,d}: every column, with no tags."""
        image = Echelon(self.field)
        for c in range(self.component_size(i + 1, d)):
            image.add(self._diff_column(i + 1, d, c))
        return image

    def _cycles(self, d: int, image: Echelon):
        """The cycles of K_2,d, lazily, from one elimination of the columns of
        d_2 into `image`, each tagged by its index: every column that depends
        on the earlier ones yields its relation.  Together they span the kernel."""
        return (rel for c in range(self.component_size(2, d))
                if (rel := image.add(self._diff_column(2, d, c), tag=c)) is not None)

    def _keep(self, i: int, d: int, space: Echelon, cycles, count: int):
        """Append to `_reps[i]` each cycle (coordinates in K_{i,d}) that is
        independent of `space`, the boundaries with no tags, and of the
        representatives before it, tagged by its class index, until `count`
        classes are kept; `space` becomes `_classes[(i, d)]`.  The count is
        exact (the socle, or the Euler characteristic), so running out raises."""
        reps = self._reps[i]
        stop = len(reps) + count
        for cycle in cycles:
            if space.add(cycle, tag=len(reps)) is None:
                reps.append((d, cycle))
                if len(reps) == stop:
                    break
        else:
            raise RuntimeError(f"H_{i},{d}: the cycles span fewer than {count} classes")
        self._classes[(i, d)] = space

    def ranks(self) -> tuple:
        return tuple(len(reps) for reps in self._reps)

    # ---- words and coordinates -------------------------------------------

    def _terms(self, i: int, vecs: dict) -> dict:
        """Coordinates {d: vec} in K_i as {word: {monomial: coefficient}}."""
        terms = {}
        for d, vec in vecs.items():
            basis = self.ring.basis(d - i)
            for k, c in vec.items():
                terms.setdefault(WORDS[i][k // len(basis)], {})[basis[k % len(basis)]] = c
        return terms

    def _word(self, i: int, d: int, vec: dict) -> tuple:
        """(d, words, weight) of the class vec in K_{i,d}: its terms share one."""
        terms = self._terms(i, {d: vec})
        found = {tuple(sum(x * (mono[v] + (v in word)) for v, x in enumerate(w)) for w in self._weights)
                 for word, t in terms.items() for mono in t}
        if len(found) != 1:
            raise RuntimeError(f"a class of H_{i},{d} has terms of two weights")
        return d, terms, found.pop()

    def _partners(self, i: int, s: int, k: int) -> list:
        """The classes of A_(k-i) whose product with class s of A_i lands on the (degree,
        weight) of a class of A_k, by `_at`: A_k degrees with none at the difference are skipped."""
        d, _, w = self._words[i][s]
        into = self._at[k - i]
        return [t for dk, weights in self._at[k].items() if (there := into.get(dk - d))
                for wk in weights for t in there.get(tuple(map(int.__sub__, wk, w)), ())]

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
                    f.sub_multiple(terms, f.neg(c1) if sign > 0 else c1,
                                   {(a + p, b + q, c + r): c2 for (p, q, r), c2 in t2.items()})
        return self._vectors(comps)

    def _class_coords(self, i: int, vecs: dict) -> list:
        """The class coordinates over the A_i basis of a cycle {d: vec} in K_i;
        each d must have a `_classes` entry, as every (i, d) of `_at` has."""
        coords = [self.field.zero] * len(self._reps[i])
        for d, vec in sorted(vecs.items()):
            sol = self._space(i, d).solve(vec)
            if sol is None:
                raise ValueError(f"element is not a cycle (internal degree {d})")
            for k, c in sol.items():
                coords[k] = c
        return coords

    def _space(self, i: int, d: int):
        """`_classes[(i, d)]`; a derived ring deferred every one, and builds
        it now: its own boundaries, then its classes, each tagged by its
        index, which must all be independent."""
        if self._classes[i, d] is None:
            space = self._boundaries(i, d)
            for k, (deg, vec) in enumerate(self._reps[i]):
                if deg == d and space.add(vec, tag=k) is not None:
                    raise RuntimeError(f"H_{i},{d}: the derived classes are not independent")
            self._classes[i, d] = space
        return self._classes[i, d]

    def class_product(self, i: int, s: int, j: int, t: int) -> list:
        """Class coordinates of basis class s of A_i times basis class t of A_j,
        formed by `_product`; zero, not formed, unless t is among s's `_partners`:
        deg s + deg t, w_s + w_t is a cell of `_at[i + j]`.  Degrees outside 0..3
        or past 3 in sum, and class indices out of range, are refused."""
        if min(i, j) < 0 or i + j > 3:
            raise ValueError(f"exterior degrees {i} and {j} are not in 0..3" if min(i, j) < 0
                             else "product lands beyond exterior degree 3")
        if not (0 <= s < len(self._words[i]) and 0 <= t < len(self._words[j])):
            raise IndexError(f"A_{i} x A_{j} has no class pair ({s}, {t})")
        (ds, u, ws), (dt, v, wt) = self._words[i][s], self._words[j][t]
        if tuple(map(int.__add__, ws, wt)) not in self._at[i + j].get(ds + dt, {}):
            return [self.field.zero] * len(self._reps[i + j])
        return self._class_coords(i + j, self._product(u, v))

    # ---- invariants and classification ------------------------------------

    def invariants(self) -> TorInvariants:
        """(p, q, r) from A_1 x A_1 -> A_2 and A_1 x A_2 -> A_3, one `class_product` per
        pair of basis classes that meets: each A_1 class with its later `_partners` in
        A_2, each A_2 class with its `_partners` in A_3."""
        if self._inv is None:
            _, n1, n2, n3 = self.ranks()
            p_span, q_span, r_span = (Echelon(self.field) for _ in range(3))
            for prod in (self.class_product(1, s, 1, t) for s in range(n1)
                         for t in self._partners(1, s, 2) if t > s):
                p_span.add(prod)
            for g in range(n2):  # r: the rank of A_2 -> Hom(A_1, A_3)
                prods = {e: self.class_product(1, e, 2, g) for e in self._partners(2, g, 3)}
                for prod in filter(any, prods.values()):  # a zero product adds nothing
                    q_span.add(prod)
                r_span.add({e * n3 + k: c for e, v in prods.items() for k, c in enumerate(v) if c})
            self._inv = TorInvariants(p=p_span.rank, q=q_span.rank, r=r_span.rank,
                                      mu=n1, type_rank=n3)
        return self._inv

    def classify(self) -> TorClass:
        """The class of R; the scope is read from A: A_0 = k unless R = 0, and
        A_1 in internal degree d counts the degree-d minimal generators."""
        if not self._reps[0]:
            raise UnitIdealError("minimal generators are only defined for ideals inside (x, y, z)")
        if 1 in self._at[1]:
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
