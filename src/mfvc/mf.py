"""Graded matrix factorisations, their hom complexes, and cohomology classes.

A matrix factorisation is stored through one period of the 2-periodic
sequence: the free modules K^0 and K^{-1} (lists of L-shifts) together with

    d0 : K^{-1}      -> K^0     and     d1 : K^0(-c) -> K^{-1},

whose products both equal w times the identity.  K^{i+2} = K^i(c) extends
this to the full sequence, so `MatrixFactorisation.d(n)`, the map
K^{-n-1} -> K^{-n}, is d0 for even n and d1 for odd n.

Morphism spaces are computed two ways:

* hom cohomology against the module the factorisation resolves, a shifted
  `QuotientRing` (finite graded pieces with multiplication differentials):
  one `HomCohomology` answers, per degree, `dim`, `classes`, `identify`
  and `rep_strings`.  Its Buchweitz terms are found degree-first by
  `buchweitz_pieces`, one join of the summands of the factorisations with
  the standard monomials of the modules, walked by degree, so no degree
  is probed for a term it does not have; and
* explicit chain maps between the factorisations themselves, found by exact
  linear algebra from the one hom differential D(f), whose entries
  `_boundary_vanishes` sums as {monomial: coefficient} dicts to check a
  chain map.

The two are tied together by the projection of a chain map onto the
module: `_precompose`, the one precomposition kernel, sums nf(aug . f_n)
straight into a vector over the term, looked up in a dict built per
call, and `HomCohomology.identify` reads its class coordinates off the
pivots of one reduced echelon basis.  A composite f o g is identified
from a cocycle in the class of the outer factor f alone, precomposed by
the same kernel with the one matrix of the chain map g it meets, so the
composite is never formed and f need not be lifted: `generator_cocycle`
gives the class representative of a generator as that cocycle.
"""

from ._linalg import Subspace, _div, _q, nullspace
from .grading import GroupElement
from .polyring import (
    Poly,
    QuotientRing,
    family_factor,
    family_w,
    mono_str,
    monomials_of_exact_degree,
    poly_x,
    poly_y,
)


# ---------------------------------------------------------------------------
# polynomial matrices


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = Poly()
            for t in range(k):
                if A[i][t] and B[t][j]:
                    s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_scale(A, c):
    return [[e * c for e in row] for row in A]


class MatrixFactorisation:
    """One period of an L-graded matrix factorisation of w."""

    def __init__(self, group, w, even_shifts, odd_shifts, d0, d1, module, aug, label=""):
        self.group = group
        self.w = w
        self.even_shifts = list(even_shifts)
        self.odd_shifts = list(odd_shifts)
        self.d0 = d0
        self.d1 = d1
        self.module = module  # the QuotientRing K resolves, with its shift
        self.aug = list(aug)  # projection K^0 -> module, one Poly per even summand
        self.label = label
        self._term_shifts = {}

    @property
    def rank(self):
        return len(self.even_shifts)

    def d(self, n):
        """The matrix of K^{-n-1} -> K^{-n}: d0 for even n, d1 for odd n."""
        return self.d0 if n % 2 == 0 else self.d1

    def shifted(self, l: GroupElement, label=None):
        return MatrixFactorisation(
            self.group,
            self.w,
            [a + l for a in self.even_shifts],
            [b + l for b in self.odd_shifts],
            self.d0,
            self.d1,
            self.module.shifted(l),
            self.aug,
            label or f"{self.label}({l})",
        )

    def term_shifts(self, n):
        """Shifts of the free module K^{-n}, built once per n."""
        got = self._term_shifts.get(n)
        if got is None:
            mc = (n // 2) * self.group.c
            got = self._term_shifts[n] = [a - mc for a in (self.odd_shifts if n % 2
                                                           else self.even_shifts)]
        return got

    def validate(self):
        """Check both composition identities and entry homogeneity.

        Returns a list of violation strings; empty means the factorisation
        is valid."""
        problems = []
        r = self.rank
        if len(self.odd_shifts) != r or len(self.d0) != r or len(self.d1) != r:
            return ["rank mismatch between shifts and matrices"]
        ident = [[self.w if i == j else Poly() for j in range(r)] for i in range(r)]
        prod = mat_mul(self.d0, self.d1)
        if prod != ident:
            problems.append("d0*d1 is not w*id")
        prod = mat_mul(self.d1, self.d0)
        if prod != ident:
            problems.append("d1*d0 is not w*id")
        c = self.group.c
        for s in range(r):
            for t in range(r):
                e = self.d0[s][t]
                if e:
                    want = self.even_shifts[s] - self.odd_shifts[t]
                    got = e.degree_in(self.group)
                    if got != want:
                        problems.append(
                            f"d0[{s}][{t}]={e}: expected degree {want.vec}, found "
                            f"{'inhomogeneous' if got is None else got.vec}"
                        )
                e = self.d1[s][t]
                if e:
                    want = self.odd_shifts[s] - self.even_shifts[t] + c
                    got = e.degree_in(self.group)
                    if got != want:
                        problems.append(
                            f"d1[{s}][{t}]={e}: expected degree {want.vec}, found "
                            f"{'inhomogeneous' if got is None else got.vec}"
                        )
        # the projection onto the module must kill the image of d0
        for s, img in enumerate(mat_mul([self.aug], self.d0)[0]):
            if self.module.nf(img):
                problems.append(f"module projection does not kill column {s} of d0")
        return problems

    def __repr__(self):
        return f"MF({self.label})"


# ---------------------------------------------------------------------------
# the basic objects of each family


def build_basic_object(group, label):
    """Closed-form factorisations for the basic objects of
    w = x^p y^e + x^f y^q.

    label is one of ("K0", i, j), ("Kx", i), ("Ky", j) or ("Kf",), with
    1 <= i <= p-1 and 1 <= j <= q-1.  K0(i, j) resolves R/(x^i, y^j), with

        d0 = [[x^f y^(q-j), -x^(p-i) y^e], [x^i, y^j]],
        d1 = [[y^j, x^(p-i) y^e], [-x^i, x^f y^(q-j)]],

    even degrees (c + f*x + e*y, lam), odd degrees (f*x + (j+e)*y,
    (i+f)*x + e*y) and lam = (i+f)*x + (j+e)*y.  With w = x^f y^e F and
    F = `family_factor`, the rank-one objects Kx, Ky and Kf have (d0, d1) =
    (x, y^e F), (y, x^f F) and (F, x^f y^e); Kx exists when f = 1, Ky and
    Kf when e = 1.
    """
    (p, e), (f, q) = group.exponents
    w = family_w(group.family, p, q)
    F = family_factor(group.family, p, q)
    x, y, c = group.x, group.y, group.c
    kind = label[0]

    if kind == "K0":
        _, i, j = label
        if not (1 <= i <= p - 1 and 1 <= j <= q - 1):
            raise ValueError(f"K0 index out of range: {label}")
        name = f"K0({i},{j})"
        lam = (i + f) * x + (j + e) * y
        even = [c + f * x + e * y, lam]
        odd = [f * x + (j + e) * y, (i + f) * x + e * y]
        d0 = [[Poly.monomial(f, q - j), Poly.monomial(p - i, e, -1)],
              [Poly.monomial(i, 0), Poly.monomial(0, j)]]
        d1 = [[Poly.monomial(0, j), Poly.monomial(p - i, e)],
              [Poly.monomial(i, 0, -1), Poly.monomial(f, q - j)]]
        module = QuotientRing(group, [poly_x(i), poly_y(j), w], shift=lam, label=name)
        return MatrixFactorisation(group, w, even, odd, d0, d1, module,
                                   [Poly(), Poly.constant(1)], name)

    if kind == "Kx":
        if f != 1:
            raise ValueError("Kx exists only when x divides w")
        (_, i) = label
        if not (1 <= i <= p - 1):
            raise ValueError(f"Kx index out of range: {label}")
        base = MatrixFactorisation(
            group, w, [group.zero], [-x],
            [[poly_x()]], [[Poly.monomial(0, e) * F]],
            QuotientRing(group, [poly_x(), w], label="R/(x)"),
            [Poly.constant(1)], "Kx",
        )
        return base.shifted((i + 1 - p) * x, f"Kx({i})")

    if kind in ("Ky", "Kf") and e != 1:
        raise ValueError(f"{kind} exists only when y divides w")

    if kind == "Ky":
        (_, j) = label
        if not (1 <= j <= q - 1):
            raise ValueError(f"Ky index out of range: {label}")
        base = MatrixFactorisation(
            group, w, [group.zero], [-y],
            [[poly_y()]], [[Poly.monomial(f, 0) * F]],
            QuotientRing(group, [poly_y(), w], label="R/(y)"),
            [Poly.constant(1)], "Ky",
        )
        return base.shifted((j + 1 - q) * y, f"Ky({j})")

    if kind == "Kf":
        return MatrixFactorisation(
            group, w, [group.zero], [f * x + e * y - c], [[F]], [[Poly.monomial(f, e)]],
            QuotientRing(group, [F, w], label="R/(f)"),
            [Poly.constant(1)], "Kf",
        )

    raise ValueError(f"unknown label {label!r}")


# ---------------------------------------------------------------------------
# Buchweitz hom complexes


def buchweitz_pieces(sources, targets, top):
    """The nonempty pieces of the Buchweitz terms of every hom complex from
    a factorisation in `sources` to a module in `targets` (two dicts keyed
    by label), by source, as {a: {b: {n: [(t, monomials)]}}}: summand t of
    K_a^{-n} meets the standard monomials `monomials` of M_b, a list of the
    walk of M_b.  Pairs with no nonempty term are left out.

    Summand s of K^{-n}, n = 2m + parity, has shift s - m*c, so it meets
    the standard monomials of absolute degree δ exactly when
    δ - shift(M) + s = m*c.  The summands are indexed once by the class of
    -s in L/Zc, each target's standard monomials are walked once by degree,
    each degree δ looks up the class of δ - shift(M), and m is read off the
    weight.  The cost is the staircase sizes plus the pieces found; it does
    not depend on the degrees asked for.  A finite staircase gives the
    pieces of every degree.  An infinite one (R/(x), R/(y), R/(f)) is
    walked up to the weight that complex degree `top` reaches, and its
    pieces above `top` are dropped, so its terms are exact up to `top`."""
    index = {}  # the class of -s in L/Zc -> [(a, parity, t, weight of s)]
    for a, K in sources.items():
        for parity, shifts in enumerate((K.even_shifts, K.odd_shifts)):
            for t, s in enumerate(shifts):
                index.setdefault((-s).mod_c(), []).append((a, parity, t, s.w))
    wc = next(iter(sources.values())).group.c.w
    # the largest weight over shift(M) that a piece of degree <= top has
    reach = max((top - parity) // 2 * wc - sw
                for hits in index.values() for (_, parity, _, sw) in hits)
    out = {}
    for b, M in targets.items():
        finite = M.finite
        for d, monos in M.standard_monomials_by_degree(M.shift.w + reach):
            rel = d - M.shift
            for a, parity, t, sw in index.get(rel.mod_c(), ()):
                n = 2 * ((rel.w + sw) // wc) + parity
                if finite or n <= top:
                    pair = out.setdefault(a, {}).setdefault(b, {})
                    pair.setdefault(n, []).append((t, monos))
    return out


class HomCohomology:
    """H^*(Hom(K (x) R, M)) for a factorisation K and a module M = R(l)/I,
    given as a QuotientRing whose shift is l.

    Terms are direct sums of exact graded pieces of M indexed by the
    summands of K^{-n}; differentials precompose with the structure maps of
    K.  Basis vectors are (summand, monomial) coordinates, found by
    position in a dict of the term built per call (`_outside` if absent).

    The terms are read off `pieces`, the pair's {n: [(t, monomials)]} from
    `buchweitz_pieces` run up to degree `top`: each walk of a
    `bside.HomTable` passes each pair of a source its entry in that
    source's slice, and `composition_table` gives a pair with no nonempty
    term no pieces.  For a finite staircase every degree is known, and
    every degree without a piece is empty.  For an infinite one (R/(x),
    R/(y), R/(f)) the terms are known up to degree `top`, and term(n)
    raises ArithmeticError above it, naming the pair and the degree.

    Each differential is eliminated once, as the `Subspace` of its
    columns, which is the image in the next degree: `dim(n)` is
    |term(n)| - rank d_n - rank d_(n-1), read off two images.  Only
    `classes(n)`, which the representatives are read from, runs
    `nullspace` on d_n; `identify` and `rep_strings` read those classes.
    """

    def __init__(self, K: MatrixFactorisation, module: QuotientRing, top, pieces):
        self.K = K
        self.module = module
        # the last degree whose term is known; None when every degree is
        self.top = None if module.finite else top
        # n -> [(t, monomials)] for a nonempty term not yet read
        self._pieces = pieces
        # n -> term(n), once read and nonempty; perfbench's pre-hook on
        # `term` tests n in it to count each term once, so it stays a dict
        # keyed by n
        self._terms = {}
        self._images = {}
        self._classes = {}

    def term(self, n):
        """The (summand, monomial) coordinates of degree n, in summand order
        and by `mono_key` within a summand."""
        got = self._terms.get(n)
        if got is None:
            if self.top is not None and n > self.top:
                M = self.module
                raise ArithmeticError(
                    f"degree {n} of the hom complex from {self.K.label} to {M.label} shifted "
                    f"by {M.shift.vec} lies above degree {self.top}, the last one enumerated")
            pieces = self._pieces.pop(n, None)  # kept once, as pieces or as a term
            if pieces is None:
                return []  # an empty term is not kept
            got = self._terms[n] = [(t, mono) for t, monos in sorted(pieces) for mono in monos]
        return got

    def _outside(self, n, key):
        """The ArithmeticError for a (summand, monomial) key outside term(n)."""
        t, m = key
        return ArithmeticError(
            f"(summand, monomial) ({t}, {mono_str(m)}) is outside the degree-{n} "
            f"Buchweitz term of the hom complex from {self.K.label}")

    def diff(self, n):
        """Images of the basis vectors of term(n) in term(n+1): one sparse
        column {term(n+1) index: coefficient} per term(n) coordinate.  Built
        on each call: `image(n + 1)` and `classes(n)` read it, each once.
        An image outside term(n+1) raises `_outside`'s ArithmeticError."""
        tgt_index = {c: i for i, c in enumerate(self.term(n + 1))}
        P = self.K.d(n)
        nf_mono = self.module.nf_mono
        got = []
        for (t, (u, v)) in self.term(n):
            # column sum_s sum_m c * nf(x^u y^v m) at (s, .), no Poly formed
            col = {}
            for s, entry in enumerate(P[t]):
                for (a, b), c in entry.terms.items():
                    for pm, pc in nf_mono((a + u, b + v)).terms.items():
                        try:
                            i = tgt_index[(s, pm)]
                        except KeyError:
                            raise self._outside(n + 1, (s, pm)) from None
                        x = col.get(i, 0) + c * pc
                        if x:
                            col[i] = x if type(x) is int else _q(x)
                        else:
                            del col[i]
            got.append(col)
        return got

    def image(self, n):
        """The image of d_(n-1) in term(n), the coboundaries of degree n, as
        the `Subspace` of the columns of diff(n - 1)."""
        got = self._images.get(n)
        if got is None:
            if not (self.term(n) and self.term(n - 1)):
                return _NO_IMAGE  # the image of a zero map is not kept
            got = self._images[n] = Subspace(col for col in self.diff(n - 1) if col)
        return got

    def dim(self, n):
        """dim H^n = |term(n)| - rank d_n - rank d_(n-1), from the images of
        degrees n + 1 and n; no representatives are built."""
        size = len(self.term(n))
        if not size:
            return 0
        return size - len(self.image(n + 1).basis) - len(self.image(n).basis)

    def classes(self, n):
        """The cocycles of degree n reduced against image(n), as a
        `Subspace`: the rows of its echelon basis, in the order their pivots
        were found, are the class representatives."""
        got = self._classes.get(n)
        if got is None:
            src = self.term(n)
            im = self.image(n)
            if src:
                # the kernel needs the rows of the outgoing differential
                rows = {}
                for j, col in enumerate(self.diff(n)):
                    for i, a in col.items():
                        rows.setdefault(i, {})[j] = a
                got = Subspace(im.reduce(v) for v in nullspace(list(rows.values()), len(src)))
            else:
                got = im  # zero cohomology and no differentials to build
            self._classes[n] = got
        return got

    def identify(self, n, vector):
        """Coordinates of a cocycle's class in the representative basis of
        degree n, as a list; vector is a sparse vector over term(n).
        ArithmeticError if vector is not a cocycle."""
        classes = self.classes(n)
        red = self.image(n).reduce(vector)
        if not classes.contains(red):
            raise ArithmeticError("vector is not a cocycle of this degree")
        return [red.get(p, 0) for p in classes.basis]

    def rep_strings(self, n):
        """The class representatives of degree n as text, one term
        coeff*monomial@summand per coordinate."""
        coords = self.term(n)
        out = []
        for rep in self.classes(n).basis.values():
            parts = []
            for k in sorted(rep):
                c = rep[k]
                t, mono = coords[k]
                coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{coeff}{mono_str(mono)}@{t}")
            out.append(" + ".join(parts).replace("+ -", "- ") or "0")
        return out


_NO_IMAGE = Subspace()  # the image of a zero map; never added to


# ---------------------------------------------------------------------------
# chain maps between factorisations


class MFMorphism:
    """A degree-n map of matrix factorisations, stored as the two matrices
    f0 : K^0 -> H^n and f1 : K^{-1} -> H^{n-1}.

    A morphism is not modified after construction, so the chain-map check
    runs once and its answer is kept."""

    def __init__(self, source, target, degree, f0, f1):
        self.source = source
        self.target = target
        self.degree = degree
        self.f0 = f0
        self.f1 = f1
        self._is_chain_map = None

    def component(self, k):
        """The matrix f_k on K^{-k}, into H^{n-k}: f0 for even k, f1 for odd k."""
        return self.f0 if k % 2 == 0 else self.f1

    def is_chain_map(self):
        """Whether the hom differential D(f) of `_boundary_vanishes` is zero."""
        if self._is_chain_map is None:
            self._is_chain_map = _boundary_vanishes(self)
        return self._is_chain_map


def _entry_degrees(K, H, n):
    """Exact L-degrees of the entries of (f0, f1) for a degree-n morphism:
    f_k maps K^{-k} to H^{n-k}."""
    return tuple([[a - b for b in K.term_shifts(k)] for a in H.term_shifts(k - n)]
                 for k in (0, 1))


def _boundary_vanishes(f):
    """Whether the hom differential of the degree-n map f : K -> H is zero:
    on K^{-k-1}, for k = 1 and k = 0,

        D(f) = H.d(k-n) f_{k+1} - (-1)^n f_k K.d(k).

    Each entry of D(f) is summed as one {monomial: coefficient} dict, no
    Poly formed, and the first nonzero entry answers False."""
    K, H, n = f.source, f.target, f.degree
    sign = 1 if n % 2 else -1
    for k in (1, 0):
        hd, after, before, kd = H.d(k - n), f.component(k + 1), f.component(k), K.d(k)
        for r in range(H.rank):
            for t in range(K.rank):
                products = [(1, hd[r][s], after[s][t]) for s in range(H.rank)]
                products += [(sign, before[r][s], kd[s][t]) for s in range(K.rank)]
                acc = {}
                for c, left, right in products:
                    for (a, b), c1 in left.terms.items():
                        for (u, v), c2 in right.terms.items():
                            m = (a + u, b + v)
                            x = acc.get(m, 0) + c * c1 * c2
                            if x:
                                acc[m] = x
                            else:
                                del acc[m]
                if acc:
                    return False
    return True


def _precompose(outer, G, cohom, n):
    """The sparse vector over cohom.term(n) of nf(outer . G): outer is a
    row, one Poly per row of the matrix G, and the normal form is that of
    cohom.module.  The products c1*c2*nf(m1*m2) are summed into one
    {(summand, monomial): coefficient} dict, no Poly formed, and only the
    keys that survive the sum are looked up, in a dict of term(n) built per
    call: between basic objects the terms a projection meets hold at most
    two coordinates (all 90,508 calls at loop(12,12) do), so no index is
    kept.  ArithmeticError if outer and G do not match in length, or
    (`_outside`) if a key lies outside the degree-n term."""
    if len(outer) != len(G):
        raise ArithmeticError(f"a row of {len(outer)} entries cannot precompose a map from "
                              f"{len(G)} summands")
    nf_mono = cohom.module.nf_mono
    sums = {}
    for j in range(len(G[0])):
        for z, row in zip(outer, G):
            entry = row[j].terms
            for (a, b), c1 in z.terms.items():
                for (u, v), c2 in entry.items():
                    for m, c3 in nf_mono((a + u, b + v)).terms.items():
                        key = (j, m)
                        x = sums.get(key, 0) + c1 * c2 * c3
                        if x:
                            sums[key] = x if type(x) is int else _q(x)
                        else:
                            del sums[key]
    index = {c: i for i, c in enumerate(cohom.term(n))}
    try:
        return {index[key]: c for key, c in sums.items()}
    except KeyError as exc:
        raise cohom._outside(n, exc.args[0]) from None


def chain_map_space(K, H, n):
    """Basis of the space of degree-n chain maps K -> H, as MFMorphisms.

    An unknown is the coefficient of one monomial in the entry (s, t) of
    f_which.  In D(f) (see `_boundary_vanishes`) it meets H.d in the
    component k = 1 - which and K.d in the component k = which; one
    equation per (component, row, column, monomial) of D(f)."""
    degs = _entry_degrees(K, H, n)
    unknowns = [(which, s, t, mono)
                for which in (0, 1) for s in range(H.rank) for t in range(K.rank)
                for mono in monomials_of_exact_degree(K.group, degs[which][s][t])]
    if not unknowns:
        return []
    hd = [H.d(which - 1 - n) for which in (0, 1)]
    kd = [K.d(which) for which in (0, 1)]
    sign = 1 if n % 2 else -1
    equations = {}

    def add(key, j, c):
        row = equations.setdefault(key, {})
        row[j] = row.get(j, 0) + c

    for j, (which, s, t, (u, v)) in enumerate(unknowns):
        for r, hrow in enumerate(hd[which]):
            for (a, b), c in hrow[s].terms.items():
                add((1 - which, r, t, (a + u, b + v)), j, c)
        for r, entry in enumerate(kd[which][t]):
            for (a, b), c in entry.terms.items():
                add((which, s, r, (a + u, b + v)), j, sign * c)

    basis = nullspace([{j: c for j, c in row.items() if c} for row in equations.values()],
                      len(unknowns))
    out = []
    for vec in basis:
        f = tuple([[Poly() for _ in range(K.rank)] for _ in range(H.rank)] for _ in (0, 1))
        for k, val in vec.items():
            which, s, t, mono = unknowns[k]
            f[which][s][t] = f[which][s][t] + Poly.monomial(*mono) * val
        out.append(MFMorphism(K, H, n, *f))
    return out


def _generator_class(cohom, n):
    """The one class representative of a degree-n hom; ArithmeticError
    unless the hom is one-dimensional."""
    basis = cohom.classes(n).basis
    if len(basis) != 1:
        raise ArithmeticError(f"the degree-{n} hom has dimension {len(basis)}, not 1")
    [rep] = basis.values()
    return rep


def generator_morphism(K, H, n, cohom: HomCohomology):
    """A chain map whose Buchweitz class is exactly the generator of a
    one-dimensional hom: the first chain map whose class coordinate a is
    nonzero, divided by a.

    ArithmeticError if the degree-n hom is not one-dimensional, or if no
    chain map hits its class, which the equivalence between the two hom
    models rules out for the factorisations in this package.
    """
    _generator_class(cohom, n)
    for f in chain_map_space(K, H, n):
        # the projection nf(aug_H . f_n) onto the module, read as a vector
        [a] = cohom.identify(n, _precompose(H.aug, f.component(n), cohom, n))
        if a:
            inv = _div(1, a)
            return MFMorphism(K, H, n, mat_scale(f.f0, inv), mat_scale(f.f1, inv))
    raise ArithmeticError("no chain map lifts the cohomology class")


def generator_cocycle(cohom: HomCohomology, n):
    """The generator of a one-dimensional degree-n hom as a cocycle: its
    class representative, written as a row of normal forms, one per summand
    of K^{-n}.  Its class coordinate is [1], as is that of
    `generator_morphism`'s lift, so it is the lift's projection up to a
    coboundary, and it stands in for the lift as an outer factor of
    `compose_and_identify`.  ArithmeticError unless the hom is
    one-dimensional."""
    coords = cohom.term(n)
    terms = [{} for _ in cohom.K.term_shifts(n)]
    for k, c in _generator_class(cohom, n).items():
        t, mono = coords[k]
        terms[t][mono] = c
    return [Poly(t) for t in terms]


def compose_and_identify(outer, degree, g: MFMorphism, cohom: HomCohomology):
    """Class coordinates of z o g in the cohomology basis of the target,
    for a degree-`degree` cocycle z from g.target to cohom.module.

    outer is z as a row of normal forms, one per summand of g.target's
    K^{-degree}: the projection of a chain map, or a class representative
    from `generator_cocycle`.  g must be a chain map, else ArithmeticError;
    cohom is the hom cohomology of (g.source, the module).  The composite
    is not formed: on K^{-n}, n = degree + deg g, its projection is
    nf(z . g_n), and `_precompose` sums it straight into a vector.  The
    normal form is linear modulo the ideal, and precomposing a coboundary
    with a chain map gives a coboundary, so the class of the composite
    depends only on the class of z.  A row whose length is not the number
    of summands raises ArithmeticError.
    """
    if not g.is_chain_map():
        raise ArithmeticError("compose_and_identify requires chain maps")
    n = degree + g.degree
    return cohom.identify(n, _precompose(outer, g.component(n), cohom, n))
