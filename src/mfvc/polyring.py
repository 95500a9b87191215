"""Exact bivariate polynomial arithmetic over Q, Groebner normal forms, and
enumeration of graded pieces of quotient rings.

Monomials are plain (u, v) exponent tuples, polynomials are dicts mapping
monomials to nonzero exact coefficients in the canonical form of `_linalg`:
an `int` when integral, a `Fraction` otherwise.  The monomial order is degree-reverse-
lexicographic with x > y, fixed globally; for two variables this is the
order on the keys (u+v, -v).

Dimensions over Q equal dimensions over C for everything in this package,
since all ideals and differentials have integer coefficients.
"""

from copy import copy
from fractions import Fraction

from ._linalg import _div, _q
from .families import exponents
from .grading import GradingGroup, GroupElement


# ---------------------------------------------------------------------------
# monomial helpers


def mono_key(m):
    """Sort key realizing degrevlex with x > y."""
    return (m[0] + m[1], -m[1])


def mono_mul(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mono_divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def mono_div(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mono_lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def mono_str(m):
    u, v = m
    if u == 0 and v == 0:
        return "1"
    parts = []
    if u:
        parts.append("x" if u == 1 else f"x^{u}")
    if v:
        parts.append("y" if v == 1 else f"y^{v}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Bivariate polynomial with exact rational coefficients, each held as
    an `int` when integral and as a `Fraction` otherwise."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = _q(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def monomial(cls, u, v, coeff=1):
        return cls({(u, v): coeff})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s if type(s) is int else _q(s)
            else:
                res.pop(m, None)
        out = Poly.__new__(Poly)
        out.terms = res
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            out = Poly.__new__(Poly)
            out.terms = {m: _q(c * other) for m, c in self.terms.items()}
            return out
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s if type(s) is int else _q(s)
                else:
                    del res[m]
        out = Poly.__new__(Poly)
        out.terms = res
        return out

    __rmul__ = __mul__

    def lead(self):
        """(monomial, coeff) of the leading term."""
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def monic(self):
        if not self.terms:
            return self
        _, c = self.lead()
        return self * _div(1, c)

    def degree_in(self, group):
        """The common L-degree of all terms, or None if inhomogeneous."""
        deg = None
        for (u, v) in self.terms:
            d = group.element(u, v)
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return deg

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            s = mono_str(m)
            if c == 1 and m != (0, 0):
                parts.append(s)
            elif c == -1 and m != (0, 0):
                parts.append(f"-{s}")
            elif m == (0, 0):
                parts.append(str(c))
            else:
                parts.append(f"{c}*{s}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


def poly_x(n=1):
    return Poly.monomial(n, 0)


def poly_y(n=1):
    return Poly.monomial(0, n)


def family_w(family, p, q):
    """The invertible polynomial w = x^p y^e + x^f y^q of the family."""
    (_, e), (f, _) = exponents(family, p, q)
    return Poly({(p, e): 1, (f, q): 1})


def family_factor(family, p, q):
    """The factor F = x^(p-f) + y^(q-e) with w = x^f y^e F; None when w
    has no monomial factor (f = e = 0, bp)."""
    (_, e), (f, _) = exponents(family, p, q)
    if f == e == 0:
        return None
    return Poly({(p - f, 0): 1, (0, q - e): 1})


# ---------------------------------------------------------------------------
# division and Buchberger


def normal_form(f, basis):
    """Remainder of f on division by the list of polynomials (fixed order)."""
    result = {}
    work = dict(f.terms)
    leads = [(g.lead(), g) for g in basis if g]
    while work:
        m = max(work, key=mono_key)
        c = work.pop(m)
        for (lm, lc), g in leads:
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = _div(c, lc)
                for gm, gc in g.terms.items():
                    mm = mono_mul(gm, shift)
                    if mm == m:
                        continue
                    s = work.get(mm, 0) - factor * gc
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            result[m] = _q(c)
    out = Poly.__new__(Poly)
    out.terms = result
    return out


def s_poly(f, g):
    (mf, cf) = f.lead()
    (mg, cg) = g.lead()
    l = mono_lcm(mf, mg)
    return (f * Poly.monomial(*mono_div(l, mf), _div(1, cf))
            + g * Poly.monomial(*mono_div(l, mg), -_div(1, cg)))


def groebner(generators):
    """Reduced Groebner basis (Buchberger with the coprime-lcm criterion).

    Termination is guaranteed in two variables; the result is the unique
    reduced basis for the fixed degrevlex order, sorted by leading monomial.
    """
    basis = [g.monic() for g in generators if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        mi, _ = basis[i].lead()
        mj, _ = basis[j].lead()
        if mono_lcm(mi, mj) == mono_mul(mi, mj):
            continue  # coprime leading terms: s-poly reduces to zero
        r = normal_form(s_poly(basis[i], basis[j]), basis)
        if r:
            basis.append(r.monic())
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = []
    for g in sorted(basis, key=lambda g: mono_key(g.lead()[0])):
        lm = g.lead()[0]
        if not any(mono_divides(h.lead()[0], lm) for h in minimal):
            minimal.append(g)
    # autoreduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda g: mono_key(g.lead()[0]))
    return reduced


# ---------------------------------------------------------------------------
# quotient rings and graded pieces


def monomials_of_exact_degree(group, d):
    """All monomials of S with L-degree exactly d, as a tuple (finite by
    positivity of the weight homomorphism), u ascending."""
    w = d.w
    wx, wy = group.x.w, group.y.w
    found = []
    if w >= 0:
        for u in range(w // wx + 1):
            rem = w - u * wx
            if rem % wy:
                continue
            v = rem // wy
            if group.element(u, v) == d:
                found.append((u, v))
    return tuple(found)


class QuotientRing:
    """S/I together with an L-shift, I given by explicit generators.

    The degree-d piece of R(shift)/I is spanned by the standard monomials
    (those outside the leading-term staircase) of exact L-degree d + shift.
    Generators are expected to be L-homogeneous so that pieces make sense.

    The standard monomials are listed one way, by the walk of
    `standard_monomials_by_degree`: a finite staircase is walked whole, and
    an infinite one up to the weight each caller asks for.  `monomial_ideal`
    says whether the reduced Groebner basis is all monomials, as for every
    module of the B side but R/(f); `nf_mono` then never divides.
    """

    def __init__(self, group: GradingGroup, generators, shift: GroupElement = None, label=""):
        self.group = group
        self.generators = [g for g in generators if g]
        for g in self.generators:
            if g.degree_in(group) is None:
                raise ValueError(f"ideal generator {g} is not L-homogeneous")
        self.shift = shift if shift is not None else group.zero
        self.label = label
        self.gb = groebner(self.generators)
        self.lead_terms = [g.lead()[0] for g in self.gb]
        self._nf_cache = {}
        self.monomial_ideal = all(len(g.terms) == 1 for g in self.gb)
        bx = min((u for (u, v) in self.lead_terms if v == 0), default=None)
        by = min((v for (u, v) in self.lead_terms if u == 0), default=None)
        # (bx, by) with every standard monomial having u < bx and v < by;
        # None when the ring is infinite-dimensional, that is unless pure
        # powers of x and of y lead
        self.box = (bx, by) if bx is not None and by is not None else None

    def shifted(self, l: GroupElement):
        """A copy with shift + l.  It shares the Groebner basis, the
        monomial-ideal flag and the normal-form cache, which are keyed by
        monomial."""
        out = copy(self)
        out.shift = self.shift + l
        return out

    @property
    def finite(self):
        """Whether the staircase is finite, that is R/I finite-dimensional."""
        return self.box is not None

    def is_standard(self, mono):
        return not any(mono_divides(lt, mono) for lt in self.lead_terms)

    def nf_mono(self, mono):
        """The normal form of a monomial, cached by monomial.  A standard
        monomial is its own normal form (the basis is reduced); a nonstandard
        one is 0 in a monomial ideal, and only otherwise divided out."""
        cached = self._nf_cache.get(mono)
        if cached is None:
            if self.is_standard(mono):
                cached = Poly.monomial(*mono)
            elif self.monomial_ideal:
                cached = Poly()
            else:
                cached = normal_form(Poly.monomial(*mono), self.gb)
            self._nf_cache[mono] = cached
        return cached

    def nf(self, poly):
        out = Poly()
        for m, c in poly.terms.items():
            out = out + self.nf_mono(m) * c
        return out

    # -- piece enumeration ---------------------------------------------------

    def standard_monomials_by_degree(self, max_weight):
        """(degree, standard monomials of that exact degree) pairs, the
        monomials sorted by `mono_key` and the degrees in the order of
        their first monomial, u-major and v ascending: every degree of a
        finite staircase, walked up to the weight of its box corner whatever
        max_weight is, and for an infinite one every degree of weight at
        most max_weight.  The standard monomials are closed under division,
        so the walk stops at the first nonstandard monomial of each row and
        at the first nonstandard row."""
        g = self.group
        wx, wy = g.x.w, g.y.w
        if self.finite:
            bx, by = self.box
            max_weight = (bx - 1) * wx + (by - 1) * wy
        found = {}
        for u in range(max_weight // wx + 1):
            if not self.is_standard((u, 0)):
                break
            for v in range((max_weight - u * wx) // wy + 1):
                if not self.is_standard((u, v)):
                    break
                found.setdefault(g.element(u, v), []).append((u, v))
        for monos in found.values():
            monos.sort(key=mono_key)
        return found.items()

    def graded_piece_basis(self, delta, bound=None):
        """Monomial basis of the piece of R(shift)/I in class [delta] of L/Zc.

        delta is a GroupElement used as the exact representative l of the
        class.  Returns [(monomial, m)] sorted by monomial: the standard
        monomials inside the exponent box whose degree is l + shift + m*c
        for some m, each with its m, read off the weight.  The box is the
        staircase when it is finite; otherwise an explicit exponent bound
        is required, the staircase is walked up to the largest weight in
        the box, and the monomials are kept to exponents <= bound.  A
        negative bound raises `ValueError`.
        """
        g = self.group
        if not isinstance(delta, GroupElement):
            raise TypeError("delta must be a GroupElement representative")
        if bound is not None and bound < 0:
            raise ValueError(f"exponent bound {bound} is negative")
        box = self.box
        if box is None:
            if bound is None:
                raise ValueError("infinite-dimensional piece: supply an exponent bound")
            box = (bound + 1, bound + 1)
        base = delta + self.shift
        target = base.mod_c()
        top = (box[0] - 1) * g.x.w + (box[1] - 1) * g.y.w
        out = []
        for d, monos in self.standard_monomials_by_degree(top):
            if d.mod_c() == target:
                m = (d.w - base.w) // g.c.w
                out.extend((mono, m) for mono in monos if mono[0] < box[0] and mono[1] < box[1])
        out.sort(key=lambda t: mono_key(t[0]))
        return out


def brute_force_piece_dim(group, generators, shift, delta_rep, bound):
    """Independent oracle for graded piece dimensions.

    Counts the monomials with exponents <= bound in the class of
    delta_rep + shift modulo c, less the rank of the multiples s*g of the
    ideal generators that lie wholly inside that box and class.  No
    Groebner machinery is used.

    The class is enumerated by coordinate: x^u y^v lies in it exactly when
    v*y lies in the class of target - u*x, so the exponents v are bucketed
    by the class of v*y once and each u reads one bucket.  A generator is
    homogeneous, so a multiple lies in the class iff any one of its terms
    does: the multiples are read off the class monomials through one fixed
    term, each as a sparse row over them.

    A bounded infinite staircase is truncated differently here and in
    `QuotientRing.graded_piece_basis`, which keeps the standard monomials
    inside the box: a multiple of a binomial generator with one term
    outside the box is not subtracted here, so on such staircases the two
    counts agree only for monomial ideals.  A finite staircase inside the
    box is counted alike by both.
    """
    import warnings

    from ._linalg import rank as mat_rank

    if not isinstance(delta_rep, GroupElement):
        raise TypeError("delta must be a GroupElement representative")
    if bound < 0:
        raise ValueError(f"exponent bound {bound} is negative")
    generators = [g for g in generators if g]
    if any(g.degree_in(group) is None for g in generators):
        raise ValueError("oracle needs homogeneous generators")
    max_gen_exp = max((max(u, v) for g in generators for (u, v) in g.terms), default=0)
    if bound < max_gen_exp:
        warnings.warn(
            f"bound {bound} does not enclose the ideal staircase "
            f"(generator exponent {max_gen_exp}); the count may be too large",
            stacklevel=2,
        )
    target = (delta_rep + shift).mod_c()
    by_class = {}
    for v in range(bound + 1):
        by_class.setdefault(group.element(0, v).mod_c(), []).append(v)
    index = {}
    for u in range(bound + 1):
        for v in by_class.get((target - group.element(u, 0)).mod_c(), ()):
            index[(u, v)] = len(index)
    rows = []
    for gpoly in generators:
        terms = gpoly.terms.items()
        (fu, fv), _ = next(iter(terms))
        # shifts (su, sv) that keep every term inside the box
        top_u = bound - max(u for (u, v), _ in terms)
        top_v = bound - max(v for (u, v), _ in terms)
        for (u, v) in index:
            su, sv = u - fu, v - fv
            if 0 <= su <= top_u and 0 <= sv <= top_v:
                rows.append({index[(su + a, sv + b)]: c for (a, b), c in terms})
    if not rows:
        return len(index)
    return len(index) - mat_rank(rows)
