"""Graded matrix factorisations, their hom complexes, and cohomology classes.

A matrix factorisation is stored through one period of the 2-periodic
sequence: the free modules K^0 and K^{-1} (lists of L-shifts) together with

    d0 : K^{-1}      -> K^0     and     d1 : K^0(-c) -> K^{-1},

whose products both equal w times the identity.  K^{i+2} = K^i(c) extends
this to the full sequence.

Morphism spaces are computed two ways:

* hom cohomology against the cyclic module the factorisation resolves
  (finite graded pieces with multiplication differentials), and
* explicit chain maps between the factorisations themselves, found by exact
  linear algebra; the two are tied together by the projection of a chain map
  onto the module, so composites of chain maps can be identified against
  the cohomology bases.
"""

from fractions import Fraction

from ._linalg import Subspace, nullspace, solve
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_is_zero(A):
    return all(not e for row in A for e in row)


def mat_scale(A, c):
    return [[e * c for e in row] for row in A]


class CyclicModule:
    """R(shift)/I presented over S; the hom-target in Buchweitz complexes.

    The underlying QuotientRing carries the ideal (including w) and a base
    shift; `extra` accumulates further L-shifts so shifted copies share the
    Groebner data.
    """

    def __init__(self, ring: QuotientRing, extra: GroupElement = None, label=""):
        self.ring = ring
        self.group = ring.group
        self.extra = extra if extra is not None else ring.group.zero
        self.label = label or ring.label

    def total_shift(self):
        return self.ring.shift + self.extra

    def shifted(self, l: GroupElement):
        return CyclicModule(self.ring, self.extra + l, self.label)

    def piece(self, e: GroupElement):
        """Monomial basis of the degree-e piece."""
        return self.ring.standard_monomials_exact(e + self.total_shift())

    def nf(self, poly):
        return self.ring.nf(poly)

    def __repr__(self):
        return f"CyclicModule({self.label})"


class MatrixFactorisation:
    """One period of an L-graded matrix factorisation of w."""

    def __init__(self, group, w, even_shifts, odd_shifts, d0, d1, module, aug, label=""):
        self.group = group
        self.w = w
        self.even_shifts = list(even_shifts)
        self.odd_shifts = list(odd_shifts)
        self.d0 = d0
        self.d1 = d1
        self.module = module
        self.aug = list(aug)  # projection K^0 -> module, one Poly per even summand
        self.label = label

    @property
    def rank(self):
        return len(self.even_shifts)

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
        """Shifts of the free module K^{-n}."""
        c = self.group.c
        if n % 2 == 0:
            m = n // 2
            return [a - m * c for a in self.even_shifts]
        m = (n - 1) // 2
        return [b - m * c for b in self.odd_shifts]

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
        for s in range(r):
            img = Poly()
            for t in range(r):
                if self.aug[t] and self.d0[t][s]:
                    img = img + self.aug[t] * self.d0[t][s]
            if self.module.nf(img):
                problems.append(f"module projection does not kill column {s} of d0")
        return problems

    def __repr__(self):
        return f"MF({self.label})"


# ---------------------------------------------------------------------------
# the basic objects of each family


def build_basic_object(group, label):
    """Closed-form factorisations for the basic objects.

    label is one of ("K0", i, j), ("Kx", i), ("Ky", j) or ("Kf",); index
    ranges are 1..p-1 and 1..q-1, with family-dependent availability
    (chain has no Kx, bp has only K0).
    """
    family, p, q = group.family, group.p, group.q
    w = family_w(family, p, q)
    f = family_factor(family, p, q)
    x, y, c = group.x, group.y, group.c
    kind = label[0]

    if kind == "K0":
        _, i, j = label
        if not (1 <= i <= p - 1 and 1 <= j <= q - 1):
            raise ValueError(f"K0 index out of range: {label}")
        name = f"K0({i},{j})"
        if family == "loop":
            even = [c + x + y, (i + 1) * x + (j + 1) * y]
            odd = [x + (j + 1) * y, (i + 1) * x + y]
            d0 = [[Poly.monomial(1, q - j), Poly.monomial(p - i, 1, -1)],
                  [Poly.monomial(i, 0), Poly.monomial(0, j)]]
            d1 = [[Poly.monomial(0, j), Poly.monomial(p - i, 1)],
                  [Poly.monomial(i, 0, -1), Poly.monomial(1, q - j)]]
            lam = (i + 1) * x + (j + 1) * y
        elif family == "chain":
            even = [c + y, i * x + (j + 1) * y]
            odd = [(j + 1) * y, i * x + y]
            d0 = [[Poly.monomial(0, q - j), Poly.monomial(p - i, 1, -1)],
                  [Poly.monomial(i, 0), Poly.monomial(0, j)]]
            d1 = [[Poly.monomial(0, j), Poly.monomial(p - i, 1)],
                  [Poly.monomial(i, 0, -1), Poly.monomial(0, q - j)]]
            lam = i * x + (j + 1) * y
        else:  # bp
            even = [c, i * x + j * y]
            odd = [j * y, i * x]
            d0 = [[Poly.monomial(0, q - j), Poly.monomial(p - i, 0, -1)],
                  [Poly.monomial(i, 0), Poly.monomial(0, j)]]
            d1 = [[Poly.monomial(0, j), Poly.monomial(p - i, 0)],
                  [Poly.monomial(i, 0, -1), Poly.monomial(0, q - j)]]
            lam = i * x + j * y
        ring = QuotientRing(group, [poly_x(i), poly_y(j), w], shift=lam, label=name)
        module = CyclicModule(ring, label=name)
        return MatrixFactorisation(group, w, even, odd, d0, d1, module,
                                   [Poly(), Poly.constant(1)], name)

    if kind == "Kx":
        if family != "loop":
            raise ValueError("Kx exists only for loop polynomials")
        (_, i) = label
        if not (1 <= i <= p - 1):
            raise ValueError(f"Kx index out of range: {label}")
        base = MatrixFactorisation(
            group, w, [group.zero], [-x],
            [[poly_x()]], [[poly_y() * f]],
            CyclicModule(QuotientRing(group, [poly_x(), w], label="R/(x)")),
            [Poly.constant(1)], "Kx",
        )
        return base.shifted((i + 1 - p) * x, f"Kx({i})")

    if kind == "Ky":
        if family == "bp":
            raise ValueError("Ky exists only for loop and chain polynomials")
        (_, j) = label
        if not (1 <= j <= q - 1):
            raise ValueError(f"Ky index out of range: {label}")
        d1_entry = poly_x() * f if family == "loop" else f
        base = MatrixFactorisation(
            group, w, [group.zero], [-y],
            [[poly_y()]], [[d1_entry]],
            CyclicModule(QuotientRing(group, [poly_y(), w], label="R/(y)")),
            [Poly.constant(1)], "Ky",
        )
        return base.shifted((j + 1 - q) * y, f"Ky({j})")

    if kind == "Kf":
        if family == "bp":
            raise ValueError("Kf exists only for loop and chain polynomials")
        if family == "loop":
            odd = [x + y - c]
            d0 = [[f]]
            d1 = [[Poly.monomial(1, 1)]]
        else:
            odd = [y - c]
            d0 = [[f]]
            d1 = [[poly_y()]]
        return MatrixFactorisation(
            group, w, [group.zero], odd, d0, d1,
            CyclicModule(QuotientRing(group, [f, w], label="R/(f)")),
            [Poly.constant(1)], "Kf",
        )

    raise ValueError(f"unknown label {label!r}")


# ---------------------------------------------------------------------------
# Buchweitz hom complexes


class HomCohomology:
    """H^*(Hom(K (x) R, M)) for a factorisation K and cyclic module M.

    Terms are direct sums of exact graded pieces of M indexed by the
    summands of K^{-n}; differentials precompose with the structure maps of
    K.  Basis vectors are (summand, monomial) coordinates.
    """

    def __init__(self, K: MatrixFactorisation, module: CyclicModule):
        self.K = K
        self.module = module
        self._terms = {}
        self._diffs = {}
        self._cohom = {}

    def term(self, n):
        got = self._terms.get(n)
        if got is None:
            coords = []
            for t, s in enumerate(self.K.term_shifts(n)):
                for mono in self.module.piece(-s):
                    coords.append((t, mono))
            got = coords
            self._terms[n] = got
        return got

    def _structure_matrix(self, n):
        # matrix of k : K^{-n-1} -> K^{-n}; polynomial entries
        return self.K.d0 if n % 2 == 0 else self.K.d1

    def diff(self, n):
        """Images of the basis vectors of term(n) in term(n+1): one sparse
        column {term(n+1) index: coefficient} per term(n) coordinate."""
        got = self._diffs.get(n)
        if got is None:
            tgt_index = {c: i for i, c in enumerate(self.term(n + 1))}
            P = self._structure_matrix(n)
            got = []
            for (t, mono) in self.term(n):
                col = {}
                for s in range(self.K.rank):
                    entry = P[t][s]
                    if entry:
                        prod = self.module.nf(entry.mul_mono(mono))
                        for pm, pc in prod.terms.items():
                            col[tgt_index[(s, pm)]] = pc
                got.append(col)
            self._diffs[n] = got
        return got

    def cohomology(self, n):
        got = self._cohom.get(n)
        if got is None:
            src = self.term(n)
            if not src:
                # zero cohomology, and no differentials to build; most cells
                # of a hom table are like this
                got = CohomologyData(self, n, src, [], Subspace())
                self._cohom[n] = got
                return got
            # the kernel needs the rows of the outgoing differential; the
            # coboundaries are the columns of the incoming one
            rows = {}
            for j, col in enumerate(self.diff(n)):
                for i, a in col.items():
                    rows.setdefault(i, {})[j] = a
            ker = nullspace(list(rows.values()), len(src))
            im = Subspace(col for col in self.diff(n - 1) if col)
            # v + im enlarges the classes found so far iff its reduction
            # against im does; that reduction, scaled, is the representative
            classes = Subspace()
            reps = []
            for v in ker:
                red = im.reduce(v)
                if classes.add(red):
                    lead = red[min(red)]
                    reps.append({c: a / lead for c, a in red.items()})
            got = CohomologyData(self, n, src, reps, im)
            self._cohom[n] = got
        return got


class CohomologyData:
    def __init__(self, parent, degree, coords, reps, im):
        self.parent = parent
        self.degree = degree
        self.coords = coords  # [(summand, monomial)]
        self.reps = reps      # class representatives, sparse coordinate vectors
        self.im = im          # coboundary subspace

    @property
    def dim(self):
        return len(self.reps)

    def identify(self, vector):
        """Coordinates of a cocycle's class in the representative basis, as a
        list; vector is a sparse coordinate vector."""
        if not self.reps:
            if self.im.contains(vector):
                return []
            raise ArithmeticError("vector is not a coboundary in zero cohomology")
        # representatives are stored already reduced against the coboundaries;
        # one equation per coordinate, one unknown per representative
        rows = [{} for _ in self.coords]
        for k, rep in enumerate(self.reps):
            for i, a in rep.items():
                rows[i][k] = a
        coeffs = solve(rows, self.im.reduce(vector), self.dim)
        if coeffs is None:
            raise ArithmeticError("class identification failed (not a cocycle class?)")
        return [coeffs.get(k, _ZERO) for k in range(self.dim)]

    def rep_strings(self):
        out = []
        for rep in self.reps:
            parts = []
            for k in sorted(rep):
                c = rep[k]
                t, mono = self.coords[k]
                coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{coeff}{mono_str(mono)}@{t}")
            out.append(" + ".join(parts).replace("+ -", "- ") or "0")
        return out


# ---------------------------------------------------------------------------
# chain maps between factorisations


class MFMorphism:
    """A degree-n chain map of matrix factorisations, stored as the two
    matrices f^0 : K^0 -> H^n and f^{-1} : K^{-1} -> H^{n-1}.

    A morphism is not modified after construction, so the chain-map check
    runs once and its answer is kept."""

    def __init__(self, source, target, degree, f0, f1):
        self.source = source
        self.target = target
        self.degree = degree
        self.f0 = f0
        self.f1 = f1
        self._is_chain_map = None

    def is_chain_map(self):
        if self._is_chain_map is None:
            e1, e2 = _boundary_matrices(self.source, self.target, self.degree, self.f0, self.f1)
            self._is_chain_map = mat_is_zero(e1) and mat_is_zero(e2)
        return self._is_chain_map

    def compose(self, other):
        """self after other (other: K -> H, self: H -> G)."""
        ng = other.degree
        first = self.f0 if ng % 2 == 0 else self.f1
        second = self.f1 if ng % 2 == 0 else self.f0
        return MFMorphism(
            other.source,
            self.target,
            self.degree + other.degree,
            mat_mul(first, other.f0),
            mat_mul(second, other.f1),
        )

    def buchweitz_vector(self, cohom: HomCohomology):
        """Projection onto the target's module, as a sparse vector over the
        term coordinates."""
        n = self.degree
        comp = self.f0 if n % 2 == 0 else self.f1
        index = {c: i for i, c in enumerate(cohom.term(n))}
        vec = {}
        H = self.target
        for t in range(self.source.rank):
            val = Poly()
            for s in range(H.rank):
                if H.aug[s] and comp[s][t]:
                    val = val + H.aug[s] * comp[s][t]
            val = H.module.nf(val)
            for m, c in val.terms.items():
                vec[index[(t, m)]] = c
        return vec


def identity_morphism(K):
    n = K.rank
    eye = [[Poly.constant(1) if i == j else Poly() for j in range(n)] for i in range(n)]
    return MFMorphism(K, K, 0, eye, [row[:] for row in eye])


def _entry_degrees(K, H, n):
    """Exact L-degrees of the entries of (f0, f1) for a degree-n morphism."""
    c = K.group.c
    if n % 2 == 0:
        m = n // 2
        f0 = [[H.even_shifts[s] + m * c - K.even_shifts[t] for t in range(K.rank)]
              for s in range(H.rank)]
        f1 = [[H.odd_shifts[s] + m * c - K.odd_shifts[t] for t in range(K.rank)]
              for s in range(H.rank)]
    else:
        m = (n - 1) // 2
        f0 = [[H.odd_shifts[s] + (m + 1) * c - K.even_shifts[t] for t in range(K.rank)]
              for s in range(H.rank)]
        f1 = [[H.even_shifts[s] + m * c - K.odd_shifts[t] for t in range(K.rank)]
              for s in range(H.rank)]
    return f0, f1


def _boundary_matrices(K, H, n, f0, f1):
    """The two matrix components of the hom differential applied to (f0, f1)."""
    if n % 2 == 0:
        e1 = mat_sub(mat_mul(H.d1, f0), mat_mul(f1, K.d1))
        e2 = mat_sub(mat_mul(H.d0, f1), mat_mul(f0, K.d0))
    else:
        e1 = mat_add(mat_mul(H.d0, f0), mat_mul(f1, K.d1))
        e2 = mat_add(mat_mul(H.d1, f1), mat_mul(f0, K.d0))
    return e1, e2


def chain_map_space(K, H, n):
    """Basis of the space of degree-n chain maps K -> H, as MFMorphisms."""
    group = K.group
    degs = _entry_degrees(K, H, n)  # (deg0, deg1): entry degrees of f0 and f1
    unknowns = []  # (which, s, t, monomial)
    for which in (0, 1):
        for s in range(H.rank):
            for t in range(K.rank):
                for mono in monomials_of_exact_degree(group, degs[which][s][t]):
                    unknowns.append((which, s, t, mono))
    if not unknowns:
        return []
    uindex = {u: i for i, u in enumerate(unknowns)}

    rows = []

    def add_equations(coeff_of):
        # coeff_of: unknown -> Poly contribution; build one row per monomial
        support = {}
        for u, contrib in coeff_of.items():
            for mono, c in contrib.terms.items():
                bucket = support.setdefault(mono, {})
                bucket[u] = bucket.get(u, 0) + c
        for entry in support.values():
            rows.append({uindex[u]: c for u, c in entry.items() if c})

    sign = 1 if n % 2 else -1
    # component a of the boundary, b the other one:
    #   e[s][t] = sum_u H.dA[s][u]*f_a[u][t]  (+/-)  sum_u f_b[s][u]*K.dB[u][t]
    for a, b, HA, KB in ((0, 1, H.d1 if n % 2 == 0 else H.d0, K.d1),
                         (1, 0, H.d0 if n % 2 == 0 else H.d1, K.d0)):
        for s in range(H.rank):
            for t in range(K.rank):
                contrib = {}
                for u in range(H.rank):
                    if HA[s][u]:
                        for mono in monomials_of_exact_degree(group, degs[a][u][t]):
                            key = (a, u, t, mono)
                            contrib[key] = contrib.get(key, Poly()) + HA[s][u].mul_mono(mono)
                for u in range(K.rank):
                    if KB[u][t]:
                        for mono in monomials_of_exact_degree(group, degs[b][s][u]):
                            key = (b, s, u, mono)
                            contrib[key] = contrib.get(key, Poly()) + KB[u][t].mul_mono(mono) * sign
                add_equations(contrib)

    basis = nullspace(rows, len(unknowns))
    out = []
    for vec in basis:
        f0 = [[Poly() for _ in range(K.rank)] for _ in range(H.rank)]
        f1 = [[Poly() for _ in range(K.rank)] for _ in range(H.rank)]
        for k, val in vec.items():
            which, s, t, mono = unknowns[k]
            target = f0 if which == 0 else f1
            target[s][t] = target[s][t] + Poly.monomial(*mono) * val
        out.append(MFMorphism(K, H, n, f0, f1))
    return out


def generator_morphism(K, H, n, cohom: HomCohomology, class_index=0):
    """A chain map whose Buchweitz class is exactly the chosen basis vector.

    Fails (ArithmeticError) if no chain map hits the class; by the
    equivalence between the two hom models this should never happen for the
    factorisations in this package.
    """
    data = cohom.cohomology(n)
    if class_index >= data.dim:
        raise ValueError("no such cohomology class")
    maps = chain_map_space(K, H, n)
    if not maps:
        raise ArithmeticError("no chain maps at all in this degree")
    # find a rational combination of the chain maps with class = e_{class_index}:
    # one equation per class coordinate, one unknown per chain map
    rows = [{} for _ in range(data.dim)]
    for j, f in enumerate(maps):
        for i, a in enumerate(data.identify(f.buchweitz_vector(cohom))):
            if a:
                rows[i][j] = a
    coeffs = solve(rows, {class_index: _ONE}, len(maps))
    if coeffs is None:
        raise ArithmeticError("chain-map lift of the cohomology class not found")
    f0 = [[Poly() for _ in range(K.rank)] for _ in range(H.rank)]
    f1 = [[Poly() for _ in range(K.rank)] for _ in range(H.rank)]
    for j, cf in sorted(coeffs.items()):
        f0 = mat_add(f0, mat_scale(maps[j].f0, cf))
        f1 = mat_add(f1, mat_scale(maps[j].f1, cf))
    return MFMorphism(K, H, n, f0, f1)


def compose_and_identify(f: MFMorphism, g: MFMorphism, cohom: HomCohomology):
    """Class coordinates of f o g in the cohomology basis of the target.

    f and g must be verified chain maps with composable degrees; cohom is
    the hom cohomology of (g.source, f.target module).
    """
    if not g.is_chain_map() or not f.is_chain_map():
        raise ValueError("compose_and_identify requires chain maps")
    comp = f.compose(g)
    data = cohom.cohomology(comp.degree)
    return data.identify(comp.buchweitz_vector(cohom))
