"""Exact arithmetic in the maximal grading group of an invertible curve polynomial.

Every family is w = x^p y^e + x^f y^q (see `families.exponents`).  The group
L is generated by xv, yv, cv (the degrees of x, y and of w) subject to

    p*xv + e*yv = cv,    f*xv + q*yv = cv.

Eliminating cv = p*xv + e*yv sends i*xv + j*yv + k*cv to (u, v) =
(i + k*p, j + k*e) and leaves L = Z^2 / Z(a, -b), with a = p - f and
b = q - e.  Let g = gcd(a, b), a = g*a', b = g*b', and alpha*a' - beta*b' = 1.
The unimodular matrix ((alpha, beta), (b', a')) sends (a, -b) to (g, 0), so
L = Z/g + Z, and an element is stored as its residue alpha*u + beta*v mod g
and its weight b'*u + a'*v.  The weight is positive on xv, yv and cv, and
(r, w) maps back to (u, v) = (a'*r - beta*w, alpha*w - b'*r).  Since cv has
positive weight, each class of the quotient L/Zc has exactly one element of
weight in [0, weight(cv)), which serves as its canonical form.  L/Zc is
Z^2 modulo the rows of the exponent matrix: its order is the determinant
a*e + b*p and its invariant factors are d1 = gcd(a, b, p, e) and the order
over d1.  Everything is plain python integers, so all of it is exact.
"""

from math import gcd

from .families import exponents


class GroupElement:
    """Element of a GradingGroup in the coordinates of L = Z/g + Z.

    g = group.torsion_order, so an element is stored canonically as its
    residue r = alpha*u + beta*v in [0, g) and its weight w = b'*u + a'*v
    (see the module docstring).  Group operations, equality and hashing
    act on (r, w) directly; no lattice reduction is needed.  Two elements
    combine when their groups are one object or two builds of the same
    (family, p, q), compared by `GradingGroup.key`.
    """

    __slots__ = ("group", "r", "w")

    def __init__(self, group, r, w):
        self.group = group
        self.r = r
        self.w = w

    def __add__(self, other):
        g = self.group
        if g is not other.group and g.key != other.group.key:
            raise ArithmeticError("elements of two different grading groups")
        return GroupElement(g, (self.r + other.r) % g.torsion_order, self.w + other.w)

    def __sub__(self, other):
        g = self.group
        if g is not other.group and g.key != other.group.key:
            raise ArithmeticError("elements of two different grading groups")
        return GroupElement(g, (self.r - other.r) % g.torsion_order, self.w - other.w)

    def __neg__(self):
        g = self.group
        return GroupElement(g, -self.r % g.torsion_order, -self.w)

    def __rmul__(self, n):
        g = self.group
        return GroupElement(g, n * self.r % g.torsion_order, n * self.w)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.w == other.w and self.r == other.r
                and (self.group is other.group or self.group.key == other.group.key))

    def __hash__(self):
        return hash((self.r, self.w))

    def is_zero(self):
        return self.r == 0 and self.w == 0

    @property
    def vec(self):
        """A canonical integer 3-vector over (xv, yv, cv) representing this element."""
        return self.group._vector(self.r, self.w)

    def mod_c(self):
        """The canonical element of this class in L/Zc: the one with weight
        in [0, c.w), unique because c has positive weight."""
        g = self.group
        c = g.c
        k = self.w // c.w
        return GroupElement(g, (self.r - k * c.r) % g.torsion_order, self.w - k * c.w)

    def __repr__(self):
        return f"L{self.vec}"


class GradingGroup:
    """The maximal grading group L for one family, plus its quotient L/Z*cv."""

    def __init__(self, family, p, q):
        (_, e), (f, _) = self.exponents = exponents(family, p, q)
        self.family = family
        self.p = p
        self.q = q
        self.key = (family, p, q)
        self.relations = [[p, e, -1], [f, q, -1]]
        a, b = p - f, q - e
        g = gcd(a, b)
        a1, b1 = a // g, b // g
        alpha = pow(a1, -1, b1)  # so that alpha*a1 - beta*b1 = 1
        beta = (alpha * a1 - 1) // b1
        self._e, self._a1, self._b1, self._alpha, self._beta = e, a1, b1, alpha, beta
        self.torsion_order = g
        self.torsion = (g,) if g > 1 else ()
        self.free_rank = 1
        self.order_mod_c = a * e + b * p
        d1 = gcd(a, b, p, e)
        self.torsion_mod_c = tuple(d for d in (d1, self.order_mod_c // d1) if d > 1)

        self.x = self.element(1, 0)
        self.y = self.element(0, 1)
        self.c = self.element(0, 0, 1)
        self.zero = self.element(0, 0)

    # -- raw vector helpers ------------------------------------------------

    def _vector(self, r, w):
        """The integer 3-vector (u, v, 0) of the element with coordinates (r, w)."""
        return (self._a1 * r - self._beta * w, self._alpha * w - self._b1 * r, 0)

    # -- public api ---------------------------------------------------------

    def element(self, i, j, k=0):
        """The element i*xv + j*yv + k*cv."""
        u, v = i + k * self.p, j + k * self._e
        return GroupElement(self, (self._alpha * u + self._beta * v) % self.torsion_order,
                            self._b1 * u + self._a1 * v)

    def invariants(self):
        """(free rank, torsion factors) of L and of L/Z*cv."""
        return {
            "L": {"free_rank": self.free_rank, "torsion": list(self.torsion)},
            "L_mod_c": {"order": self.order_mod_c, "torsion": list(self.torsion_mod_c)},
        }

    def __repr__(self):
        return f"GradingGroup({self.family}, p={self.p}, q={self.q})"


def make_grading_group(family, p, q):
    return GradingGroup(family, p, q)
