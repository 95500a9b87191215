"""The three atomic families of two-variable invertible polynomials.

Each is w = x^p y^e + x^f y^q, fixed by its exponent matrix
E = ((p, e), (f, q)); the family sets (f, e).  Both sides read everything
they need from E: the B side from E itself (`exponents`), the A side and
the numeric kernels from its transpose (`transpose`), the exponent matrix
of the Berglund-Huebsch transpose of w.
"""

from dataclasses import dataclass

# family -> (f, e)
_OFFSETS = {"loop": (1, 1), "chain": (0, 1), "bp": (0, 0)}
FAMILIES = tuple(_OFFSETS)


def _offsets(family, p, q):
    if family not in _OFFSETS:
        raise ValueError(f"unknown family {family!r}")
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"p and q must be integers, not {p!r} and {q!r}")
    if p < 2 or q < 2:
        raise ValueError("p and q must both be at least 2")
    return _OFFSETS[family]


def exponents(family, p, q):
    """The exponent matrix ((p, e), (f, q)) of w = x^p y^e + x^f y^q."""
    f, e = _offsets(family, p, q)
    return (p, e), (f, q)


def transpose(family, p, q):
    """(p, q, f, e) of the Berglund-Huebsch transpose w~ = x^p y^f + x^e y^q,
    whose exponent matrix is E^T = ((p, f), (e, q))."""
    f, e = _offsets(family, p, q)
    return p, q, f, e


@dataclass(frozen=True)
class FamilySpec:
    family: str
    p: int
    q: int

    def __post_init__(self):
        exponents(self.family, self.p, self.q)

    def milnor(self):
        p, q = self.p, self.q
        return {"loop": p * q, "chain": p * q - p + 1, "bp": (p - 1) * (q - 1)}[self.family]

    def milnor_decomposition(self):
        p, q = self.p, self.q
        base = (p - 1) * (q - 1)
        if self.family == "loop":
            return f"{self.milnor()} = {base} + {p - 1} + {q - 1} + 1"
        if self.family == "chain":
            return f"{self.milnor()} = {base} + {q - 1} + 1"
        return f"{self.milnor()} = {base}"

    def label(self):
        return f"{self.family}({self.p},{self.q})"
