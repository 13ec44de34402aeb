"""Arithmetic in the finite Heisenberg group of 3x3 unitriangular matrices.

An element

    [1 x z]
    [0 1 y]
    [0 0 1]        x, y, z in Z/nZ

is stored as the triple (x, y, z) of canonical residues mod n.  Values are
immutable and all operations are pure, so everything here is thread-safe.
Powers use the closed form

    g^v = (v*x, v*y, v*z + v*(v-1)/2 * x*y)

where v*(v-1)/2 is computed in unbounded integers before reduction, so no
modular division by 2 is ever needed (2 may not be invertible mod n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import HeiscurveError, _int_at_least


class ModulusMismatch(ValueError, HeiscurveError):
    """Combining elements that live over different moduli."""


@dataclass(frozen=True)
class HeisenbergElement:
    n: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        n, x, y, z = self.n, self.x, self.y, self.z
        # the inline tests keep construction fast; the check words the error
        if not type(n) is type(x) is type(y) is type(z) is int:
            for name in ("n", "x", "y", "z"):
                _int_at_least(getattr(self, name), None,
                              "HeisenbergElement " + name)
        if n < 1:
            _int_at_least(n, 1)
        object.__setattr__(self, "x", x % n)
        object.__setattr__(self, "y", y % n)
        object.__setattr__(self, "z", z % n)

    @classmethod
    def identity(cls, n):
        return cls(n, 0, 0, 0)

    @classmethod
    def generator_a(cls, n):
        """The generator with a single 1 in the top-middle slot."""
        return cls(n, 1, 0, 0)

    @classmethod
    def generator_b(cls, n):
        """The generator with a single 1 in the middle-right slot."""
        return cls(n, 0, 1, 0)

    @classmethod
    def central(cls, n, z):
        return cls(n, 0, 0, z)

    def _check_same_modulus(self, other):
        if self.n != other.n:
            raise ModulusMismatch(
                "cannot combine elements mod %d and mod %d" % (self.n, other.n)
            )

    def __mul__(self, other):
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        self._check_same_modulus(other)
        # unitriangular matrix product; only the corner picks up a cross term
        return HeisenbergElement(
            self.n,
            self.x + other.x,
            self.y + other.y,
            self.z + other.z + self.x * other.y,
        )

    def inverse(self):
        return HeisenbergElement(self.n, -self.x, -self.y, -self.z + self.x * self.y)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        v = exponent
        corner = v * self.z + (v * (v - 1) // 2) * self.x * self.y
        return HeisenbergElement(self.n, v * self.x, v * self.y, corner)

    def is_identity(self):
        return self.x == 0 and self.y == 0 and self.z == 0

    def is_central(self):
        return self.x == 0 and self.y == 0

    def order(self):
        """Smallest v >= 1 with g^v = 1, in closed form.

        g^v lies in the center exactly when n divides v*x and v*y, i.e. when
        m = n / gcd(n, x, y) divides v.  By the power law g^m is the central
        element (0, 0, c) with c = m*z + m*(m-1)/2 * x*y, whose order is
        n / gcd(n, c).  Hence order = m * n / gcd(n, c), which divides n^2.
        """
        n = self.n
        m = n // gcd(n, self.x, self.y)
        c = m * self.z + (m * (m - 1) // 2) * self.x * self.y
        return m * (n // gcd(n, c))

    def abelianize(self):
        """Image in the abelianization (Z/n)^2; kills exactly the center."""
        return (self.x, self.y)

    def matrix(self):
        """The 3x3 integer matrix with entries reduced mod n."""
        return ((1, self.x, self.z), (0, 1, self.y), (0, 0, 1))

    def __str__(self):
        return "(%d, %d, %d) mod %d" % (self.x, self.y, self.z, self.n)


def commutator(g, h):
    return g * h * g.inverse() * h.inverse()


def enumerate_group(n):
    """An iterator over all n^3 elements, ordered lexicographically by
    (x, y, z); elements are built as they are read.  n must be an int (not
    a bool) >= 1, checked when called."""
    _int_at_least(n, 1)
    # nested ranges, not itertools.product, which would first copy range(n)
    # into a tuple of n ints
    return (HeisenbergElement(n, x, y, z)
            for x in range(n) for y in range(n) for z in range(n))
