"""Exact arithmetic in an imaginary quadratic field Q(sqrt(d)).

A number is p + q*sqrt(d) with p, q reduced fractions and d any negative
integer (default -3, whose ring contains the primitive cube root of unity
needed downstream).  Real quadratic fields are rejected: the square-root
case analysis below relies on the norm p^2 - d q^2 being a sum of positive
terms.  Square and cube roots of an element are found in closed form from
its norm and trace.

d names the generator sqrt(d), not only the field.  Q(sqrt -12) is
Q(sqrt -3), but an element with d = -12 is written in sqrt(-12) = 2 sqrt(-3),
and mixing it with a d = -3 element raises FieldMismatch.  zeta3 needs
d = -3.

Also provides root finding for polynomials of degree <= 4 with coefficients
in the field, by a p-adic rational-root search (Hensel lifting) plus
explicit quadratic-formula solving; rational quartics without linear
factors go through the resolvent cubic.  A polynomial, psi_3 of a curve
among them, is cleared once to integer lists P + Q sqrt(d), with one lcm
for all denominators.  It has the rational root r exactly when
P(r) = Q(r) = 0, so candidates come from one part and the multiplicity of
each is found in integers, by exact division of both parts.  Only the
deflation and the quadratic and quartic steps work on the field
polynomial.  Quartics that do not split into factors of degree <= 2 over
the field raise UnsupportedFactorization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import HeiscurveError

DEFAULT_D = -3


class NotASquare(ArithmeticError, HeiscurveError):
    """No square root of value exists inside its field.  The message is
    built only when the error is shown."""

    def __init__(self, value):
        super().__init__(value)
        self.value = value

    def __str__(self):
        return "%s is not a square in Q(sqrt %d)" % (self.value, self.value.d)


class UnsupportedFactorization(ArithmeticError, HeiscurveError):
    """Polynomial does not visibly split into degree <= 2 factors."""


class FieldMismatch(ValueError):
    """Elements over two different generators sqrt d and sqrt other_d met,
    even when both generate the same field."""

    def __init__(self, d, other_d):
        super().__init__("mixing elements over sqrt(%d) and sqrt(%d)" % (d, other_d))
        self.d = d
        self.other_d = other_d


def _check_d(d):
    if type(d) is not int or d >= 0:
        raise ValueError("d must be a negative integer, got %r" % (d,))


class QuadNum:
    """p + q*sqrt(d): an immutable slotted element of Q(sqrt d).

    The public constructor checks d on every call and turns p and q into
    Fractions; they must be ints (not bools) or Fractions, as must the
    value given to QuadNum.of, and anything else raises TypeError.
    Results of field operations and coercions of ints and Fractions are
    built by _quad, which stores the Fractions as they are.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q, d=DEFAULT_D):
        _check_d(d)
        _set_p(self, _fraction(p))
        _set_q(self, _fraction(q))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadNum is immutable: cannot set %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("QuadNum is immutable: cannot delete %r" % (name,))

    def __reduce__(self):
        return QuadNum, (self.p, self.q, self.d)

    def __repr__(self):
        return "QuadNum(p=%r, q=%r, d=%r)" % (self.p, self.q, self.d)

    @classmethod
    def of(cls, value, d=DEFAULT_D):
        _check_d(d)
        if isinstance(value, QuadNum):
            if value.d != d:
                raise FieldMismatch(d, value.d)
            return value
        return _quad(_fraction(value), _ZERO, d)

    @classmethod
    def root(cls, d=DEFAULT_D):
        """The element sqrt(d) itself."""
        _check_d(d)
        return _quad(_ZERO, _ONE, d)

    def _coerce(self, other):
        if isinstance(other, QuadNum):
            if other.d != self.d:
                raise FieldMismatch(self.d, other.d)
            return other
        if isinstance(other, (int, Fraction)):
            return _quad(other if type(other) is Fraction else Fraction(other),
                         _ZERO, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.p + o.p, self.q + o.q, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.p - o.p, self.q - o.q, self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(
            self.p * o.p + self.d * self.q * o.q,
            self.p * o.q + self.q * o.p,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return _quad(self.p, -self.q, self.d)

    def norm(self):
        return self.p * self.p - self.d * self.q * self.q

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _quad(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return _quad(_ONE, _ZERO, self.d)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, QuadNum) else other
        if not isinstance(o, QuadNum):
            return NotImplemented
        return self.d == o.d and self.p == o.p and self.q == o.q

    def __hash__(self):
        # a rational element equals its rational value, so it hashes like it
        if not self.q:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def _ints(self):
        """Integers (a, b, m) with self = (a + b*sqrt(d))/m and m > 0."""
        p, q = self.p, self.q
        pd, qd = p.denominator, q.denominator
        if pd == qd:
            return p.numerator, q.numerator, pd
        m = lcm(pd, qd)
        return p.numerator * (m // pd), q.numerator * (m // qd), m

    def is_zero(self):
        return self.p == 0 and self.q == 0

    def is_rational(self):
        return self.q == 0

    def sqrt(self):
        """A square root in the field, sign-normalized.

        Of the two roots +-r, returns the one with positive rational part,
        or positive sqrt(d)-part when the rational part vanishes.  Raises
        NotASquare when no root lies in the field.

        Works in integers: with self = (a + b sqrt d)/m, A = a m and
        B = b m, self = (A + B sqrt d)/m^2.  For B = 0 the root is
        isqrt(A)/m or isqrt(A d)/(m |d|) sqrt d.  Otherwise a root
        (u + v sqrt d)/m has u^2 + d v^2 = A and 2uv = B, so u^2 is a root
        of t^2 - A t + d B^2/4 and r = 2u has r^2 = 2(A + s) with
        s^2 = A^2 - d B^2; as d < 0, s > |A| and A - s is negative.  The
        root is (r/2 + (B/r) sqrt d)/m with r > 0, exactly when
        r^4 + 4 d B^2 = 4 A r^2.
        """
        a, b, m = self._ints()
        d = self.d
        A = a * m
        if not b:
            if not a:
                return self
            if a > 0:
                r = isqrt(A)
                if r * r == A:
                    return _quad(Fraction(r, m), _ZERO, d)
            else:
                r = isqrt(A * d)
                if r * r == A * d:
                    return _quad(_ZERO, Fraction(r, -m * d), d)
            raise NotASquare(self)
        B = b * m
        dB2 = d * B * B
        norm = A * A - dB2
        s = isqrt(norm)
        if s * s == norm:
            r = isqrt(2 * (A + s))
            r2 = r * r
            if r2 * r2 + 4 * dB2 == 4 * A * r2:
                return _quad(Fraction(r, 2 * m), Fraction(B, r * m), d)
        raise NotASquare(self)

    def cube_roots(self):
        """The distinct c in the field with c^3 = self, rational ones first.

        m = N(c) is the rational cube root of N(self), and t = c + conj(c)
        is a rational root of T^3 - 3mT - 2p (p the rational part of self),
        so c = (t +- sqrt(t^2 - 4m))/2.  Each candidate is kept only if its
        cube is self.
        """
        if self.is_zero():
            return [self]
        norms = _rational_roots(_cleared([-self.norm(), 0, 0, 1]))
        if not norms:
            return []
        m = norms[0]
        traces = _rational_roots(_cleared([-2 * self.p, -3 * m, 0, 1]))
        if self.p == 0:  # _rational_roots leaves out the root t = 0
            traces.append(_ZERO)
        roots = []
        for t in traces:
            try:
                s = _quad(t * t - 4 * m, _ZERO, self.d).sqrt()
            except NotASquare:
                continue
            for c in ((t + s) / 2, (t - s) / 2):
                if c not in roots and c**3 == self:
                    roots.append(c)
        return sorted(roots, key=lambda c: not c.is_rational())

    def to_json_dict(self):
        return {
            "p_num": self.p.numerator,
            "p_den": self.p.denominator,
            "q_num": self.q.numerator,
            "q_den": self.q.denominator,
            "d": self.d,
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            Fraction(data["p_num"], data["p_den"]),
            Fraction(data["q_num"], data["q_den"]),
            data["d"],
        )

    def __str__(self):
        radical = "√%d" % self.d
        if self.q == 0:
            return str(self.p)
        q_part = radical if abs(self.q) == 1 else "%s%s" % (abs(self.q), radical)
        if self.p == 0:
            return q_part if self.q > 0 else "-" + q_part
        sign = "+" if self.q > 0 else "-"
        return "%s %s %s" % (self.p, sign, q_part)


_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__
_set_p = QuadNum.p.__set__
_set_q = QuadNum.q.__set__
_set_d = QuadNum.d.__set__


def _fraction(x):
    """x as a Fraction, for an int (not a bool) or a Fraction."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError("an exact value must be an int or a Fraction, got %r" % (x,))


def _quad(p, q, d):
    """A QuadNum from Fractions p, q and a d known to be valid, unchecked."""
    x = _new(QuadNum)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def zeta3(d=DEFAULT_D):
    """The primitive cube root of unity (-1 + sqrt(-3))/2; requires d = -3."""
    if d != -3:
        raise ValueError("a primitive cube root of unity needs d = -3")
    return QuadNum(Fraction(-1, 2), Fraction(1, 2), d)


# ---------------------------------------------------------------------------
# Polynomials over the field: coefficient lists, low degree first.
# ---------------------------------------------------------------------------

def poly_normalize(coeffs, d=DEFAULT_D):
    out = [QuadNum.of(c, d) for c in coeffs]
    while out and out[-1].is_zero():
        out.pop()
    return out


def poly_eval(coeffs, x):
    if not coeffs:
        return QuadNum.of(0, x.d)
    result = QuadNum.of(coeffs[-1], x.d)
    for c in reversed(coeffs[:-1]):
        result = result * x + c
    return result


def poly_deflate(coeffs, root):
    """Divide by (x - root) via synthetic division; the remainder must
    vanish exactly."""
    quotient = []
    acc = QuadNum.of(0, root.d)
    for c in reversed(coeffs):
        acc = acc * root + c
        quotient.append(acc)
    remainder = quotient.pop()
    if not remainder.is_zero():
        raise ValueError("%s is not a root" % (root,))
    quotient.reverse()
    return quotient


def _eval_mod(f, x, m):
    """f(x) mod m for an integer polynomial f."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    g = gcd(*f)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _prem(a, b):
    """Pseudo-remainder of the integer polynomial a by b."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        top, shift = a[-1], len(a) - len(b)
        a = [lead * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= top * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _exact_quotient(f, g):
    """f / g for integer polynomials where g is primitive and divides f."""
    f = list(f)
    quotient = [0] * (len(f) - len(g) + 1)
    for shift in reversed(range(len(quotient))):
        c = f[shift + len(g) - 1] // g[-1]
        quotient[shift] = c
        for i, gc in enumerate(g):
            f[shift + i] -= c * gc
    return quotient


def _squarefree_part(f):
    """f / gcd(f, f') for a primitive integer polynomial of degree >= 1."""
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while len(b) > 1:
        r = _prem(a, b)
        a, b = b, (_primitive(r) if r else [])
    if len(b) == 1:  # a nonzero constant remainder: gcd is 1
        return f
    return _primitive(_exact_quotient(f, a))


def _cleared(coeffs):
    """The rational polynomial coeffs times the lcm of its denominators."""
    fracs = [Fraction(c) for c in coeffs]
    m = lcm(*[c.denominator for c in fracs])
    return [c.numerator * (m // c.denominator) for c in fracs]


def _multiplicity(f, root, most):
    """How many times, counted up to most, (x - root) divides the integer
    polynomial f; the zero polynomial counts as most.

    With root = n/m in lowest terms, m x - n is primitive, so by Gauss's
    lemma it divides f over Q exactly when f = (m x - n) s over Z: from the
    top down s[i-1] = (f[i] + n s[i]) / m must be exact, and f[0] + n s[0]
    must vanish.
    """
    if not any(f):
        return most
    n, m = root.numerator, root.denominator
    k = 0
    while k < most:
        s, quotient = 0, []
        for c in reversed(f[1:]):
            s, rest = divmod(c + n * s, m)
            if rest:
                return k
            quotient.append(s)
        if f[0] + n * s:
            return k
        quotient.reverse()
        f = quotient
        k += 1
    return k


def _odd_primes():
    p = 3
    while True:
        if all(p % k for k in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _rational_roots(coeffs):
    """The distinct nonzero rational roots of a polynomial with integer
    coefficients, ordered by |numerator|, then denominator, positive first.
    A rational polynomial goes through _cleared first.

    Roots are found p-adically: take the squarefree part f of the integer
    polynomial, pick the smallest odd prime p not dividing lead(f) at which
    every root of f mod p is simple, and Newton-lift each root mod p until
    p^k > 2 |lead(f) f(0)|.  A rational root n/m has m | lead(f) and
    n | f(0), so lead(f) n/m is the symmetric residue of lead(f) x mod p^k.
    Every candidate is verified exactly.

    Simple roots mod p are what the lifting needs; f mod p being squarefree
    implies it, and holds for all p outside the finitely many dividing
    disc(f), so the prime search ends.  Without the squarefree part it
    would not: a repeated rational root is a repeated root mod every p.
    """
    f = list(coeffs)
    while f and f[-1] == 0:
        f.pop()
    while f and f[0] == 0:
        f.pop(0)
    if len(f) < 2:
        return []
    f = _squarefree_part(_primitive(f))
    df = [i * c for i, c in enumerate(f)][1:]
    lead = f[-1]
    for p in _odd_primes():
        if lead % p == 0:
            continue
        residues = [a for a in range(p) if _eval_mod(f, a, p) == 0]
        if all(_eval_mod(df, a, p) for a in residues):
            break
    bound = 2 * abs(lead * f[0])
    roots = []
    for x in residues:
        modulus = p
        while modulus <= bound:
            modulus *= modulus
            x = (x - _eval_mod(f, x, modulus)
                 * pow(_eval_mod(df, x, modulus), -1, modulus)) % modulus
        s = lead * x % modulus
        if 2 * s > modulus:
            s -= modulus
        root = Fraction(s, lead)
        n, m = root.numerator, root.denominator
        # m^deg f(n/m) == 0, in integers
        if sum(c * n**i * m**(len(f) - 1 - i) for i, c in enumerate(f)) == 0:
            roots.append(root)
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _solve_quadratic(coeffs, d):
    """Roots of c0 + c1 x + c2 x^2 inside the field; returns (roots, outside)."""
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    try:
        s = disc.sqrt()
    except NotASquare:
        return [], 2
    two_a = 2 * c2
    return [(-c1 + s) / two_a, (-c1 - s) / two_a], 0


def _split_rational_quartic(coeffs, d):
    """Split a monic rational quartic with no rational roots into two
    quadratics with coefficients in the field, via the resolvent cubic."""
    c0, c1, c2, c3 = (c.p for c in coeffs[:4])  # monic: coeffs[4] == 1
    # depress: x = y - c3/4
    shift = c3 / 4
    p = c2 - 6 * shift**2
    q = c1 - 2 * c2 * shift + 8 * shift**3
    r = c0 - c1 * shift + c2 * shift**2 - 3 * shift**4
    pairs = []
    if q == 0:
        ts, outside = _solve_quadratic(
            [QuadNum.of(r, d), QuadNum.of(p, d), QuadNum.of(1, d)], d)
        if not ts:
            raise UnsupportedFactorization("biquadratic resolvent does not split")
        for t in ts:
            pairs.append((QuadNum.of(0, d), -t))  # y^2 - t
        quadratics = [[c, b, QuadNum.of(1, d)] for b, c in pairs]
    else:
        zs = _rational_roots(_cleared([-q * q, p * p - 4 * r, 2 * p, 1]))
        if not zs:
            raise UnsupportedFactorization("resolvent cubic has no rational root")
        z = QuadNum.of(zs[0], d)
        try:
            s = z.sqrt()
        except NotASquare:
            raise UnsupportedFactorization("resolvent root is not a square")
        qn = QuadNum.of(q, d)
        pn = QuadNum.of(p, d)
        t = (pn + z - qn / s) / 2
        u = (pn + z + qn / s) / 2
        quadratics = [
            [t, s, QuadNum.of(1, d)],
            [u, -s, QuadNum.of(1, d)],
        ]
    # undo the depression: y = x + shift
    shifted = []
    sh = QuadNum.of(shift, d)
    for c, b, a in quadratics:
        shifted.append([c + b * sh + sh * sh, b + 2 * sh, a])
    return shifted


def find_field_roots(coeffs, d=DEFAULT_D):
    """All roots (with multiplicity) in Q(sqrt d) of a degree <= 4 poly.

    Returns (roots, outside) where outside counts roots provably lying
    outside the field.  Raises UnsupportedFactorization when the polynomial
    cannot be split into degree <= 2 factors over the field.
    """
    poly = poly_normalize(coeffs, d)
    if len(poly) < 2:
        return [], 0
    if len(poly) > 5:
        raise UnsupportedFactorization("degree > 4 is not supported")
    roots = []
    outside = 0
    zero = QuadNum.of(0, d)
    while len(poly) >= 2 and poly[0].is_zero():
        roots.append(zero)
        poly = poly[1:]
    if len(poly) >= 4:
        # cleared once, by the lcm of all denominators, the polynomial is a
        # positive multiple of P + Q sqrt(d) with P, Q integer lists.  It has
        # the rational root r exactly when P(r) = Q(r) = 0, and (x - r)^k
        # divides it exactly when it divides both parts: candidates come
        # from one part, their multiplicity from both, in integers
        m = lcm(*[c.p.denominator for c in poly], *[c.q.denominator for c in poly])
        P = [c.p.numerator * (m // c.p.denominator) for c in poly]
        Q = [c.q.numerator * (m // c.q.denominator) for c in poly]
        for r in _rational_roots(P if any(P) else Q):
            k = len(poly) - 3
            for f in (P, Q):
                k = _multiplicity(f, r, k)
            x = _quad(r, _ZERO, d)
            for _ in range(k):
                roots.append(x)
                poly = poly_deflate(poly, x)
    if len(poly) >= 4:
        if not all(c.is_rational() for c in poly):
            raise UnsupportedFactorization(
                "no linear factor found for an irrational-coefficient polynomial")
        if len(poly) == 4:
            # rational cubic with no rational root: irreducible over Q,
            # hence no root in a quadratic extension either
            outside += 3
        else:
            lead = poly[-1]
            monic = [c / lead for c in poly]
            for quad in _split_rational_quartic(monic, d):
                sub_roots, sub_outside = _solve_quadratic(quad, d)
                roots.extend(sub_roots)
                outside += sub_outside
        poly = []
    if len(poly) == 3:
        sub_roots, sub_outside = _solve_quadratic(poly, d)
        roots.extend(sub_roots)
        outside += sub_outside
    elif len(poly) == 2:
        roots.append(-poly[0] / poly[1])
    return roots, outside
