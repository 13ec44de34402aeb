"""Exact elliptic-curve computations over an imaginary quadratic field.

Short Weierstrass curves y^2 = x^3 + Ax + B with A, B in Q(sqrt d), the
chord-tangent group law, 3-torsion via the 3-division polynomial
3x^4 + 6Ax^2 + 12Bx - A^2, degree-3 isogenies, and isomorphism/twist
classification by a twisting scalar.

The degree-3 isogeny with kernel {O, P, -P} uses the one-representative-
per-pair normalization

    t = 2*(3*x0^2 + A),   w = 4*y0^2 + x0*t,
    A' = A - 5t,          B' = B - 7w,

with rational map X = x + t/(x-x0) + 4y0^2/(x-x0)^2 and Y = y * dX/dx.
Summing separate contributions from P and -P instead (the other common
convention) yields the same codomain, but the per-pair form is the one
whose coefficients we pin in the golden tables, so it is fixed here.

The classical model of the degree-3 Fermat cubic used throughout is
y^2 z = x^3 - 432 z^3, reached from x^3 + y^3 = z^3 by the standard
substitution x -> 12z/(y+x)-ish change of variables recorded in
fermat_cubic_weierstrass; the substitution is taken as given data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import HeiscurveError
from .quadfield import (
    DEFAULT_D,
    FieldMismatch,
    NotASquare,
    QuadNum,
    _ZERO,
    _quad,
    find_field_roots,
)


class SingularCurve(ArithmeticError, HeiscurveError):
    """Vanishing discriminant."""


class PointNotOnCurve(ValueError, HeiscurveError):
    pass


class BadKernelPoint(ValueError, HeiscurveError):
    """Isogeny kernel generator is not an affine point of order 3."""


class NoUniqueJZeroCodomain(ArithmeticError, HeiscurveError):
    """The isogeny table over Q(sqrt d) does not have exactly one j = 0 row."""

    def __init__(self, d, j_zero_rows):
        super().__init__(
            "over Q(sqrt(%d)) the isogeny table has %d rows with j = 0, "
            "expected exactly one" % (d, j_zero_rows))
        self.d = d
        self.j_zero_rows = j_zero_rows


class ZeroHessian(ArithmeticError, HeiscurveError):
    """The Hessian of a cubic vanishes identically (the cubic is a cone)."""

    def __init__(self, cubic):
        super().__init__("the Hessian of %s vanishes identically" % cubic)
        self.cubic = cubic


def _pair_mul(u0, u1, v0, v1, d):
    """(u0 + u1 sqrt d)(v0 + v1 sqrt d) as an integer pair."""
    return u0 * v0 + d * u1 * v1, u0 * v1 + u1 * v0


def _cube_times_square(u0, u1, v0, v1, d):
    """(u0 + u1 sqrt d)^3 (v0 + v1 sqrt d)^2 as an integer pair."""
    s0, s1 = _pair_mul(u0, u1, u0, u1, d)
    s0, s1 = _pair_mul(s0, s1, u0, u1, d)
    t0, t1 = _pair_mul(v0, v1, v0, v1, d)
    return _pair_mul(s0, s1, t0, t1, d)


def _discriminant_terms(a0, a1, ma, b0, b1, mb, d):
    """4A^3 and 27B^2 times mA^3 mB^2, as two integer pairs, for
    A = (a0 + a1 sqrt d)/mA and B = (b0 + b1 sqrt d)/mB."""
    s0, s1 = _pair_mul(a0, a1, a0, a1, d)
    c0, c1 = _pair_mul(s0, s1, a0, a1, d)
    t0, t1 = _pair_mul(b0, b1, b0, b1, d)
    u, v = 4 * mb * mb, 27 * ma * ma * ma
    return u * c0, u * c1, v * t0, v * t1


def _pair_quotient(n0, n1, e0, e1, d):
    """(n0 + n1 sqrt d)/(e0 + e1 sqrt d) for e != 0, as n times the
    conjugate of e over the norm e0^2 - d e1^2 > 0: two Fractions and no
    field inversion."""
    norm = e0 * e0 - d * e1 * e1
    return _quad(Fraction(n0 * e0 - d * n1 * e1, norm),
                 Fraction(n1 * e0 - n0 * e1, norm), d)


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + Ax + B over Q(sqrt d).

    An int or Fraction coefficient is coerced into the field of the other
    coefficient, or into Q(sqrt DEFAULT_D) when both are rational.  The
    constructor and contains() clear the denominators of their equations
    and compare integer pairs, with A = (a0 + a1 sqrt d)/mA and
    B = (b0 + b1 sqrt d)/mB kept by the curve: neither multiplies in the
    field.
    """

    A: QuadNum
    B: QuadNum

    def __post_init__(self):
        A, B = self.A, self.B
        if not isinstance(A, QuadNum) or not isinstance(B, QuadNum):
            d = (B.d if isinstance(B, QuadNum)
                 else A.d if isinstance(A, QuadNum) else DEFAULT_D)
            A, B = QuadNum.of(A, d), QuadNum.of(B, d)
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "B", B)
        d = A.d
        if B.d != d:
            raise FieldMismatch(d, B.d)
        a0, a1, ma = A._ints()
        b0, b1, mb = B._ints()
        # 4A^3 + 27B^2 = 0, times mA^3 mB^2
        f0, f1, g0, g1 = _discriminant_terms(a0, a1, ma, b0, b1, mb, d)
        if f0 + g0 == 0 and f1 + g1 == 0:
            raise SingularCurve("4A^3 + 27B^2 = 0")
        object.__setattr__(self, "_coeff_ints", (a0, a1, ma, b0, b1, mb))

    @classmethod
    def of(cls, a, b, d=DEFAULT_D):
        return cls(QuadNum.of(a, d), QuadNum.of(b, d))

    @property
    def d(self):
        return self.A.d

    def rhs(self, x):
        return (x * x + self.A) * x + self.B

    def contains(self, x, y):
        d = self.d
        x0, x1, mx = QuadNum.of(x, d)._ints()
        y0, y1, my = QuadNum.of(y, d)._ints()
        a0, a1, ma, b0, b1, mb = self._coeff_ints
        # y^2 = x^3 + Ax + B, times my^2 mx^3 mA mB
        s0, s1 = _pair_mul(x0, x1, x0, x1, d)
        c0, c1 = _pair_mul(s0, s1, x0, x1, d)
        l0, l1 = _pair_mul(a0, a1, x0, x1, d)
        y0, y1 = _pair_mul(y0, y1, y0, y1, d)
        my2, mx2 = my * my, mx * mx
        lhs = mx2 * mx * ma * mb
        cubic, linear = my2 * ma * mb, my2 * mx2 * mb
        const = my2 * mx2 * mx * ma
        return (y0 * lhs == c0 * cubic + l0 * linear + b0 * const
                and y1 * lhs == c1 * cubic + l1 * linear + b1 * const)

    def infinity(self):
        return Point(self, None, None, True)

    def point(self, x, y):
        return Point(self, x, y)

    def to_json_dict(self):
        return {"A": self.A.to_json_dict(), "B": self.B.to_json_dict()}

    def __str__(self):
        parts = ["y^2 = x^3"]
        if not self.A.is_zero():
            parts.append("+ (%s)x" % self.A)
        if not self.B.is_zero():
            parts.append("+ (%s)" % self.B)
        return " ".join(parts)


@dataclass(frozen=True)
class Point:
    curve: Curve
    x: object
    y: object
    at_infinity: bool = False

    def __post_init__(self):
        if self.at_infinity:
            return
        if not isinstance(self.x, QuadNum):
            object.__setattr__(self, "x", QuadNum.of(self.x, self.curve.d))
        if not isinstance(self.y, QuadNum):
            object.__setattr__(self, "y", QuadNum.of(self.y, self.curve.d))
        if not self.curve.contains(self.x, self.y):
            raise PointNotOnCurve("(%s, %s) not on %s" % (self.x, self.y, self.curve))

    def __neg__(self):
        if self.at_infinity:
            return self
        return Point(self.curve, self.x, -self.y)

    def __str__(self):
        if self.at_infinity:
            return "O"
        return "(%s : %s : 1)" % (self.x, self.y)


def j_invariant(curve):
    """1728 * 4A^3 / (4A^3 + 27B^2).

    Numerator and denominator times mA^3 mB^2 are the integer pairs
    1728 * 4 alpha^3 mB^2 and 4 alpha^3 mB^2 + 27 beta^2 mA^3, where
    A = alpha/mA and B = beta/mB are the curve's _coeff_ints, so j makes
    no field operation.
    """
    d = curve.d
    f0, f1, g0, g1 = _discriminant_terms(*curve._coeff_ints, d)
    return _pair_quotient(1728 * f0, 1728 * f1, f0 + g0, f1 + g1, d)


def point_add(p, q):
    if p.curve != q.curve:
        raise ValueError("points on different curves")
    if p.at_infinity:
        return q
    if q.at_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return p.curve.infinity()
        slope = (3 * p.x * p.x + p.curve.A) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return Point(p.curve, x3, y3)


def scalar_mul(p, k):
    """k * p by double-and-add from the lowest set bit of k, with no
    doubling after the top bit.  k must be an int, not a bool."""
    if type(k) is not int:
        raise TypeError("k must be an int, got %r" % (k,))
    if k < 0:
        p, k = -p, -k
    if k == 0:
        return p.curve.infinity()
    result = None
    addend = p
    while True:
        if k & 1:
            result = addend if result is None else point_add(result, addend)
        k >>= 1
        if not k:
            return result
        addend = point_add(addend, addend)


def _psi3_parts(curve):
    """Integer lists P and Q, low degree first, with
    (3x^4 + 6Ax^2 + 12Bx - A^2) mA^2 mB = P + Q sqrt(d), for
    A = alpha/mA and B = beta/mB the curve's _coeff_ints."""
    a0, a1, ma, b0, b1, mb = curve._coeff_ints
    s0, s1 = _pair_mul(a0, a1, a0, a1, curve.d)
    ma2 = ma * ma
    return ([-s0 * mb, 12 * b0 * ma2, 6 * a0 * ma * mb, 0, 3 * ma2 * mb],
            [-s1 * mb, 12 * b1 * ma2, 6 * a1 * ma * mb, 0, 0])


def _psi3_vanishes(curve, x):
    """Whether psi_3(x) = 0, decided on _psi3_parts in integers: with
    x = (x0 + x1 sqrt d)/m, Horner's rule gives m^4 mA^2 mB psi_3(x) as
    an integer pair, zero exactly when psi_3(x) is, as m, mA, mB > 0."""
    x0, x1, m = x._ints()
    P, Q = _psi3_parts(curve)
    d = curve.d
    a0, a1, scale = P[4], Q[4], 1
    for i in (3, 2, 1, 0):
        scale *= m
        a0, a1 = _pair_mul(a0, a1, x0, x1, d)
        a0 += P[i] * scale
        a1 += Q[i] * scale
    return a0 == 0 and a1 == 0


def division_poly_3(curve):
    """Coefficients (low first) of 3x^4 + 6Ax^2 + 12Bx - A^2, read off
    _psi3_parts with no field operation."""
    _, _, ma, _, _, mb = curve._coeff_ints
    m, d = ma * ma * mb, curve.d
    P, Q = _psi3_parts(curve)
    return [_quad(Fraction(p, m) if p else _ZERO, Fraction(q, m) if q else _ZERO, d)
            for p, q in zip(P, Q)]


@dataclass(frozen=True)
class ThreeTorsion:
    """Field-rational 3-torsion: points, their x-roots, and what was missed."""

    points: tuple
    x_roots: tuple
    missing_y: int  # x in the field, y outside
    missing_x: int  # x-roots provably outside the field

    def count_with_identity(self):
        return len(self.points) + 1


def three_torsion(curve):
    """All affine 3-torsion points with coordinates in the field."""
    roots, missing_x = find_field_roots(division_poly_3(curve), curve.d)
    points = []
    kept_roots = []
    missing_y = 0
    for x in roots:
        try:
            y = curve.rhs(x).sqrt()
        except NotASquare:
            missing_y += 1
            continue
        kept_roots.append(x)
        points.append(Point(curve, x, y))
        if not y.is_zero():
            points.append(Point(curve, x, -y))
    return ThreeTorsion(tuple(points), tuple(kept_roots), missing_y, missing_x)


def _velu3(curve, p):
    """(codomain, t, u) of the 3-isogeny with kernel {O, P, -P}, where
    u = 4 y0^2 and w = u + x0 t."""
    if p.at_infinity:
        raise BadKernelPoint("kernel generator must be affine")
    if not _psi3_vanishes(curve, p.x):
        raise BadKernelPoint("%s is not a 3-torsion point" % (p,))
    t = 2 * (3 * p.x * p.x + curve.A)
    u = 4 * p.y * p.y
    return Curve(curve.A - 5 * t, curve.B - 7 * (u + p.x * t)), t, u


def velu3(curve, p):
    """Codomain of the 3-isogeny with kernel {O, P, -P}."""
    return _velu3(curve, p)[0]


def velu3_map(curve, p, q):
    """Image of q under the 3-isogeny with kernel generated by p."""
    codomain, t, u = _velu3(curve, p)
    if q.curve != curve:
        raise PointNotOnCurve("q does not lie on the domain curve")
    if q.at_infinity or q.x == p.x:
        return codomain.infinity()
    dx = q.x - p.x
    image_x = q.x + t / dx + u / (dx * dx)
    image_y = q.y * (1 - t / (dx * dx) - 2 * u / (dx * dx * dx))
    return Point(codomain, image_x, image_y)


def aut0_order(curve):
    """Order of the origin-fixing automorphism group: 6 when A = 0 (j = 0),
    4 when B = 0 (j = 1728), else 2."""
    if curve.A.is_zero():
        return 6
    if curve.B.is_zero():
        return 4
    return 2


@dataclass(frozen=True)
class Classification:
    kind: str  # isomorphic | quadratic-twist | same-j-only | distinct-j
    scale: object = None  # u for isomorphic, delta for quadratic-twist

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.scale is not None:
            out["scale"] = self.scale.to_json_dict()
        return out


def classify_pair(e1, e2):
    """Finest relationship between two curves over their common field.

    Every relation between curves with the same j is a twisting scalar
    delta with A2 = delta^2 A1 and B2 = delta^3 B1 (Silverman, X.5).  The
    pair is isomorphic over the field when some delta is a square u^2, so
    that A2 = u^4 A1 and B2 = u^6 B1; a quadratic twist when a delta exists
    but none is a square; and same-j-only when there is no delta.

    The same-j test and the coefficient ratios that give delta are taken
    on the curves' integer pairs A = alpha/mA, B = beta/mB; only the square
    and cube roots of delta work in the field.
    """
    if e1.d != e2.d:
        raise FieldMismatch(e1.d, e2.d)
    # equal j exactly when A1^3 B2^2 = A2^3 B1^2; with A = alpha/mA and
    # B = beta/mB, test alpha1^3 beta2^2 mA2^3 mB1^2 = alpha2^3 beta1^2
    # mA1^3 mB2^2 on integer pairs
    d = e1.d
    a10, a11, ma1, b10, b11, mb1 = e1._coeff_ints
    a20, a21, ma2, b20, b21, mb2 = e2._coeff_ints
    l0, l1 = _cube_times_square(a10, a11, b20, b21, d)
    r0, r1 = _cube_times_square(a20, a21, b10, b11, d)
    lm, rm = ma2**3 * mb1 * mb1, ma1**3 * mb2 * mb2
    if l0 * lm != r0 * rm or l1 * lm != r1 * rm:
        return Classification("distinct-j")
    if e1.A.is_zero():  # j = 0: delta^3 = B2/B1 = beta2 mB1/(beta1 mB2)
        deltas = _pair_quotient(b20 * mb1, b21 * mb1, b10 * mb2, b11 * mb2,
                                d).cube_roots()
    elif e1.B.is_zero():  # j = 1728: delta^2 = A2/A1 = alpha2 mA1/(alpha1 mA2)
        try:
            s = _pair_quotient(a20 * ma1, a21 * ma1, a10 * ma2, a11 * ma2,
                               d).sqrt()
            deltas = [s, -s]
        except NotASquare:
            deltas = []
    else:  # delta = B2 A1/(B1 A2) = beta2 alpha1 mB1 mA2/(beta1 alpha2 mB2 mA1)
        n0, n1 = _pair_mul(b20, b21, a10, a11, d)
        q0, q1 = _pair_mul(b10, b11, a20, a21, d)
        mn, mq = mb1 * ma2, mb2 * ma1
        deltas = [_pair_quotient(n0 * mn, n1 * mn, q0 * mq, q1 * mq, d)]
    for delta in deltas:
        try:
            return Classification("isomorphic", delta.sqrt())
        except NotASquare:
            continue
    if deltas:
        return Classification("quadratic-twist", deltas[0])
    return Classification("same-j-only")


# ---------------------------------------------------------------------------
# Homogeneous cubics over Q and the Hessian determinant.
# ---------------------------------------------------------------------------

_MONOMIALS = frozenset((i, j, 3 - i - j) for i in range(4) for j in range(4 - i))


@dataclass(frozen=True)
class Cubic:
    """Homogeneous degree-3 polynomial in X, Y, Z with rational coefficients,
    keyed by exponent triples.  Each coefficient must be an int or a
    Fraction, and each monomial may appear once."""

    coeffs: tuple  # sorted tuple of ((i, j, k), Fraction)

    def __post_init__(self):
        cleaned = {}
        for term in self.coeffs:
            try:
                mono, c = term
            except (TypeError, ValueError):
                raise TypeError("a term must be a (monomial, coefficient) pair, "
                                "got %r" % (term,)) from None
            # a tuple of ints is hashable, so the set lookup cannot raise
            if (type(mono) is not tuple or any(type(e) is not int for e in mono)
                    or mono not in _MONOMIALS):
                raise ValueError("monomial %r is not degree 3 in nonnegative "
                                 "integer exponents" % (mono,))
            if mono in cleaned:
                raise ValueError("monomial %r appears more than once" % (mono,))
            if type(c) is not int and type(c) is not Fraction:
                raise TypeError("the coefficient of %r must be an int or a "
                                "Fraction, got %r" % (mono, c))
            cleaned[mono] = Fraction(c)
        coeffs = tuple(sorted((m, c) for m, c in cleaned.items() if c))
        if not coeffs:
            raise ValueError("the zero polynomial is not a cubic")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_dict(cls, mapping):
        return cls(tuple(mapping.items()))

    def as_dict(self):
        return dict(self.coeffs)

    def __str__(self):
        names = ("x", "y", "z")
        terms = []
        for (i, j, k), c in self.coeffs:
            mono = "".join(
                "%s^%d" % (names[t], e) if e > 1 else names[t]
                for t, e in enumerate((i, j, k))
                if e
            )
            terms.append("%s*%s" % (c, mono) if mono else str(c))
        return " + ".join(terms)


def _cubic(coeffs):
    """A Cubic from a tuple of (monomial, nonzero Fraction) pairs that is
    already sorted by monomial and free of repeats, unchecked."""
    cubic = object.__new__(Cubic)
    object.__setattr__(cubic, "coeffs", coeffs)
    return cubic


def _hessian_slots(mono):
    """(slot, f) pairs for a monomial: its second partial d^2/dv_r dv_s,
    r <= s, is f * v_t, and it lands in slot 3 * entry + t, where entry
    numbers the upper triangle a, b, c, d, e, g of the symmetric matrix
    [[a, b, c], [b, d, e], [c, e, g]] row by row."""
    out = []
    entry = 0
    for r in range(3):
        for s in range(r, 3):
            e = list(mono)
            f = e[r]
            e[r] -= 1
            f *= e[s]
            e[s] -= 1
            if f:
                out.append((3 * entry + e.index(1), f))
            entry += 1
    return tuple(out)


_HESSIAN_SLOTS = {m: _hessian_slots(m) for m in _MONOMIALS}
_SORTED_MONOMIALS = tuple(sorted(_MONOMIALS))


def _linear_times_quadratic(l, q):
    """l*q as a cubic form, coefficients in _SORTED_MONOMIALS order."""
    l0, l1, l2 = l
    xx, xy, xz, yy, yz, zz = q
    return (l2 * zz, l1 * zz + l2 * yz, l1 * yz + l2 * yy, l1 * yy,
            l0 * zz + l2 * xz, l0 * yz + l1 * xz + l2 * xy, l0 * yy + l1 * xy,
            l0 * xz + l2 * xx, l0 * xy + l1 * xx, l0 * xx)


def hessian(cubic):
    """Determinant of the matrix of second partials, as another cubic.

    With L the lcm of the coefficient denominators, L*F has integer
    coefficients, so each second partial of L*F is an integer linear form.
    The symmetric matrix [[a, b, c], [b, d, e], [c, e, g]] of these forms
    is held as its six distinct entries, 18 integers, and
    det H(L*F) = L^3 det H(F) = a(dg - e^2) - b(bg - ec) + c(be - dc) is
    expanded from the three quadratic minors written out coefficient by
    coefficient, then divided by L^3 once per monomial.  Raises ZeroHessian
    when the determinant vanishes identically (the cubic is a cone).
    """
    scale = lcm(*(c.denominator for _, c in cubic.coeffs))
    h = [0] * 18
    for mono, coeff in cubic.coeffs:
        n = coeff.numerator * (scale // coeff.denominator)
        for slot, f in _HESSIAN_SLOTS[mono]:
            h[slot] += f * n
    a0, a1, a2, b0, b1, b2, c0, c1, c2, d0, d1, d2, e0, e1, e2, g0, g1, g2 = h
    # each minor as its coefficients of xx, xy, xz, yy, yz, zz
    dg_ee = (d0 * g0 - e0 * e0, d0 * g1 + d1 * g0 - 2 * e0 * e1,
             d0 * g2 + d2 * g0 - 2 * e0 * e2, d1 * g1 - e1 * e1,
             d1 * g2 + d2 * g1 - 2 * e1 * e2, d2 * g2 - e2 * e2)
    bg_ec = (b0 * g0 - e0 * c0, b0 * g1 + b1 * g0 - e0 * c1 - e1 * c0,
             b0 * g2 + b2 * g0 - e0 * c2 - e2 * c0, b1 * g1 - e1 * c1,
             b1 * g2 + b2 * g1 - e1 * c2 - e2 * c1, b2 * g2 - e2 * c2)
    be_dc = (b0 * e0 - d0 * c0, b0 * e1 + b1 * e0 - d0 * c1 - d1 * c0,
             b0 * e2 + b2 * e0 - d0 * c2 - d2 * c0, b1 * e1 - d1 * c1,
             b1 * e2 + b2 * e1 - d1 * c2 - d2 * c1, b2 * e2 - d2 * c2)
    cube = scale**3
    coeffs = []
    for mono, p, q, r in zip(_SORTED_MONOMIALS,
                             _linear_times_quadratic((a0, a1, a2), dg_ee),
                             _linear_times_quadratic((b0, b1, b2), bg_ec),
                             _linear_times_quadratic((c0, c1, c2), be_dc)):
        n = p - q + r
        if n:
            coeffs.append((mono, Fraction(n, cube)))
    if not coeffs:
        raise ZeroHessian(cubic)
    return _cubic(tuple(coeffs))


def fermat_cubic_weierstrass():
    """The cubic y^2 z - x^3 + 432 z^3 and its affine curve y^2 = x^3 - 432.

    This is the classical Weierstrass model of x^3 + y^3 = z^3 under the
    substitution (x, y) -> (12 z / (x + y), 36 (x - y) / (x + y)).  The
    tests check it at every prime 5 <= p < 100: both curves have the same
    number of points over F_p, the substitution sends each affine point of
    x^3 + y^3 = 1 with x + y != 0 onto y^2 = x^3 - 432, and the Hessian
    vanishes at the base point (0 : 1 : 0), which is therefore a flex.
    """
    cubic = Cubic.from_dict({
        (0, 2, 1): Fraction(1),
        (3, 0, 0): Fraction(-1),
        (0, 0, 3): Fraction(432),
    })
    return cubic, Curve.of(0, -432)


# ---------------------------------------------------------------------------
# The full degree-3 derivation pipeline.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsogenyRow:
    kernel_x: QuadNum
    kernel_y: QuadNum
    codomain: Curve
    j: QuadNum
    aut0: int

    def to_json_dict(self):
        return {
            "kernel_x": self.kernel_x.to_json_dict(),
            "kernel_y": self.kernel_y.to_json_dict(),
            "codomain": self.codomain.to_json_dict(),
            "j": self.j.to_json_dict(),
            "aut0_order": self.aut0,
        }


@dataclass(frozen=True)
class DerivationReport:
    base_curve: Curve
    rows: tuple
    pair_classifications: tuple  # ((index, index), Classification)
    selected: Curve

    def to_json_dict(self):
        return {
            "base_curve": self.base_curve.to_json_dict(),
            "rows": [r.to_json_dict() for r in self.rows],
            "pair_classifications": [
                {"rows": list(pair), **cls.to_json_dict()}
                for pair, cls in self.pair_classifications
            ],
            "selected": self.selected.to_json_dict(),
        }

    def to_text(self):
        lines = ["base curve: %s" % self.base_curve, ""]
        header = "%-28s | %-44s | %s" % ("kernel point", "isogenous curve", "j")
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "%-28s | %-44s | %s"
                % ("(%s : ±%s : 1)" % (row.kernel_x, row.kernel_y),
                   row.codomain, row.j)
            )
        lines.append("")
        lines.append("pairwise classification of the codomains:")
        for (i, j), cls in self.pair_classifications:
            scale = "" if cls.scale is None else " (scale %s)" % cls.scale
            lines.append("    rows %d,%d: %s%s" % (i + 1, j + 1, cls.kind, scale))
        lines.append("")
        lines.append("selected (unique j = 0, origin stabilizer of order 6):")
        lines.append("    %s" % self.selected)
        return "\n".join(lines)


def _table_sort_key(x):
    # zero kernel x first, then irrational x by ascending sqrt(d)-part,
    # rational x last; ties broken by the rational part
    if x.is_zero():
        return (0, 0, 0)
    if not x.is_rational():
        return (1, x.q, x.p)
    return (2, x.p, 0)


def derive_isogenous_curves(d=DEFAULT_D):
    """End-to-end pipeline from y^2 = x^3 - 432 to its four 3-isogenous
    curves, their j-invariants, pairwise classification, and the unique
    codomain with j = 0."""
    base = Curve.of(0, -432, d)
    torsion = three_torsion(base)
    kernels = {}
    for p in torsion.points:
        if p.x not in kernels or kernels[p.x].y.q < p.y.q:
            kernels[p.x] = p
    reps = sorted(kernels.values(), key=lambda p: _table_sort_key(p.x))
    rows = []
    for p in reps:
        codomain = velu3(base, p)
        rows.append(
            IsogenyRow(p.x, p.y, codomain, j_invariant(codomain),
                       aut0_order(codomain))
        )
    classifications = tuple(
        ((i, j), classify_pair(rows[i].codomain, rows[j].codomain))
        for i, j in combinations(range(len(rows)), 2)
    )
    selected = [r for r in rows if r.j.is_zero()]
    if len(selected) != 1:
        raise NoUniqueJZeroCodomain(d, len(selected))
    return DerivationReport(base, tuple(rows), classifications,
                            selected[0].codomain)
