import re
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from heiscurve import elliptic, quadfield
from heiscurve.elliptic import (
    Classification,
    BadKernelPoint,
    Cubic,
    Curve,
    NoUniqueJZeroCodomain,
    Point,
    PointNotOnCurve,
    SingularCurve,
    ThreeTorsion,
    ZeroHessian,
    aut0_order,
    classify_pair,
    derive_isogenous_curves,
    division_poly_3,
    fermat_cubic_weierstrass,
    hessian,
    j_invariant,
    point_add,
    scalar_mul,
    three_torsion,
    velu3,
    velu3_map,
)
from heiscurve.quadfield import (
    FieldMismatch,
    NotASquare,
    QuadNum,
    UnsupportedFactorization,
    find_field_roots,
    poly_eval,
    zeta3,
)


def quad(p, q=0):
    return QuadNum(Fraction(p), Fraction(q), -3)


BASE = Curve.of(0, -432)
ROW_CURVES = [
    Curve.of(0, 11664),
    Curve(quad(2160, -2160), quad(-109296)),
    Curve(quad(2160, 2160), quad(-109296)),
    Curve.of(-4320, -109296),
]


def field_elems(d):
    rationals = st.fractions(max_denominator=12, min_value=Fraction(-20),
                             max_value=Fraction(20))
    return st.builds(lambda p, q: QuadNum(p, q, d), rationals, rationals)


@st.composite
def curves_and_x(draw, d):
    A, B, x = draw(field_elems(d)), draw(field_elems(d)), draw(field_elems(d))
    try:
        return Curve(A, B), x
    except SingularCurve:
        assume(False)


FIELDS = (-1, -3, -7, -12, -27)
FAMILIES = ("generic", "j=0", "j=1728")


@st.composite
def family_curves(draw, d, family, elems=field_elems):
    """A nonsingular curve over Q(sqrt d), with A = 0 for j = 0 and B = 0
    for j = 1728."""
    zero = QuadNum.of(0, d)
    A = zero if family == "j=0" else draw(elems(d))
    B = zero if family == "j=1728" else draw(elems(d))
    try:
        return Curve(A, B)
    except SingularCurve:
        assume(False)


@st.composite
def related_pairs(draw, fields=FIELDS, elems=field_elems, near_miss=False):
    """(E1, E2): E2 is E1 scaled by (u^4, u^6) or by (delta^2, delta^3), or
    a random curve of the same j family.  With near_miss, A2 or B2 may
    then move by +-1 or +-sqrt d."""
    d = draw(st.sampled_from(fields))
    family = draw(st.sampled_from(FAMILIES))
    e1 = draw(family_curves(d, family, elems))
    relation = draw(st.sampled_from(("u", "delta", "random")))
    if relation == "random":
        e2 = draw(family_curves(d, family, elems))
    else:
        scale = draw(elems(d))
        assume(not scale.is_zero())
        a, b = (4, 6) if relation == "u" else (2, 3)
        e2 = Curve(scale**a * e1.A, scale**b * e1.B)
    if not near_miss:
        return e1, e2
    root = QuadNum.root(d)
    unit = draw(st.sampled_from([0, 1, -1, root, -root]))
    A2, B2 = e2.A, e2.B
    if draw(st.sampled_from("AB")) == "A":
        A2 = A2 + unit
    else:
        B2 = B2 + unit
    try:
        return e1, Curve(A2, B2)
    except SingularCurve:
        assume(False)


# ---------------------------------------------------------------------------
# Reference classification: the three-branch version that found cube and
# sixth roots through the quartic root finder.
# ---------------------------------------------------------------------------


def oracle_cube_roots(value):
    zero = QuadNum.of(0, value.d)
    roots, _ = find_field_roots([-value, zero, zero, QuadNum.of(1, value.d)],
                                value.d)
    return roots


def oracle_sixth_roots(value):
    out = []
    for g in oracle_cube_roots(value):
        try:
            u = g.sqrt()
        except NotASquare:
            continue
        out.extend([u, -u])
    return out


def oracle_distinct_j(e1, e2):
    """The same-j test as classify_pair made it in field arithmetic."""
    return e1.A**3 * e2.B**2 != e2.A**3 * e1.B**2


def oracle_j_invariant(curve):
    """j as j_invariant computed it in field arithmetic."""
    four_a3 = 4 * curve.A**3
    return 1728 * four_a3 / (four_a3 + 27 * curve.B**2)


def oracle_field_classify_pair(e1, e2):
    """classify_pair as it was with the ratios delta^3 = B2/B1,
    delta^2 = A2/A1 and delta = B2 A1/(B1 A2) taken in the field."""
    if oracle_distinct_j(e1, e2):
        return Classification("distinct-j")
    if e1.A.is_zero():
        deltas = (e2.B / e1.B).cube_roots()
    elif e1.B.is_zero():
        try:
            s = (e2.A / e1.A).sqrt()
            deltas = [s, -s]
        except NotASquare:
            deltas = []
    else:
        deltas = [(e2.B / e1.B) / (e2.A / e1.A)]
    for delta in deltas:
        try:
            return Classification("isomorphic", delta.sqrt())
        except NotASquare:
            continue
    if deltas:
        return Classification("quadratic-twist", deltas[0])
    return Classification("same-j-only")


def oracle_classify_pair(e1, e2):
    if e1.d != e2.d:
        raise ValueError("curves over different fields")
    if j_invariant(e1) != j_invariant(e2):
        return Classification("distinct-j")
    if not e1.A.is_zero() and not e1.B.is_zero():
        ra = e2.A / e1.A
        rb = e2.B / e1.B
        u2 = rb / ra
        if u2 * u2 == ra and u2**3 == rb:
            try:
                return Classification("isomorphic", u2.sqrt())
            except NotASquare:
                return Classification("quadratic-twist", u2)
        return Classification("same-j-only")
    if e1.A.is_zero():
        rb = e2.B / e1.B
        for u in oracle_sixth_roots(rb):
            if u**6 == rb:
                return Classification("isomorphic", u)
        for delta in oracle_cube_roots(rb):
            return Classification("quadratic-twist", delta)
        return Classification("same-j-only")
    ra = e2.A / e1.A
    try:
        s = ra.sqrt()
    except NotASquare:
        return Classification("same-j-only")
    for candidate in (s, -s):
        try:
            return Classification("isomorphic", candidate.sqrt())
        except NotASquare:
            continue
    return Classification("quadratic-twist", s)


# ---------------------------------------------------------------------------
# Reference Hessian: the determinant expanded with dict polynomials of
# Fractions keyed by exponent triples.
# ---------------------------------------------------------------------------


def _poly_scale(poly, factor):
    return {m: c * factor for m, c in poly.items() if c * factor != 0}


def _poly_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        out[m] = out.get(m, Fraction(0)) + c
        if out[m] == 0:
            del out[m]
    return out


def _poly_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
            if out[m] == 0:
                del out[m]
    return out


def _poly_diff(poly, var):
    out = {}
    for m, c in poly.items():
        if m[var] == 0:
            continue
        new = list(m)
        new[var] -= 1
        out[tuple(new)] = c * m[var]
    return out


def oracle_hessian_dict(cubic):
    """The Hessian determinant as a dict; empty when it vanishes."""
    poly = cubic.as_dict()
    second = [[_poly_diff(_poly_diff(poly, i), j) for j in range(3)] for i in range(3)]
    det = {}
    for sign, (a, b, c) in (
        (1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
        (-1, (0, 2, 1)), (-1, (1, 0, 2)), (-1, (2, 1, 0)),
    ):
        term = _poly_mul(_poly_mul(second[0][a], second[1][b]), second[2][c])
        det = _poly_add(det, _poly_scale(term, Fraction(sign)))
    return det


def oracle_hessian_permutations(cubic):
    """The earlier hessian: the second partials of L*F (L the lcm of the
    coefficient denominators) as integer linear forms, the determinant as
    the six signed permutation products, each expanded over all 27 products
    of one coefficient from each of three linear forms, divided by L^3.
    A dict, empty when the determinant vanishes."""
    coeffs = cubic.as_dict()
    scale = lcm(*(c.denominator for c in coeffs.values()))
    H = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    for mono, coeff in coeffs.items():
        n = coeff.numerator * (scale // coeff.denominator)
        for r in range(3):
            for s in range(r, 3):
                e = list(mono)
                f = e[r]
                e[r] -= 1
                f *= e[s]
                e[s] -= 1
                if f:
                    H[r][s][e.index(1)] += f * n
    for r, s in ((0, 1), (0, 2), (1, 2)):
        H[s][r] = H[r][s]
    det = {}
    for sign, (a, b, c) in (
        (1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
        (-1, (0, 2, 1)), (-1, (1, 0, 2)), (-1, (2, 1, 0)),
    ):
        u, v, w = H[0][a], H[1][b], H[2][c]
        for i, j, k in product(range(3), repeat=3):
            mono = tuple((i, j, k).count(t) for t in range(3))
            det[mono] = det.get(mono, 0) + sign * u[i] * v[j] * w[k]
    return {m: Fraction(n, scale**3) for m, n in det.items() if n}


MONOMIALS = tuple((i, j, 3 - i - j) for i in range(4) for j in range(4 - i))

cubics = st.dictionaries(
    st.sampled_from(MONOMIALS),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3)
    .filter(bool),
    min_size=1, max_size=10,
).map(Cubic.from_dict)


@st.composite
def points_on_curves(draw):
    """A point (x0, y0) over Q(sqrt -3) on y^2 = x^3 + Ax + B with
    B = y0^2 - x0^3 - A x0."""
    x0, y0, A = draw(field_elems(-3)), draw(field_elems(-3)), draw(field_elems(-3))
    try:
        curve = Curve(A, y0 * y0 - x0**3 - A * x0)
    except SingularCurve:
        assume(False)
    return Point(curve, x0, y0)


# ---------------------------------------------------------------------------
# Reference curve checks: the field-arithmetic expressions that Curve and
# Curve.contains evaluated before they cleared denominators.
# ---------------------------------------------------------------------------


def oracle_singular(A, B):
    return (4 * A**3 + 27 * B**2).is_zero()


def oracle_contains(A, B, x, y):
    return y * y == (x * x + A) * x + B


INT_CHECK_FIELDS = (-1, -3, -12, -27, -1000003)
ORACLE_FIELDS = (-1, -3, -12, -1000003)


WIDE_RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6),
                           st.integers(1, 10**6))


def wide_field_elems(d):
    """Elements of Q(sqrt d) with numerators and denominators up to 10^6."""
    return st.builds(lambda p, q: QuadNum(p, q, d), WIDE_RATIONALS,
                     WIDE_RATIONALS)


def shaped_field_elems(d):
    """Wide elements of Q(sqrt d), some of them rational or rational
    multiples of sqrt d, whose squares are rational."""
    zero = st.just(Fraction(0))
    return st.one_of(
        wide_field_elems(d),
        st.builds(lambda p, q: QuadNum(p, q, d), WIDE_RATIONALS, zero),
        st.builds(lambda p, q: QuadNum(p, q, d), zero, WIDE_RATIONALS),
    )


@st.composite
def curve_equations(draw):
    """(A, B, x, y) with y^2 = x^3 + Ax + B, or one unit off in one
    component of x or of y, or with y conjugated, which keeps the rational
    part of y^2; B = y0^2 - x0^3 - A x0 may be singular."""
    d = draw(st.sampled_from(INT_CHECK_FIELDS))
    A, x0, y0 = (draw(wide_field_elems(d)) for _ in range(3))
    B = y0 * y0 - x0**3 - A * x0
    root = QuadNum.root(d)
    unit = draw(st.sampled_from([0, 1, -1, root, -root]))
    change = draw(st.sampled_from(["x", "y", "conjugate y"]))
    if change == "x":
        x0 = x0 + unit
    elif change == "y":
        y0 = y0 + unit
    else:
        y0 = y0.conjugate()
    return A, B, x0, y0


# ---------------------------------------------------------------------------
# Frobenius traces: reduce a curve at each prime above a split p < 100 and
# count points by a quadratic-residue sum (Silverman III.4, V.1).
# ---------------------------------------------------------------------------

PRIMES = [p for p in range(5, 100) if all(p % k for k in range(2, p))]


def reduce_mod(x, p, s):
    """x modulo the prime above p where sqrt d -> s, or None when p divides
    a denominator of x."""
    den = x.p.denominator * x.q.denominator
    if den % p == 0:
        return None
    num = x.p.numerator * x.q.denominator + x.q.numerator * x.p.denominator * s
    return num * pow(den, -1, p) % p


def legendre(a, p):
    a %= p
    return 0 if a == 0 else 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def frobenius_traces(curve):
    """{(p, s): p + 1 - #E(F_p)} at the primes of good reduction above the
    split p < 100, the prime above p named by the root s of x^2 = d mod p."""
    out = {}
    for p in PRIMES:
        for s in range(1, p):
            if (s * s - curve.d) % p:
                continue
            a, b = reduce_mod(curve.A, p, s), reduce_mod(curve.B, p, s)
            if a is None or b is None or (4 * a**3 + 27 * b * b) % p == 0:
                continue
            out[p, s] = -sum(legendre(x**3 + a * x + b, p) for x in range(p))
    return out


class TestCurve:
    @pytest.mark.parametrize("d", [5, 0, -3.0])
    def test_bad_d_rejected_every_time(self, d):
        for _ in range(2):
            with pytest.raises(ValueError, match="negative integer, got %r" % d):
                Curve.of(0, 1, d)

    def test_coefficients_from_two_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            Curve(QuadNum.of(1, -3), QuadNum.of(1, -1))
        with pytest.raises(FieldMismatch):
            Curve.of(QuadNum.of(1, -1), 1, -3)

    def test_coerces_rational_coefficients(self):
        # regression: Curve(0, 1) raised AttributeError: 'int' object has
        # no attribute 'd'
        assert Curve(0, 1) == Curve.of(0, 1)
        assert Curve(QuadNum.of(1), 0) == Curve.of(1, 0)
        assert Curve(0, QuadNum.of(1, -1)) == Curve.of(0, 1, -1)
        curve = Curve(Fraction(1, 2), QuadNum(3, 0, -1))
        assert curve.d == -1
        assert curve.A == QuadNum(Fraction(1, 2), 0, -1)
        assert isinstance(curve.B, QuadNum)
        assert Curve(2, Fraction(-3, 4)).d == -3
        with pytest.raises(SingularCurve):
            Curve(-3, 2)

    @pytest.mark.parametrize("value", [0.5, True, "1/2", None])
    def test_inexact_coefficients_rejected(self, value):
        # regression: Curve(0.5, 1) stored the float as a Fraction, and
        # Point(Curve(0, 1), 0.0, True) printed (0 : 1 : 1)
        message = re.escape(repr(value))
        with pytest.raises(TypeError, match=message):
            Curve(value, 1)
        with pytest.raises(TypeError, match=message):
            Curve.of(1, value)
        with pytest.raises(TypeError, match=message):
            Point(Curve(0, 1), value, 1)
        with pytest.raises(TypeError, match=message):
            Point(Curve(0, 1), 0, value)

    def test_keeps_field_coefficients_as_given(self):
        A, B = QuadNum(2160, -2160, -3), QuadNum.of(-109296)
        curve = Curve(A, B)
        assert curve.A is A and curve.B is B

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([-3, -1000003]).flatmap(curves_and_x))
    def test_rhs_is_the_cubic(self, curve_x):
        curve, x = curve_x
        assert curve.rhs(x) == x**3 + curve.A * x + curve.B

    def test_singular_rejected(self):
        with pytest.raises(SingularCurve):
            Curve.of(0, 0)
        with pytest.raises(SingularCurve):
            Curve.of(-3, 2)  # 4*(-27) + 27*4 = 0

    def test_points_validated(self):
        with pytest.raises(PointNotOnCurve):
            BASE.point(quad(1), quad(1))
        p = BASE.point(quad(12), quad(36))
        assert not p.at_infinity


class TestIntegerChecks:
    @settings(max_examples=200, deadline=None)
    @given(curve_equations())
    def test_agree_with_the_field_arithmetic(self, equation):
        A, B, x, y = equation
        if oracle_singular(A, B):
            with pytest.raises(SingularCurve):
                Curve(A, B)
            return
        curve = Curve(A, B)
        on_curve = oracle_contains(A, B, x, y)
        assert curve.contains(x, y) is on_curve
        if on_curve:
            assert Point(curve, x, y).y == y
        else:
            with pytest.raises(PointNotOnCurve):
                Point(curve, x, y)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(INT_CHECK_FIELDS).flatmap(wide_field_elems))
    def test_planted_singular_curves(self, t):
        A, B = -3 * t * t, 2 * t**3
        assert oracle_singular(A, B)
        with pytest.raises(SingularCurve):
            Curve(A, B)
        for unit in (QuadNum.of(1, t.d), QuadNum.root(t.d)):
            if oracle_singular(A, B + unit):
                with pytest.raises(SingularCurve):
                    Curve(A, B + unit)
            else:
                assert Curve(A, B + unit).B == B + unit
        # A = r sqrt(d), B = 0: 4A^3 + 27B^2 = 4 r^3 d sqrt(d) has only a
        # sqrt(d) part
        assume(t.p != 0)
        A, B = QuadNum(0, t.p, t.d), QuadNum.of(0, t.d)
        assert not oracle_singular(A, B)
        assert Curve(A, B).A == A

    def test_construction_makes_no_field_multiplication(self, field_ops):
        A, B = QuadNum(2160, -2160, -3), QuadNum.of(-109296)
        x, y = quad(0), quad(0, 12)
        curve = Curve(A, B)
        BASE.point(x, y)
        Point(BASE, 12, 36)
        assert BASE.contains(x, y) and curve.contains(0, 0) is False
        with pytest.raises(SingularCurve):
            Curve.of(-3, 2)
        with pytest.raises(PointNotOnCurve):
            Point(curve, x, y)
        assert field_ops.calls == []

    def test_point_coerces_rational_coordinates(self):
        # regression: ints used to stay ints, and velu3 then failed on them
        p = Point(BASE, 12, Fraction(36))
        assert isinstance(p.x, QuadNum) and isinstance(p.y, QuadNum)
        assert p == BASE.point(quad(12), quad(36))
        assert velu3(BASE, Point(BASE, 12, 36)) == velu3(BASE, p)
        assert -Point(BASE, 12, 36) == BASE.point(12, -36)

    def test_rejects_coordinates_from_another_field(self):
        with pytest.raises(FieldMismatch):
            Point(BASE, QuadNum.of(12, -1), quad(36))
        with pytest.raises(FieldMismatch):
            BASE.contains(quad(12), QuadNum.of(36, -1))


class TestJInvariant:
    def test_zero_for_vanishing_a(self):
        assert j_invariant(ROW_CURVES[0]).is_zero()

    def test_table_value(self):
        assert j_invariant(ROW_CURVES[3]) == quad(-12288000)

    def test_1728_for_vanishing_b(self):
        assert j_invariant(Curve.of(1, 0)) == quad(1728)

    def test_makes_no_field_operation(self, field_ops):
        curves = ROW_CURVES + [BASE, Curve.of(1, 0), Curve(
            QuadNum(Fraction(1, 3), Fraction(2, 5)),
            QuadNum(Fraction(7, 2), Fraction(-1, 9)))]
        field_ops.calls.clear()
        js = [j_invariant(c) for c in curves]
        assert field_ops.calls == []
        assert js == [oracle_j_invariant(c) for c in curves]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ORACLE_FIELDS), st.sampled_from(FAMILIES), st.data())
    def test_matches_the_field_expression(self, d, family, data):
        curve = data.draw(family_curves(d, family, shaped_field_elems))
        j = j_invariant(curve)
        assert j == oracle_j_invariant(curve)
        if family != "generic":
            assert j == (0 if family == "j=0" else 1728)


class TestHessian:
    def test_weierstrass_cubic(self):
        cubic, _curve = fermat_cubic_weierstrass()
        expected = Cubic.from_dict({
            (1, 2, 0): Fraction(24),
            (1, 0, 2): Fraction(-31104),
        })
        assert hessian(cubic) == expected

    def test_fermat_cubic_golden(self):
        # Hess(x^3 + y^3 + z^3) = det diag(6x, 6y, 6z) = 216 xyz
        cubic = Cubic.from_dict({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        assert hessian(cubic) == Cubic.from_dict({(1, 1, 1): Fraction(216)})

    def test_monomial_golden(self):
        # frozen from the expansion of the permutation-structured matrix
        cubic = Cubic.from_dict({(1, 1, 1): 1})
        assert hessian(cubic) == Cubic.from_dict({(1, 1, 1): Fraction(2)})

    @staticmethod
    def _sympy_hessian(coeffs):
        """sympy's Hessian determinant of the cubic as an exponent dict."""
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j * z**k
                   for (i, j, k), c in coeffs.items())
        det = sympy.Poly(sympy.hessian(expr, (x, y, z)).det(), x, y, z)
        return {m: Fraction(int(c.p), int(c.q)) for m, c in det.terms() if c}

    def test_against_symbolic_oracle(self):
        samples = [
            {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): 432},
            {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1},
            {(2, 1, 0): 5, (1, 1, 1): -2, (0, 0, 3): 7},
        ]
        for coeffs in samples:
            cubic = Cubic.from_dict(coeffs)
            assert hessian(cubic).as_dict() == self._sympy_hessian(cubic.as_dict())

    @settings(max_examples=40, deadline=None)
    @given(cubics)
    def test_random_cubics_against_sympy(self, cubic):
        expected = self._sympy_hessian(cubic.as_dict())
        if not expected:
            with pytest.raises(ZeroHessian):
                hessian(cubic)
        else:
            assert hessian(cubic).as_dict() == expected

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            Cubic.from_dict({(2, 0, 0): 1})

    @pytest.mark.parametrize("mono", [(4, -1, 0), (1.5, 1.5, 0)])
    def test_exponents_must_be_nonnegative_integers(self, mono):
        with pytest.raises(ValueError, match=re.escape(repr(mono))):
            Cubic.from_dict({mono: 1, (1, 1, 1): 2})

    @pytest.mark.parametrize("coeffs", [{(3, 0, 0): 1, (0, 3, 0): 1},
                                        {(3, 0, 0): 1}])
    def test_cone_has_zero_hessian(self, coeffs):
        cubic = Cubic.from_dict(coeffs)
        with pytest.raises(ZeroHessian, match="x\\^3") as info:
            hessian(cubic)
        assert info.value.cubic == cubic

    @settings(max_examples=300, deadline=None)
    @given(cubics)
    def test_matches_dict_polynomial_oracle(self, cubic):
        expected = oracle_hessian_dict(cubic)
        if not expected:
            with pytest.raises(ZeroHessian):
                hessian(cubic)
        else:
            assert hessian(cubic) == Cubic.from_dict(expected)

    @settings(max_examples=300, deadline=None)
    @given(cubics)
    def test_matches_the_permutation_expansion(self, cubic):
        expected = oracle_hessian_permutations(cubic)
        if not expected:
            with pytest.raises(ZeroHessian):
                hessian(cubic)
            return
        out = hessian(cubic)
        assert out.as_dict() == expected
        # built unchecked, the result is the Cubic the constructor makes
        assert out == Cubic.from_dict(out.as_dict())
        assert list(out.coeffs) == sorted(out.coeffs)
        assert all(type(c) is Fraction for _, c in out.coeffs)

    def test_repeated_monomial_rejected(self):
        with pytest.raises(ValueError, match=re.escape(repr((3, 0, 0)))):
            Cubic((((3, 0, 0), 1), ((3, 0, 0), 2)))

    @pytest.mark.parametrize("mono", [[3, 0, 0], (3.0, 0, 0), (True, 2, 0),
                                      (3, 0, [0]), "300", (4, 0, -1)])
    def test_monomial_must_be_an_exponent_triple(self, mono):
        # regression: a list raised a bare "unhashable type: 'list'", and
        # (3.0, 0, 0) compared equal to (3, 0, 0) and was kept
        message = r"monomial %s is not degree 3" % re.escape(repr(mono))
        with pytest.raises(ValueError, match=message):
            Cubic(((mono, 1),))

    @pytest.mark.parametrize("value", [0.1, True, 2.0, "1", None])
    def test_coefficients_must_be_int_or_fraction(self, value):
        message = r"\(0, 3, 0\).*%s" % re.escape(repr(value))
        with pytest.raises(TypeError, match=message):
            Cubic.from_dict({(3, 0, 0): 1, (0, 3, 0): value})

    def test_int_coefficients_become_fractions(self):
        cubic = Cubic.from_dict({(3, 0, 0): 2, (1, 1, 1): Fraction(1, 2),
                                 (0, 3, 0): 0})
        assert cubic.coeffs == (((1, 1, 1), Fraction(1, 2)), ((3, 0, 0), Fraction(2)))
        assert all(type(c) is Fraction for _, c in cubic.coeffs)


def fermat_points(p):
    """The affine points of x^3 + y^3 = 1 over F_p, and the number of
    points of x^3 + y^3 = z^3 on the line z = 0 of P^2(F_p)."""
    cubes = [x**3 % p for x in range(p)]
    affine = [(x, y) for x in range(p) for y in range(p)
              if (cubes[x] + cubes[y]) % p == 1]
    at_infinity = sum(1 for t in range(p) if (cubes[t] + 1) % p == 0)
    return affine, at_infinity


class TestFermatCubicModel:
    """fermat_cubic_weierstrass's model of x^3 + y^3 = z^3, checked at
    every prime 5 <= p < 100 rather than taken as given."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_point_counts_agree(self, p):
        affine, at_infinity = fermat_points(p)
        if p % 3 == 1:
            (trace,) = {t for (q, _), t in frobenius_traces(BASE).items() if q == p}
        else:
            # supersingular: u -> u^3 is a bijection, so #E(F_p) = p + 1
            squares = [v * v % p for v in range(p)]
            assert sum(squares.count((u**3 - 432) % p) for u in range(p)) == p
            trace = 0
        assert len(affine) + at_infinity == p + 1 - trace

    @pytest.mark.parametrize("p", PRIMES)
    def test_substitution_lands_on_the_model(self, p):
        affine, _ = fermat_points(p)
        for x, y in affine:
            if (x + y) % p == 0:
                continue
            inv = pow(x + y, -1, p)
            u, v = 12 * inv % p, 36 * (x - y) * inv % p
            assert (v * v - u**3 + 432) % p == 0

    def test_base_point_is_a_flex(self):
        cubic, curve = fermat_cubic_weierstrass()
        assert curve == BASE

        def at_base_point(form):
            # (0 : 1 : 0) kills every monomial but y^3
            return form.as_dict().get((0, 3, 0), 0)

        assert at_base_point(cubic) == 0
        assert at_base_point(hessian(cubic)) == 0


def oracle_division_poly_3(curve):
    """The earlier division_poly_3, built by field multiplication."""
    A, B, d = curve.A, curve.B, curve.d
    return [-(A * A), 12 * B, 6 * A, QuadNum.of(0, d), QuadNum.of(3, d)]


def oracle_three_torsion(curve):
    """The earlier three_torsion: find_field_roots on the field polynomial
    oracle_division_poly_3, then y = sqrt(x^3 + Ax + B) at each root."""
    roots, missing_x = find_field_roots(oracle_division_poly_3(curve), curve.d)
    points, kept_roots, missing_y = [], [], 0
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


def _torsion_outcome(finder, curve):
    """repr of the result, which fixes values and order, or the type of
    the error."""
    try:
        return repr(finder(curve))
    except ArithmeticError as exc:
        return type(exc)


PSI3_FIELDS = (-1, -3, -12, -1000003)


def wide_elems(d):
    """Zero, rational, pure sqrt(d) and mixed elements, with numerators up
    to 10^6 and denominators up to 60."""
    rationals = st.fractions(max_denominator=60, min_value=Fraction(-10**6),
                             max_value=Fraction(10**6))
    return st.one_of(
        st.just(QuadNum.of(0, d)),
        st.builds(lambda p: QuadNum(p, 0, d), rationals),
        st.builds(lambda q: QuadNum(0, q, d), rationals),
        st.builds(lambda p, q: QuadNum(p, q, d), rationals, rationals))


@st.composite
def psi3_curves(draw):
    """A nonsingular curve over Q(sqrt d), d in PSI3_FIELDS: generic, with
    A = 0 or B = 0, or with B chosen so that psi_3 has the root x0."""
    d = draw(st.sampled_from(PSI3_FIELDS))
    kind = draw(st.sampled_from(("generic", "A=0", "B=0", "planted")))
    elems = wide_elems(d)
    A = QuadNum.of(0, d) if kind == "A=0" else draw(elems)
    B = QuadNum.of(0, d) if kind == "B=0" else draw(elems)
    if kind == "planted":
        x0 = draw(elems)
        assume(not x0.is_zero())
        # psi_3(x0) = 0: 12 B x0 = A^2 - 3 x0^4 - 6 A x0^2
        B = (A * A - 3 * x0**4 - 6 * A * x0 * x0) / (12 * x0)
    try:
        return Curve(A, B)
    except SingularCurve:
        assume(False)


PSI3_EXAMPLES = [
    BASE,
    *ROW_CURVES,
    Curve.of(0, 16),
    Curve.of(1, Fraction(-2, 3)),
    Curve(quad(Fraction(1, 2), Fraction(-3, 5)), quad(Fraction(7, 3), Fraction(1, 4))),
    Curve(QuadNum(Fraction(5, 6), 0, -1000003), QuadNum(0, Fraction(1, 35), -1000003)),
    Curve(QuadNum(0, 0, -12), QuadNum(Fraction(-9, 4), 1, -12)),
    Curve(QuadNum(Fraction(-2, 9), Fraction(1, 3), -1), QuadNum(0, 0, -1)),
]


class TestThreeTorsion:
    @staticmethod
    def assert_matches_the_oracles(curve):
        assert repr(division_poly_3(curve)) == repr(oracle_division_poly_3(curve))
        assert (_torsion_outcome(three_torsion, curve)
                == _torsion_outcome(oracle_three_torsion, curve))

    @pytest.mark.parametrize("curve", PSI3_EXAMPLES, ids=str)
    def test_matches_the_oracles_on_examples(self, curve):
        self.assert_matches_the_oracles(curve)

    @settings(max_examples=300, deadline=None)
    @given(psi3_curves())
    def test_matches_the_oracles(self, curve):
        self.assert_matches_the_oracles(curve)

    def test_division_poly_3_makes_no_field_operation(self, field_ops):
        for curve in PSI3_EXAMPLES:
            field_ops.calls.clear()
            division_poly_3(curve)
            assert field_ops.calls == []

    def test_division_polynomial_roots(self):
        roots, outside = find_field_roots(division_poly_3(BASE))
        z = zeta3()
        assert outside == 0
        assert set(roots) == {quad(0), quad(12), 12 * z, 12 * z * z}

    def test_full_point_list(self):
        torsion = three_torsion(BASE)
        expected = set()
        for x in (quad(0),):
            expected.update({(x, quad(0, 12)), (x, quad(0, -12))})
        z = zeta3()
        for x in (quad(12), 12 * z, 12 * z * z):
            expected.update({(x, quad(36)), (x, quad(-36))})
        assert {(p.x, p.y) for p in torsion.points} == expected
        assert torsion.missing_y == 0 and torsion.missing_x == 0
        assert torsion.count_with_identity() == 9

    def test_partial_rationality_reported(self):
        # y^2 = x^3 + 16: 3-division poly 3x^4 + 192x = 3x(x^3 + 64);
        # x = 0 gives y = +-4, x = -4 gives y^2 = -48 = (4 sqrt -3)^2,
        # x = -4*zeta3^(1,2) give y^2 = -48 as well
        torsion = three_torsion(Curve.of(0, 16))
        assert torsion.count_with_identity() == 9
        torsion2 = three_torsion(Curve.of(0, 2))
        # x^3 = -8: roots -2, -2*zeta3^i all in field, but y^2 = x^3 + 2 = -6
        # is never a square in Q(sqrt -3)
        assert torsion2.points == ()
        assert torsion2.missing_y == 4

    def test_constant_term_with_many_prime_factors(self):
        # psi_3 = 3x(x^3 - 4N) with N = 420^2 * 3 * 11*13*17*19: 4N is not
        # a cube, and at x = 0, y^2 = -N = -3 * 46189 * 420^2 has no root
        # in Q(sqrt -3)
        n = 2**4 * 3**3 * 5**2 * 7**2 * 11 * 13 * 17 * 19
        torsion = three_torsion(Curve.of(0, -n))
        assert torsion.points == () and torsion.x_roots == ()
        assert torsion.missing_y == 1 and torsion.missing_x == 3
        # with B = M^2 the x = 0 root carries the points (0, +-M)
        m = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
        torsion = three_torsion(Curve.of(0, m * m))
        assert {(p.x, p.y) for p in torsion.points} == {(quad(0), quad(m)),
                                                      (quad(0), quad(-m))}
        assert torsion.missing_y == 0 and torsion.missing_x == 3

    @pytest.mark.parametrize("d", (-3, -1, -1000003))
    def test_rational_j_1728_curves_have_no_3_torsion_x_in_the_field(self, d):
        # y^2 = x^3 + A x has psi_3 = 3x^4 + 6A x^2 - A^2: its resolvent's
        # one rational root z = 0 asks for sqrt(16 A^2 / 3), never in an
        # imaginary quadratic field, so all four x lie outside
        for a in [k for k in range(-12, 13) if k]:
            torsion = three_torsion(Curve.of(a, 0, d))
            assert torsion.points == () and torsion.x_roots == ()
            assert torsion.missing_y == 0 and torsion.missing_x == 4

    def test_rational_curve_makes_no_field_evaluation(self, monkeypatch):
        # the rational roots of psi_3 and their multiplicity are decided in
        # integers; y^2 = x^3 + x - 2/3 has psi_3(1) = 0 planted
        calls = []
        real = quadfield.poly_eval

        def counting(coeffs, x):
            calls.append(x)
            return real(coeffs, x)

        monkeypatch.setattr(quadfield, "poly_eval", counting)
        planted = Curve.of(1, Fraction(-2, 3))
        for curve in (BASE, Curve.of(0, 16), planted):
            three_torsion(curve)
        assert quad(1) in find_field_roots(division_poly_3(planted))[0]
        assert calls == []

    def test_hessian_flexes_match_division_polynomial(self):
        # Hess = 24x(y^2 - 1296 z^2): the x = 0 branch plus the y^2 = 1296
        # branch, the latter cutting x^3 = 1728 on the curve
        branch, _ = find_field_roots(
            [quad(-1728), quad(0), quad(0), quad(1)]
        )
        flex_xs = {quad(0)} | set(branch)
        assert flex_xs == set(three_torsion(BASE).x_roots)


class TestGroupLaw:
    def torsion_points(self):
        return list(three_torsion(BASE).points) + [BASE.infinity()]

    def test_identity(self):
        p = BASE.point(quad(12), quad(36))
        assert point_add(p, BASE.infinity()) == p

    def test_three_torsion_annihilated(self):
        p = BASE.point(quad(0), quad(0, 12))
        assert scalar_mul(p, 3).at_infinity

    def test_doubling_negates_order_3_points(self):
        p = BASE.point(quad(12), quad(36))
        assert scalar_mul(p, 2) == -p

    @staticmethod
    def repeated_add(p, k):
        step = p if k >= 0 else -p
        result = p.curve.infinity()
        for _ in range(abs(k)):
            result = point_add(result, step)
        return result

    @settings(max_examples=60, deadline=None)
    @given(points_on_curves(), st.integers(-12, 12))
    def test_scalar_mul_matches_repeated_addition(self, p, k):
        assert scalar_mul(p, k) == self.repeated_add(p, k)

    def test_scalar_mul_on_torsion_matches_repeated_addition(self):
        for p in three_torsion(BASE).points:
            for k in range(-12, 13):
                assert scalar_mul(p, k) == self.repeated_add(p, k)

    @staticmethod
    def counted_scalar_mul(monkeypatch, p, k):
        """k * p, and the doublings and other additions it made, counting
        only additions with no operand at infinity."""
        counts = {"double": 0, "add": 0}

        def counting_add(a, b):
            if not (a.at_infinity or b.at_infinity):
                counts["double" if a == b else "add"] += 1
            return point_add(a, b)

        monkeypatch.setattr(elliptic, "point_add", counting_add)
        return scalar_mul(p, k), counts

    @pytest.mark.parametrize("k, message", [
        (2.0, "k must be an int, got 2.0"),
        ("3", "k must be an int, got '3'"),
        (True, "k must be an int, got True"),
    ])
    def test_scalar_mul_rejects_a_non_int(self, k, message):
        p = BASE.point(quad(12), quad(36))
        with pytest.raises(TypeError) as info:
            scalar_mul(p, k)
        assert str(info.value) == message

    def test_scalar_mul_cost(self, monkeypatch):
        p = Curve.of(-2, 5).point(1, 2)
        for m in range(1, 6):
            result, counts = self.counted_scalar_mul(monkeypatch, p, 2**m)
            assert result == self.repeated_add(p, 2**m)
            assert counts == {"double": m, "add": 0}
        result, counts = self.counted_scalar_mul(monkeypatch, p, 3)
        assert result == self.repeated_add(p, 3)
        assert counts == {"double": 1, "add": 1}

    def test_associativity_on_torsion(self):
        pts = self.torsion_points()
        assert len(pts) == 9
        for p, q, r in product(pts, repeat=3):
            assert point_add(point_add(p, q), r) == point_add(p, point_add(q, r))

    def test_torsion_closed_under_addition(self):
        pts = self.torsion_points()
        keyed = {(p.at_infinity, None if p.at_infinity else (p.x, p.y)) for p in pts}
        for p, q in product(pts, repeat=2):
            s = point_add(p, q)
            key = (s.at_infinity, None if s.at_infinity else (s.x, s.y))
            assert key in keyed


class TestVelu3:
    def test_golden_codomains(self):
        kernels = [
            BASE.point(quad(0), quad(0, 12)),
            BASE.point(quad(-6, -6), quad(36)),
            BASE.point(quad(12), quad(36)),
        ]
        expected = [ROW_CURVES[0], ROW_CURVES[1], ROW_CURVES[3]]
        for p, curve in zip(kernels, expected):
            assert velu3(BASE, p) == curve

    def test_kernel_must_have_order_3(self):
        curve = Curve.of(1, 0)
        two_torsion = curve.point(quad(0), quad(0))
        with pytest.raises(BadKernelPoint):
            velu3(curve, two_torsion)
        with pytest.raises(BadKernelPoint):
            velu3(BASE, BASE.infinity())

    def test_map_kills_exactly_the_kernel(self):
        kernel_gen = BASE.point(quad(0), quad(0, 12))
        images_at_infinity = 0
        for p in three_torsion(BASE).points:
            image = velu3_map(BASE, kernel_gen, p)
            if image.at_infinity:
                images_at_infinity += 1
                assert p.x == kernel_gen.x
        assert images_at_infinity == 2  # +-P; plus O itself maps to O
        assert velu3_map(BASE, kernel_gen, BASE.infinity()).at_infinity

    def test_images_are_3_torsion_on_codomain(self):
        kernel_gen = BASE.point(quad(0), quad(0, 12))
        q = BASE.point(quad(12), quad(36))
        image = velu3_map(BASE, kernel_gen, q)
        assert not image.at_infinity
        assert scalar_mul(image, 3).at_infinity

    def test_map_is_homomorphic_on_torsion(self):
        kernel_gen = BASE.point(quad(12), quad(36))
        pts = list(three_torsion(BASE).points) + [BASE.infinity()]
        for p, q in product(pts, repeat=2):
            lhs = velu3_map(BASE, kernel_gen, point_add(p, q))
            rhs = point_add(
                velu3_map(BASE, kernel_gen, p), velu3_map(BASE, kernel_gen, q)
            )
            assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FIELDS).flatmap(
        lambda d: st.tuples(field_elems(d), field_elems(d))))
    def test_codomain_has_the_domain_point_count(self, wy):
        # (3w^2, y0) is a flex of y^2 = x^3 + Ax + B when
        # (A + 3 x0^2)^2 = 12 x0 y0^2, e.g. A = -3 x0^2 + 6 w y0
        w, y0 = wy
        assume(not y0.is_zero())
        x0 = 3 * w * w
        A = -3 * x0 * x0 + 6 * w * y0
        try:
            curve = Curve(A, y0 * y0 - x0**3 - A * x0)
        except SingularCurve:
            assume(False)
        codomain = velu3(curve, curve.point(x0, y0))
        t1, t2 = frobenius_traces(curve), frobenius_traces(codomain)
        common = t1.keys() & t2.keys()
        assert len(common) >= 5
        assert all(t1[k] == t2[k] for k in common)

    def test_table_codomains_have_the_base_point_count(self):
        base = frobenius_traces(BASE)
        for row in derive_isogenous_curves().rows:
            traces = frobenius_traces(row.codomain)
            common = base.keys() & traces.keys()
            assert len(common) >= 10
            assert all(base[k] == traces[k] for k in common)

    def test_rejects_point_off_curve(self):
        kernel_gen = BASE.point(quad(0), quad(0, 12))
        other = Curve.of(0, 16).point(quad(0), quad(4))
        with pytest.raises(PointNotOnCurve):
            velu3_map(BASE, kernel_gen, other)

    def test_kernel_point_of_another_curve_is_rejected(self):
        # x = 0 is a root of psi_3 on both curves, so only the curve check
        # keeps y = 2 from giving y^2 = x^3 - 111 instead of x^3 - 27
        domain, other = Curve.of(0, 1), Curve.of(0, 4)
        message = (r"^the kernel generator \(0 : 2 : 1\) lies on "
                   r"y\^2 = x\^3 \+ \(4\), not on y\^2 = x\^3 \+ \(1\)$")
        with pytest.raises(BadKernelPoint, match=message):
            velu3(domain, other.point(0, 2))
        with pytest.raises(BadKernelPoint, match=message):
            velu3_map(domain, other.point(0, 2), domain.point(2, 3))

    def test_kernel_point_of_an_equal_curve_is_accepted(self):
        domain, twin = Curve.of(0, 1), Curve.of(0, 1)
        assert twin is not domain
        kernel_gen = twin.point(0, 1)
        assert velu3(domain, kernel_gen) == Curve.of(0, -27)
        assert velu3_map(domain, kernel_gen, domain.point(0, -1)).at_infinity
        image = velu3_map(domain, kernel_gen, domain.point(2, 3))
        assert image.curve == Curve.of(0, -27)

    def test_map_checks_the_kernel_once(self, monkeypatch):
        calls = []
        real = elliptic._psi3_parts

        def counting(curve):
            calls.append(curve)
            return real(curve)

        kernel_gen = BASE.point(quad(0), quad(0, 12))
        codomain = velu3(BASE, kernel_gen)
        monkeypatch.setattr(elliptic, "_psi3_parts", counting)
        image = velu3_map(BASE, kernel_gen, BASE.point(quad(12), quad(36)))
        assert image.curve == codomain
        assert calls == [BASE]

    def test_point_of_order_6_keeps_the_message(self):
        curve = Curve.of(0, 1)
        with pytest.raises(BadKernelPoint,
                           match=r"^\(2 : 3 : 1\) is not a 3-torsion point$"):
            velu3(curve, curve.point(2, 3))

    def test_fermat_kernel_makes_8_field_operations(self, field_ops):
        # the kernel check is in integers; t, u and the codomain are not
        kernel_gen = BASE.point(quad(0), quad(0, 12))
        field_ops.calls.clear()
        assert velu3(BASE, kernel_gen) == ROW_CURVES[0]
        assert len(field_ops.calls) == 8


def oracle_psi3_vanishes(curve, x):
    return poly_eval(division_poly_3(curve), x).is_zero()


def c3_codomain_torsion_xs():
    """(codomain, x) for the x-coordinates of 3-torsion on each c3 row:
    the x_roots of three_torsion where it returns, and the images of the
    base curve's 3-torsion, which the isogeny sends to 3-torsion."""
    base_torsion = three_torsion(BASE).points
    out = []
    for row in derive_isogenous_curves().rows:
        xs = set()
        try:
            xs.update(three_torsion(row.codomain).x_roots)
        except UnsupportedFactorization:
            pass
        kernel_gen = next(p for p in base_torsion
                          if velu3(BASE, p) == row.codomain)
        for q in base_torsion:
            image = velu3_map(BASE, kernel_gen, q)
            if not image.at_infinity:
                xs.add(image.x)
        out.extend((row.codomain, x) for x in sorted(xs, key=repr))
    return out


def planted_psi3_roots():
    """(curve, x0) at d = -3 and -1000003, B chosen so that psi_3(x0) = 0."""
    out = []
    for d in (-3, -1000003):
        for a, x0 in (((1, 0), (Fraction(2, 3), 0)), ((0, Fraction(5, 7)), (-4, 0)),
                      ((1, 0), (Fraction(2, 3), 1)),
                      ((Fraction(-9, 2), 3), (Fraction(1, 5), Fraction(-2, 11)))):
            A, x0 = QuadNum(*a, d), QuadNum(*x0, d)
            B = (A * A - 3 * x0**4 - 6 * A * x0 * x0) / (12 * x0)
            out.append((Curve(A, B), x0))
    return out


def psi3_roots(curve):
    """The x_roots of three_torsion, or [] when it raises."""
    try:
        return list(three_torsion(curve).x_roots)
    except UnsupportedFactorization:
        return []


@st.composite
def psi3_arguments(draw):
    """(curve, x) over Q(sqrt d), with denominators up to 10^6: a random
    curve, or one with psi_3(x0) = 0 planted, and x = x0 or x0 moved by a
    unit or by sqrt d."""
    d = draw(st.sampled_from(PSI3_FIELDS))
    A, x0 = draw(wide_field_elems(d)), draw(wide_field_elems(d))
    if draw(st.booleans()) and not x0.is_zero():
        B = (A * A - 3 * x0**4 - 6 * A * x0 * x0) / (12 * x0)
    else:
        B = draw(wide_field_elems(d))
    try:
        curve = Curve(A, B)
    except SingularCurve:
        assume(False)
    root = QuadNum.root(d)
    x = x0 + draw(st.sampled_from([0, 0, 1, -1, root, Fraction(1, 7)]))
    return curve, x


class TestPsi3Vanishes:
    """elliptic._psi3_vanishes, the kernel check of velu3, against the
    field evaluation of division_poly_3."""

    def test_true_on_the_c3_codomain_torsion(self):
        cases = c3_codomain_torsion_xs()
        assert {curve for curve, _ in cases} == set(ROW_CURVES)
        for curve, x in cases:
            assert oracle_psi3_vanishes(curve, x)
            assert elliptic._psi3_vanishes(curve, x)

    @pytest.mark.parametrize("curve, x0", planted_psi3_roots(), ids=str)
    def test_true_on_planted_roots(self, curve, x0):
        for x in [x0, *psi3_roots(curve)]:
            assert oracle_psi3_vanishes(curve, x)
            assert elliptic._psi3_vanishes(curve, x)

    @pytest.mark.parametrize("curve, roots", [
        *((c, [x]) for c, x in c3_codomain_torsion_xs()),
        *((c, [x0, *psi3_roots(c)]) for c, x0 in planted_psi3_roots()),
    ], ids=lambda v: ", ".join(map(str, v)) if isinstance(v, list) else str(v))
    def test_false_on_near_misses(self, curve, roots):
        root = QuadNum.root(curve.d)
        for x in roots:
            for miss in (x + Fraction(1, 7), x + root / 3, x - Fraction(1, 10**6)):
                assert not oracle_psi3_vanishes(curve, miss)
                assert not elliptic._psi3_vanishes(curve, miss)

    @settings(max_examples=300, deadline=None)
    @given(psi3_arguments())
    def test_matches_the_field_evaluation(self, curve_x):
        curve, x = curve_x
        assert elliptic._psi3_vanishes(curve, x) == oracle_psi3_vanishes(curve, x)


class TestClassification:
    def test_rows_2_and_4_isomorphic_over_the_field(self):
        result = classify_pair(ROW_CURVES[1], ROW_CURVES[3])
        assert result.kind == "isomorphic"
        u = result.scale
        assert u**4 * ROW_CURVES[1].A == ROW_CURVES[3].A
        assert u**6 * ROW_CURVES[1].B == ROW_CURVES[3].B

    def test_self_isomorphic(self):
        result = classify_pair(ROW_CURVES[3], ROW_CURVES[3])
        assert result.kind == "isomorphic"
        assert result.scale == quad(1)

    def test_distinct_j(self):
        assert classify_pair(ROW_CURVES[0], ROW_CURVES[3]).kind == "distinct-j"

    def test_quadratic_twist_detected(self):
        twisted = Curve(quad(2) ** 2 * ROW_CURVES[3].A, quad(2) ** 3 * ROW_CURVES[3].B)
        result = classify_pair(ROW_CURVES[3], twisted)
        assert result.kind == "quadratic-twist"
        d = result.scale
        assert d * d * ROW_CURVES[3].A == twisted.A
        assert d**3 * ROW_CURVES[3].B == twisted.B

    def test_twist_by_nonsquare_j_zero(self):
        twisted = Curve(quad(0), quad(2) ** 3 * BASE.B)
        result = classify_pair(BASE, twisted)
        assert result.kind == "quadratic-twist"

    def test_isomorphism_preserves_j(self):
        for e1, e2 in product(ROW_CURVES, repeat=2):
            if classify_pair(e1, e2).kind == "isomorphic":
                assert j_invariant(e1) == j_invariant(e2)

    @staticmethod
    def check_against_oracle(e1, e2):
        result = classify_pair(e1, e2)
        assert (result.kind == "distinct-j") is oracle_distinct_j(e1, e2)
        try:
            expected = oracle_classify_pair(e1, e2)
        except UnsupportedFactorization:
            # the oracle cannot take irrational cube roots; check the
            # verdict's scale by its defining equations instead
            scale = result.scale
            if result.kind == "isomorphic":
                assert scale**4 * e1.A == e2.A and scale**6 * e1.B == e2.B
            elif result.kind == "quadratic-twist":
                assert scale**2 * e1.A == e2.A and scale**3 * e1.B == e2.B
                with pytest.raises(NotASquare):
                    scale.sqrt()
            else:
                assert result.kind == "same-j-only"
            return
        assert result == expected

    @settings(max_examples=150, deadline=None)
    @given(related_pairs())
    def test_matches_oracle(self, pair):
        self.check_against_oracle(*pair)

    @settings(max_examples=300, deadline=None)
    @given(related_pairs(INT_CHECK_FIELDS, shaped_field_elems, near_miss=True))
    def test_wide_and_near_miss_pairs_match_oracle(self, pair):
        self.check_against_oracle(*pair)

    @settings(max_examples=300, deadline=None)
    @given(related_pairs(ORACLE_FIELDS, shaped_field_elems))
    def test_scale_matches_the_field_ratios(self, pair):
        assert classify_pair(*pair) == oracle_field_classify_pair(*pair)

    @pytest.mark.parametrize("d", INT_CHECK_FIELDS)
    def test_near_misses_in_one_component(self, d):
        # A1^3 B2^2 - A2^3 B1^2 is nonzero in only one of its two parts
        one, root, zero = QuadNum.of(1, d), QuadNum.root(d), QuadNum.of(0, d)
        half = QuadNum.of(Fraction(1, 2), d)
        pairs = [
            (Curve(zero, one), Curve(one, one)),          # rational part
            (Curve(zero, one), Curve(root, one)),         # sqrt d part
            (Curve(zero, root), Curve(-root, root)),      # sqrt d part
            (Curve(one, zero), Curve(one, root)),         # rational part
            (Curve(root, zero), Curve(root, one)),        # sqrt d part
            (Curve(half, zero), Curve(half, half)),       # rational part
        ]
        for e1, e2 in pairs:
            assert oracle_distinct_j(e1, e2)
            assert classify_pair(e1, e2) == Classification("distinct-j")
            assert classify_pair(e2, e1) == Classification("distinct-j")

    def test_same_j_with_coefficient_denominators(self):
        # A2 = delta^2 A1, B2 = delta^3 B1: the denominators of A and B
        # enter the test cubed and squared
        e1 = Curve(QuadNum(Fraction(1, 3), Fraction(2, 5)), QuadNum.of(Fraction(7, 2)))
        for delta in (quad(Fraction(1, 2)), quad(Fraction(2, 3), Fraction(1, 7))):
            e2 = Curve(delta**2 * e1.A, delta**3 * e1.B)
            result = classify_pair(e1, e2)
            assert result.kind in ("isomorphic", "quadratic-twist")
            assert classify_pair(e2, e1).kind == result.kind

    def test_distinct_j_makes_no_field_operation(self, field_ops):
        wide = Curve(QuadNum(Fraction(-7, 10**6), Fraction(3, 999983)),
                     QuadNum(Fraction(5, 12), Fraction(-1, 9)))
        for e1, e2 in [(ROW_CURVES[0], ROW_CURVES[3]), (BASE, ROW_CURVES[1]),
                       (ROW_CURVES[1], wide), (wide, BASE)]:
            assert classify_pair(e1, e2) == Classification("distinct-j")
        assert field_ops.calls == []

    def test_same_j_works_in_the_field_only_for_roots(self, field_ops):
        # the generic, j = 0 and j = 1728 paths, to each verdict they reach
        u, nonsquare = quad(Fraction(2, 3), 1), quad(2, 1)
        cases = [
            (ROW_CURVES[1], ROW_CURVES[3], "isomorphic"),
            (ROW_CURVES[3], Curve(4 * ROW_CURVES[3].A, 8 * ROW_CURVES[3].B),
             "quadratic-twist"),
            (BASE, ROW_CURVES[0], "isomorphic"),
            (Curve.of(0, 1), Curve(quad(0), u**6), "isomorphic"),
            (Curve.of(0, 1), Curve(quad(0), nonsquare**3), "quadratic-twist"),
            (Curve.of(0, 1), Curve(quad(0), quad(1, 1)), "same-j-only"),
            (Curve.of(Fraction(1, 5), 0), Curve(u**4 / 5, quad(0)), "isomorphic"),
            (Curve.of(1, 0), Curve.of(4, 0), "quadratic-twist"),
            (Curve.of(1, 0), Curve.of(2, 0), "same-j-only"),
        ]
        field_ops.calls.clear()
        field_ops.exempt("cube_roots")
        assert [classify_pair(e1, e2).kind for e1, e2, _ in cases] == [
            kind for _, _, kind in cases]
        assert field_ops.calls == []

    # j = 0 pairs whose B-ratio is irrational, which the oracle cannot split
    def test_j_zero_irrational_ratio_isomorphic(self):
        u = quad(2, 1)
        e2 = Curve(quad(0), u**6)
        result = classify_pair(Curve.of(0, 1), e2)
        assert result.kind == "isomorphic"
        assert result.scale**6 == e2.B

    def test_j_zero_irrational_ratio_twist(self):
        delta = quad(2, 1)  # norm 7: not a square
        e2 = Curve(quad(0), delta**3)
        result = classify_pair(Curve.of(0, 1), e2)
        assert result.kind == "quadratic-twist"
        assert result.scale**3 == e2.B

    def test_j_zero_irrational_ratio_same_j_only(self):
        e2 = Curve(QuadNum(0, 0), QuadNum(1, 1))  # norm 4: not a cube
        assert classify_pair(Curve.of(0, 1), e2) == Classification("same-j-only")

    def test_curves_over_different_generators(self):
        with pytest.raises(FieldMismatch) as info:
            classify_pair(BASE, Curve.of(0, -432, -12))
        assert (info.value.d, info.value.other_d) == (-3, -12)

    @settings(max_examples=40, deadline=None)
    @given(related_pairs())
    def test_verdict_agrees_with_frobenius_traces(self, pair):
        e1, e2 = pair
        result = classify_pair(e1, e2)
        assume(result.kind in ("isomorphic", "quadratic-twist"))
        t1, t2 = frobenius_traces(e1), frobenius_traces(e2)
        compared = 0
        for (p, s), trace in t1.items():
            scale = reduce_mod(result.scale, p, s)
            if (p, s) not in t2 or not scale:
                continue
            sign = 1 if result.kind == "isomorphic" else legendre(scale, p)
            assert t2[p, s] == sign * trace
            compared += 1
        assert compared >= 5


class TestAut0Order:
    def test_values(self):
        assert aut0_order(ROW_CURVES[0]) == 6
        assert aut0_order(ROW_CURVES[3]) == 2
        assert aut0_order(Curve.of(1, 0)) == 4

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(FIELDS), st.sampled_from(FAMILIES), st.data())
    def test_read_off_j(self, d, family, data):
        curve = data.draw(family_curves(d, family))
        j = j_invariant(curve)
        expected = 6 if j.is_zero() else 4 if j == 1728 else 2
        assert aut0_order(curve) == expected


class TestDerivation:
    def test_table(self):
        report = derive_isogenous_curves()
        assert report.base_curve == BASE
        assert [r.codomain for r in report.rows] == ROW_CURVES
        assert [r.j for r in report.rows] == [
            quad(0), quad(-12288000), quad(-12288000), quad(-12288000)]

    def test_selected_curve(self):
        report = derive_isogenous_curves()
        assert report.selected == Curve.of(0, 11664)
        assert 11664 == 2**4 * 3**6
        assert [r.aut0 for r in report.rows].count(6) == 1

    def test_last_three_rows_mutually_isomorphic(self):
        report = derive_isogenous_curves()
        kinds = dict(report.pair_classifications)
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert kinds[pair].kind == "isomorphic"
        for pair in ((0, 1), (0, 2), (0, 3)):
            assert kinds[pair].kind == "distinct-j"

    def test_json_shape(self):
        payload = derive_isogenous_curves().to_json_dict()
        assert len(payload["rows"]) == 4
        assert payload["selected"]["A"]["p_num"] == 0
        assert payload["selected"]["B"]["p_num"] == 11664

    def test_text_table_mentions_every_j(self):
        text = derive_isogenous_curves().to_text()
        assert "11664" in text and "-12288000" in text

    # sqrt(-3 m^2) = m sqrt(-3): each entry keeps its rational part and
    # divides its sqrt(d) part by m; the last m is a 20-digit prime
    @pytest.mark.parametrize("m", (2, 3, 20000000000000000011),
                             ids=("d=-12", "d=-27", "40-digit-d"))
    def test_table_rewritten_in_sqrt_d(self, m):
        def rewritten(x):
            return QuadNum(x.p, x.q / m, -3 * m * m)

        expected, report = derive_isogenous_curves(), derive_isogenous_curves(-3 * m * m)
        assert len(report.rows) == 4
        for row, want in zip(report.rows, expected.rows):
            assert row.kernel_x == rewritten(want.kernel_x)
            assert row.kernel_y == rewritten(want.kernel_y)
            assert row.codomain.A == rewritten(want.codomain.A)
            assert row.codomain.B == rewritten(want.codomain.B)
            assert row.j == rewritten(want.j)
            assert row.aut0 == want.aut0
        assert len(report.pair_classifications) == 6
        for (pair, got), (want_pair, want) in zip(report.pair_classifications,
                                                  expected.pair_classifications):
            assert pair == want_pair and got.kind == want.kind
            assert got.scale == (None if want.scale is None
                                 else rewritten(want.scale))
        assert report.selected == Curve.of(0, 11664, -3 * m * m)

    @pytest.mark.parametrize("d", (-1, -7))
    def test_no_j_zero_row_outside_q_sqrt_minus_3(self, d):
        with pytest.raises(NoUniqueJZeroCodomain) as info:
            derive_isogenous_curves(d)
        assert isinstance(info.value, ArithmeticError)
        assert (info.value.d, info.value.j_zero_rows) == (d, 0)


class TestCubeRootsAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FIELDS).flatmap(
        lambda d: st.tuples(field_elems(d), field_elems(d), st.booleans())))
    def test_same_roots_where_the_oracle_answers(self, drawn):
        c, other, planted = drawn
        value = c**3 if planted else other
        assume(not value.is_zero())
        try:
            expected = oracle_cube_roots(value)
        except UnsupportedFactorization:
            assert all(r**3 == value for r in value.cube_roots())
            return
        assert value.cube_roots() == expected
