import copy
import pickle
import re
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from heiscurve.quadfield import (
    FieldMismatch,
    NotASquare,
    QuadNum,
    UnsupportedFactorization,
    _cleared,
    _rational_roots,
    find_field_roots,
    poly_deflate,
    poly_eval,
    poly_normalize,
    zeta3,
)

rationals = st.fractions(
    max_denominator=12,
    min_value=Fraction(-20),
    max_value=Fraction(20),
)
field_elems = st.builds(lambda p, q: QuadNum(p, q, -3), rationals, rationals)

big_rationals = st.builds(
    lambda n, m, neg: Fraction(-n if neg else n, m),
    st.integers(1 << 29, (1 << 80) - 1),
    st.integers(1 << 29, (1 << 80) - 1),
    st.booleans(),
)


def quad(p, q=0, d=-3):
    return QuadNum(Fraction(p), Fraction(q), d)


def _mul(a, b):
    out = [QuadNum.of(0, a[0].d)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _expand(roots):
    """Coefficients of the product of (x - r) over the given roots."""
    coeffs = [quad(1)]
    for r in roots:
        coeffs = _mul(coeffs, [quad(-r), quad(1)])
    return coeffs


def _oracle_rational_sqrt(value):
    """The nonnegative rational square root of a Fraction, or None."""
    if value < 0:
        return None
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def oracle_sqrt(x):
    """The earlier QuadNum.sqrt on Fractions: u^2 is a root of
    t^2 - p t + d q^2/4, v = q/(2u), the root is checked by squaring in
    the field, and the one with positive rational part (else positive
    sqrt(d)-part) is kept.  None when no root lies in the field."""
    if x.is_zero():
        return x
    if x.q == 0:
        u = _oracle_rational_sqrt(x.p)
        if u is not None:
            return QuadNum(u, 0, x.d)
        v = _oracle_rational_sqrt(x.p / x.d)
        return None if v is None else QuadNum(0, v, x.d)
    s = _oracle_rational_sqrt(x.norm())
    if s is None:
        return None
    for t in ((x.p + s) / 2, (x.p - s) / 2):
        u = _oracle_rational_sqrt(t)
        if u is not None and u != 0:
            root = QuadNum(u, x.q / (2 * u), x.d)
            if root * root == x:
                return root if root.p > 0 or (root.p == 0 and root.q > 0) else -root
    return None


def oracle_find_field_roots(coeffs, d):
    """find_field_roots with the earlier rational-root step: every
    candidate is checked with poly_eval on the field polynomial and
    deflated while it is a root and the polynomial has degree >= 3.  What
    is left has no rational root in that range, and goes to
    find_field_roots."""
    poly = poly_normalize(coeffs, d)
    if not 2 <= len(poly) <= 5:
        return find_field_roots(coeffs, d)
    roots = []
    zero = QuadNum.of(0, d)
    while len(poly) >= 2 and poly[0].is_zero():
        roots.append(zero)
        poly = poly[1:]
    if len(poly) >= 4:
        base = [c.p for c in poly]
        if not any(base):
            base = [c.q for c in poly]
        for r in _rational_roots(_cleared(base)):
            x = QuadNum.of(r, d)
            while len(poly) >= 4 and poly_eval(poly, x).is_zero():
                roots.append(x)
                poly = poly_deflate(poly, x)
    rest, outside = find_field_roots(poly, d)
    return roots + rest, outside


def _outcome(finder, coeffs, d):
    try:
        return finder(coeffs, d)
    except UnsupportedFactorization:
        return "UnsupportedFactorization"


@st.composite
def planted_root_polys(draw):
    """(coeffs, d): rational roots of multiplicity 1-3 times a factor
    a + b sqrt(d) over K = Q(sqrt d) of degree 2 (1 after three roots).
    a and b are rational, random or split with roots from the planted pool
    now and then, so a root may be repeated in one part only.  b = 0 gives
    a rational polynomial ("rational"), a = 0 a pure sqrt(d) one ("pure");
    otherwise each planted root is a common root of both parts."""
    d = draw(st.sampled_from((-1, -2, -3, -7)))
    kind = draw(st.sampled_from(("rational", "irrational", "pure")))
    pool = draw(st.lists(rationals, min_size=1, max_size=2))
    planted = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    degree = 1 if len(planted) == 3 else 2

    def rational_factor():
        if draw(st.booleans()):
            return [draw(rationals) for _ in range(degree + 1)]
        out = [draw(rationals)]
        for _ in range(degree):
            r = draw(st.sampled_from(pool) if draw(st.booleans()) else rationals)
            out = [a - r * b for a, b in zip([0] + out, out + [0])]
        return out

    zeros = [0] * (degree + 1)
    a = zeros if kind == "pure" else rational_factor()
    b = zeros if kind == "rational" else rational_factor()
    factor = [QuadNum(p, q, d) for p, q in zip(a, b)]
    assume(not factor[-1].is_zero())
    coeffs = factor
    for r in planted:
        coeffs = _mul(coeffs, [QuadNum.of(-r, d), QuadNum.of(1, d)])
    return coeffs, d


SQRT_FIELDS = (-1, -2, -3, -12, -1000003)
wide_rationals = st.fractions(max_denominator=10**4, min_value=-10**6,
                              max_value=10**6)


@st.composite
def sqrt_inputs(draw):
    """Squares, squares times a random (mostly non-square) element,
    rationals (squares, d times squares, and any) and pure sqrt(d)
    elements, over each of SQRT_FIELDS."""
    d = draw(st.sampled_from(SQRT_FIELDS))

    def elem():
        return QuadNum(draw(wide_rationals), draw(wide_rationals), d)

    kind = draw(st.sampled_from(("square", "square-times", "rational", "pure")))
    if kind == "square":
        r = elem()
        return r * r
    if kind == "square-times":
        r = elem()
        return r * r * elem()
    if kind == "rational":
        r = draw(wide_rationals)
        return QuadNum(draw(st.sampled_from((r, r * r, -r * r, d * r * r))), 0, d)
    return QuadNum(0, draw(wide_rationals), d)


class TestConstruction:
    def test_rejects_positive_d(self):
        with pytest.raises(ValueError):
            QuadNum(Fraction(1), Fraction(0), 5)

    def test_d_names_the_generator(self):
        # Q(sqrt -12) = Q(sqrt -3), but sqrt(-12) = 2 sqrt(-3) is another
        # generator, and elements written in the two do not mix
        assert QuadNum.root(-12) ** 2 == -12
        with pytest.raises(FieldMismatch) as info:
            QuadNum(1, 1, -12) + QuadNum(1, 1, -3)
        assert (info.value.d, info.value.other_d) == (-12, -3)
        with pytest.raises(ValueError):
            zeta3(-12)

    def test_rejects_mixed_fields(self):
        with pytest.raises(ValueError):
            quad(1, d=-3) + quad(1, d=-1)

    def test_integer_coercion(self):
        assert quad(2) + 3 == quad(5)
        assert 3 * quad(2) == quad(6)
        assert 1 - quad(2) == quad(-1)

    @pytest.mark.parametrize("d", [5, 0, -3.0])
    def test_bad_d_rejected_every_time(self, d):
        for _ in range(2):
            with pytest.raises(ValueError, match="negative integer, got %r" % d):
                QuadNum(Fraction(1), Fraction(0), d)
            with pytest.raises(ValueError, match="negative integer"):
                QuadNum.of(1, d)
            with pytest.raises(ValueError, match="negative integer"):
                QuadNum.root(d)

    def test_non_int_d_rejected_after_a_valid_one(self):
        # regression: a d was checked once per process, so after any d = -3
        # element -3.0 passed as well and gave inexact float arithmetic
        x = QuadNum(1, 1, -3)
        assert x * x == QuadNum(-2, 2, -3)
        data = dict(x.to_json_dict(), d=-3.0)
        calls = [
            lambda: QuadNum(1, 1, -3.0),
            lambda: QuadNum(1, 1, Fraction(-3)),
            lambda: QuadNum(1, 1, True),
            lambda: QuadNum.of(1, -3.0),
            lambda: QuadNum.root(-3.0),
            lambda: QuadNum.from_json_dict(data),
        ]
        names_d = r"negative integer, got (-3\.0|Fraction\(-3, 1\)|True)$"
        for call in calls:
            for _ in range(2):
                with pytest.raises(ValueError, match=names_d):
                    call()

    @pytest.mark.parametrize("value", [0.1, True, False, "1/2", 2.0, None])
    def test_only_ints_and_fractions_are_exact_values(self, value):
        # regression: QuadNum(0.1, True) and QuadNum("1/2", 0) were accepted
        message = re.escape(repr(value))
        calls = [
            lambda: QuadNum(value, 0),
            lambda: QuadNum(0, value),
            lambda: QuadNum.of(value),
            lambda: QuadNum.of(value, -1),
            lambda: find_field_roots([value, 1]),
            lambda: find_field_roots([1, value]),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call()

    def test_arithmetic_still_coerces_bools(self):
        # only construction is strict: comparing with or adding a bool is
        # int arithmetic, as for Fractions
        assert QuadNum(1, 0) == True  # noqa: E712
        assert (QuadNum(0, 1) == False) is False  # noqa: E712
        assert QuadNum(1, 1) + True == QuadNum(2, 1)
        assert QuadNum(1, 0) != 0.5

    @pytest.mark.parametrize("name", ["p", "q", "d"])
    def test_immutable(self, name):
        x = quad(1, 2)
        with pytest.raises(AttributeError):
            setattr(x, name, 7)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1
        assert x == quad(1, 2)

    def test_pickle_and_copy(self):
        x = QuadNum(Fraction(1, 3), Fraction(-5, 6), -1000003)
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x and copy.copy(x) == x

    def test_rational_element_hashes_like_its_value(self):
        # regression: equal values must hash alike, or set lookups fail
        assert 3 in {QuadNum.of(3)}
        assert QuadNum.of(3) in {3}
        assert Fraction(1, 2) in {QuadNum.of(Fraction(1, 2))}
        assert hash(QuadNum.of(Fraction(-7, 2))) == hash(Fraction(-7, 2))
        assert quad(0, 1) in {quad(0, 1)}

    @settings(max_examples=50, deadline=None)
    @given(field_elems, field_elems)
    def test_equal_elements_hash_alike(self, a, b):
        c = a + b - b
        assert c == a and hash(c) == hash(a)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([-1, -3, -12, -27, -1000003]),
           st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2),
           st.lists(st.integers(1, 10**6), min_size=2, max_size=2))
    def test_integer_form(self, d, nums, dens):
        for q_den in dens:  # a shared denominator, then another
            x = QuadNum(Fraction(nums[0], dens[0]), Fraction(nums[1], q_den), d)
            a, b, m = x._ints()
            assert m > 0 and QuadNum(Fraction(a, m), Fraction(b, m), d) == x

    def test_of_rejects_another_field(self):
        x = QuadNum.of(1, -1)
        assert QuadNum.of(x, -1) is x
        with pytest.raises(FieldMismatch) as info:
            QuadNum.of(x, -3)
        assert (info.value.d, info.value.other_d) == (-3, -1)

    def test_arithmetic_rejects_another_field(self):
        with pytest.raises(FieldMismatch) as info:
            quad(1, 1) * QuadNum.of(2, -1)
        assert (info.value.d, info.value.other_d) == (-3, -1)
        with pytest.raises(FieldMismatch):
            quad(1) - QuadNum.of(1, -1)
        # equality across fields is an answer, not an error
        assert quad(1) != QuadNum.of(1, -1)

    def test_roots_not_taken_from_another_field(self):
        # regression: the coefficients used to pass through unchanged
        with pytest.raises(FieldMismatch):
            find_field_roots([QuadNum.of(1, -1)] * 2, d=-3)


class TestFieldAxioms:
    @given(field_elems, field_elems, field_elems)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(field_elems)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == quad(1)

    @given(field_elems)
    def test_norm_is_multiplicative_with_conjugate(self, a):
        assert a * a.conjugate() == QuadNum(a.norm(), Fraction(0), a.d)
        assert a.norm() >= 0  # imaginary field

    @pytest.mark.parametrize("x", [quad(2, -1), quad(Fraction(-1, 2), Fraction(1, 2)),
                                   QuadNum(Fraction(3, 7), Fraction(1, 5), -1000003)])
    def test_powers_match_repeated_multiplication(self, x):
        for k in range(-3, 9):
            base = x if k >= 0 else x.inverse()
            expected = QuadNum.of(1, x.d)
            for _ in range(abs(k)):
                expected = expected * base
            assert x**k == expected

    def test_powers_of_zero(self):
        assert quad(0) ** 0 == quad(1)
        assert quad(0) ** 5 == quad(0)
        with pytest.raises(ZeroDivisionError):
            quad(0) ** -1

    @given(field_elems, st.integers(-6, 6))
    def test_integer_powers(self, a, k):
        if a.is_zero() and k < 0:
            return
        expected = quad(1)
        base = a if k >= 0 else a.inverse()
        for _ in range(abs(k)):
            expected = expected * base
        assert a**k == expected


class TestZeta3:
    def test_cube_is_one(self):
        z = zeta3()
        assert z**3 == quad(1)
        assert z != quad(1)

    def test_minimal_polynomial(self):
        z = zeta3()
        assert z * z + z + 1 == quad(0)

    def test_requires_d_minus_3(self):
        with pytest.raises(ValueError):
            zeta3(-1)


class TestSqrt:
    def test_root_of_d(self):
        assert quad(-3).sqrt() == quad(0, 1)

    def test_negative_rational_multiple(self):
        assert quad(-432).sqrt() == quad(0, 12)

    def test_mixed_root(self):
        # sqrt of the cube root of unity is the sixth root (1 + sqrt(-3))/2
        assert zeta3().sqrt() == QuadNum(Fraction(1, 2), Fraction(1, 2), -3)

    def test_sign_convention(self):
        assert quad(4).sqrt() == quad(2)
        # (-(1 + sqrt -3))^2 = -2 + 2 sqrt -3; the root with positive
        # rational part is returned
        assert quad(-2, 2).sqrt() == quad(1, 1)
        assert quad(-3).sqrt() == quad(0, 1)

    def test_not_a_square(self):
        with pytest.raises(NotASquare):
            quad(2).sqrt()
        with pytest.raises(NotASquare):
            quad(0, 1).sqrt()  # sqrt(sqrt(-3)) needs a degree-4 extension

    @given(field_elems)
    def test_square_then_sqrt_roundtrip(self, a):
        r = (a * a).sqrt()
        assert r == a or r == -a

    def test_rational_sqrt(self):
        assert quad(Fraction(9, 4)).sqrt() == quad(Fraction(3, 2))
        with pytest.raises(NotASquare):
            quad(2).sqrt()
        with pytest.raises(NotASquare):
            quad(-1).sqrt()  # -1 = (1/3) (sqrt -3)^2 and 1/3 is no square

    @settings(max_examples=400, deadline=None)
    @given(sqrt_inputs())
    def test_matches_the_fraction_algorithm(self, x):
        expected = oracle_sqrt(x)
        if expected is None:
            with pytest.raises(NotASquare):
                x.sqrt()
        else:
            assert x.sqrt() == expected

    def test_makes_no_field_operation(self, field_ops):
        for x in (quad(Fraction(9, 4)), quad(-432), quad(-2, 2), zeta3(),
                  quad(2), quad(0, 1), quad(Fraction(1, 3), Fraction(2, 5)),
                  quad(0)):
            try:
                x.sqrt()
            except NotASquare:
                pass
        assert field_ops.calls == []

    def test_not_a_square_carries_its_value(self):
        x = quad(2, 1)
        with pytest.raises(NotASquare) as info:
            x.sqrt()
        error = info.value
        assert error.value is x
        assert str(error) == "2 + √-3 is not a square in Q(sqrt -3)"
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is NotASquare
        assert clone.value == x and str(clone) == str(error)


class TestCubeRoots:
    def test_rational_root_first(self):
        assert quad(8).cube_roots() == [quad(2), quad(-1, 1), quad(-1, -1)]
        assert quad(8, 0, -1).cube_roots() == [quad(2, 0, -1)]

    def test_zero_trace_root(self):
        # sqrt(d) has trace 0; the trace cubic then has the root t = 0,
        # which the rational-root search does not report
        assert quad(0, -1, -1).cube_roots() == [quad(0, 1, -1)]
        assert quad(0, 1) in quad(0, -3).cube_roots()

    def test_conjugate_is_not_a_root(self):
        # 1 + 3i and 1 - 3i share the trace 2 and the norm 10, but only
        # the first cubes to -26 - 18i
        assert quad(-26, -18, -1).cube_roots() == [quad(1, 3, -1)]

    def test_no_root(self):
        assert quad(2).cube_roots() == []
        assert quad(1, 1).cube_roots() == []  # norm 4 is not a cube

    def test_zero(self):
        assert quad(0).cube_roots() == [quad(0)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((-1, -3, -7, -12, -27)).flatmap(
        lambda d: st.tuples(rationals, rationals, st.just(d))))
    def test_planted_root_found(self, pqd):
        c = quad(*pqd)
        roots = (c**3).cube_roots()
        assert c in roots
        assert len(set(roots)) == len(roots) <= 3
        assert all(r**3 == c**3 for r in roots)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((-1, -3, -7, -12, -27)), rationals, rationals,
           st.sampled_from(("planted", "random", "p = 0, planted", "p = 0")))
    def test_root_count_matches_sympy(self, d, p, q, shape):
        sympy = pytest.importorskip("sympy")
        c, pure = quad(p, q, d), quad(0, q, d)
        value = {"planted": c**3, "random": c,
                 "p = 0, planted": pure**3, "p = 0": pure}[shape]
        assume(not value.is_zero())
        x = sympy.Symbol("x")
        v = (sympy.Rational(value.p.numerator, value.p.denominator)
             + sympy.Rational(value.q.numerator, value.q.denominator) * sympy.sqrt(d))
        factors = sympy.Poly(x**3 - v, x, extension=sympy.sqrt(d)).factor_list()[1]
        linear = sum(m for f, m in factors if f.degree() == 1)
        assert len(value.cube_roots()) == linear


class TestFieldOpsFixture:
    def test_counts_each_operation(self, field_ops):
        x = quad(2, 1)
        for op, name in [
            (lambda: x * 3, "__mul__"),
            (lambda: 3 * x, "__rmul__"),
            (lambda: x**2, "__pow__"),
            (lambda: x / 2, "__truediv__"),
            (lambda: 2 / x, "__rtruediv__"),
            (x.inverse, "inverse"),
        ]:
            field_ops.calls.clear()
            op()
            assert field_ops.calls[0] == name
        field_ops.calls.clear()
        x + 1, x - 1, -x, x.conjugate(), x.norm(), x == 2
        assert field_ops.calls == []

    def test_exempt_methods_are_not_counted_inside(self, field_ops):
        x = quad(2, 1)
        cube = x * x * x
        assert field_ops.calls == ["__mul__"] * 2
        field_ops.exempt("cube_roots")
        assert x in cube.cube_roots()
        assert field_ops.calls == ["__mul__"] * 2
        x * x
        assert field_ops.calls == ["__mul__"] * 3


class TestSerialization:
    @given(field_elems)
    def test_json_roundtrip(self, a):
        assert QuadNum.from_json_dict(a.to_json_dict()) == a

    def test_str_forms(self):
        assert str(quad(3)) == "3"
        assert str(quad(0, 1)) == "√-3"
        assert str(quad(2, -5)) == "2 - 5√-3"

    @pytest.mark.parametrize("x, text, rep, data", [
        (QuadNum(Fraction(-7, 2), 0, -3), "-7/2",
         "QuadNum(p=Fraction(-7, 2), q=Fraction(0, 1), d=-3)",
         {"p_num": -7, "p_den": 2, "q_num": 0, "q_den": 1, "d": -3}),
        (QuadNum(0, -1, -3), "-√-3",
         "QuadNum(p=Fraction(0, 1), q=Fraction(-1, 1), d=-3)",
         {"p_num": 0, "p_den": 1, "q_num": -1, "q_den": 1, "d": -3}),
        (QuadNum(Fraction(1, 3), Fraction(-5, 6), -1000003), "1/3 - 5/6√-1000003",
         "QuadNum(p=Fraction(1, 3), q=Fraction(-5, 6), d=-1000003)",
         {"p_num": 1, "p_den": 3, "q_num": -5, "q_den": 6, "d": -1000003}),
        (QuadNum(2, 1, -1), "2 + √-1",
         "QuadNum(p=Fraction(2, 1), q=Fraction(1, 1), d=-1)",
         {"p_num": 2, "p_den": 1, "q_num": 1, "q_den": 1, "d": -1}),
    ])
    def test_golden_forms(self, x, text, rep, data):
        assert str(x) == text
        assert repr(x) == rep
        assert x.to_json_dict() == data


class TestRootFinding:
    def test_division_polynomial_of_the_fermat_cubic(self):
        # 3x^4 - 5184x = 3x(x^3 - 1728)
        coeffs = [quad(0), quad(-5184), quad(0), quad(0), quad(3)]
        roots, outside = find_field_roots(coeffs)
        z = zeta3()
        assert outside == 0
        assert set(roots) == {quad(0), quad(12), 12 * z, 12 * z * z}

    def test_rational_cubic_without_rational_roots(self):
        # x^3 - 2 stays irreducible over the field
        roots, outside = find_field_roots([quad(-2), quad(0), quad(0), quad(1)])
        assert roots == []
        assert outside == 3

    def test_biquadratic_split(self):
        # (x^2 + 3)(x^2 - 2): one factor splits in the field, one does not
        coeffs = [quad(-6), quad(0), quad(1), quad(0), quad(1)]
        roots, outside = find_field_roots(coeffs)
        assert set(roots) == {quad(0, 1), quad(0, -1)}
        assert outside == 2

    def test_resolvent_split_with_odd_term(self):
        # (x^2 + x + 1)(x^2 + 2x + 4) = x^4 + 3x^3 + 7x^2 + 6x + 4,
        # no rational roots, all four roots in Q(sqrt -3)
        coeffs = [quad(4), quad(6), quad(7), quad(3), quad(1)]
        roots, outside = find_field_roots(coeffs)
        z = zeta3()
        assert outside == 0
        assert set(roots) == {z, z * z, 2 * z, 2 * z * z}

    def test_linear_and_quadratic(self):
        roots, outside = find_field_roots([quad(-6), quad(2)])
        assert roots == [quad(3)] and outside == 0
        roots, outside = find_field_roots([quad(3), quad(0), quad(1)])
        assert set(roots) == {quad(0, 1), quad(0, -1)} and outside == 0

    def test_irrational_coefficient_linear_root(self):
        # (x - sqrt(-3)) * (x - 1) has a mixed coefficient list
        s = quad(0, 1)
        coeffs = [s, -1 - s, quad(1)]
        roots, outside = find_field_roots(coeffs)
        assert set(roots) == {s, quad(1)}

    def test_unsupported_quartic(self):
        # x^4 + x + 1: its resolvent cubic z^3 - 4z - 1 has no rational root,
        # the one quartic the root finder still gives up on
        coeffs = [quad(1), quad(1), quad(0), quad(0), quad(1)]
        with pytest.raises(UnsupportedFactorization,
                           match="^resolvent cubic has no rational root$"):
            find_field_roots(coeffs)

    def test_resolvent_root_that_is_not_a_square(self):
        # 2x^4 + 4x + 1: the resolvent z^3 - 2z - 4 has the one rational root
        # z = 2, not a square in Q(sqrt -3), so no root lies in the field
        assert find_field_roots([1, 4, 0, 0, 2]) == ([], 4)

    def test_biquadratic_split_by_a_nonzero_resolvent_root(self):
        # T^2 + 1 does not split over Q(sqrt -2), but z = -2 does:
        # x^4 + 1 = (x^2 + sqrt(-2) x - 1)(x^2 - sqrt(-2) x - 1), no root inside
        assert find_field_roots([1, 0, 0, 0, 1], -2) == ([], 4)
        # T^2 + 4 does not split over Q(sqrt -3), but z = 4 does:
        # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2), roots +-1 +- i
        assert find_field_roots([4, 0, 0, 0, 1]) == ([], 4)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((-3, -1, -2, -7)), st.one_of(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
            lambda bc: [bc[1], 0, bc[0], 0, 1]),
        st.lists(st.integers(-5, 5), min_size=4, max_size=4).map(
            lambda c: [v.p for v in _mul([quad(c[0]), quad(c[1]), quad(1)],
                                         [quad(c[2]), quad(c[3]), quad(1)])])))
    def test_rational_quartic_matches_sympy(self, d, coeffs):
        # x^4 + b x^2 + c, or a product of two x^2 + b x + c: every root in
        # the field is found, and the rest are counted outside
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed([Fraction(c) for c in coeffs])],
                          x, extension=sympy.sqrt(d))
        expected = Counter()
        for factor, multiplicity in poly.factor_list()[1]:
            if factor.degree() == 1:
                a, b = factor.all_coeffs()
                re, im = sympy.expand(-b / a).as_real_imag()
                q = sympy.nsimplify(im / sympy.sqrt(-d))
                expected[QuadNum(Fraction(int(re.p), int(re.q)),
                                 Fraction(int(q.p), int(q.q)), d)] += multiplicity
        roots, outside = find_field_roots(coeffs, d)
        assert Counter(roots) == expected
        assert outside == 4 - len(roots)

    def test_degree_bound(self):
        with pytest.raises(UnsupportedFactorization):
            find_field_roots([quad(1)] * 6)

    def test_deflate_checks_root(self):
        with pytest.raises(ValueError):
            poly_deflate([quad(1), quad(1)], quad(5))

    def test_poly_eval_short_lists(self):
        x = quad(2, 1)
        assert poly_eval([], x) == quad(0)
        assert isinstance(poly_eval([], x), QuadNum)
        assert poly_eval([quad(5, -1)], x) == quad(5, -1)
        assert poly_eval([7], x) == quad(7) and isinstance(poly_eval([7], x), QuadNum)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(field_elems, max_size=6), field_elems)
    def test_poly_eval_matches_naive_sum(self, coeffs, x):
        expected = quad(0)
        for i, c in enumerate(coeffs):
            expected = expected + c * x**i
        assert poly_eval(coeffs, x) == expected

    @given(field_elems, field_elems)
    def test_eval_after_deflate(self, r1, r2):
        # (x - r1)(x - r2) expanded, deflated by r1, evaluates to x - r2
        coeffs = [r1 * r2, -(r1 + r2), quad(1)]
        reduced = poly_deflate(coeffs, r1)
        assert poly_eval(reduced, r2) == quad(0)

    def test_rational_root_behind_an_irrational_leading_coefficient(self):
        # sqrt(-3) x^3 + (1 - sqrt(-3)) x^2 + (4 + sqrt(-3)) x - 5 - sqrt(-3):
        # the rational part x^2 + 4x - 5 has lower degree than the
        # polynomial, and x = 1 is a common root of both parts
        s = quad(0, 1)
        coeffs = [-5 - s, 4 + s, 1 - s, s]
        roots, outside = find_field_roots(coeffs)
        assert quad(1) in roots
        assert len(roots) + outside == 3
        for r in roots:
            assert poly_eval(coeffs, r).is_zero()

    def test_repeated_rational_roots(self):
        # (x - 2)^3 (x + 1/3) has a repeated root, so its squarefree part
        # is taken before any prime is chosen
        coeffs = _expand([Fraction(2)] * 3 + [Fraction(-1, 3)])
        roots, outside = find_field_roots(coeffs)
        assert Counter(roots) == Counter([quad(2)] * 3 + [quad(Fraction(-1, 3))])
        assert outside == 0
        assert _rational_roots(_cleared([c.p for c in coeffs])) == [
            Fraction(-1, 3), Fraction(2)]

    def test_rational_roots_ordered_by_height(self):
        # the resolvent-cubic step uses the first root, so the order is fixed:
        # |numerator|, then denominator, positive before negative
        roots = [Fraction(-3, 2), Fraction(1, 2), Fraction(-1), Fraction(3, 2)]
        coeffs = [c.p for c in _expand(roots)]
        assert _rational_roots(_cleared(coeffs)) == [
            Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2)]

    def test_no_rational_roots_from_a_root_mod_p(self):
        # x^2 - 7 and x^2 + 2 have simple roots mod 3 whose 3-adic lifts are
        # irrational, so every candidate fails the exact check
        assert _rational_roots([-7, 0, 1]) == []
        assert _rational_roots([2, 0, 1]) == []
        assert _rational_roots([1, 0, 1]) == []
        assert _rational_roots([0, 0, 5]) == []
        assert _rational_roots([7]) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_planted_rational_roots_come_back(self, data):
        pool = data.draw(st.lists(big_rationals, min_size=1, max_size=3)) + [Fraction(0)]
        extra = data.draw(st.sampled_from(["none", "quadratic", "irrational"]))
        room = {"none": 4, "quadratic": 2, "irrational": 3}[extra]
        planted = data.draw(st.lists(st.sampled_from(pool),
                                     min_size=1 if extra == "none" else 0,
                                     max_size=room))
        coeffs = _expand(planted)
        irrational_roots = []
        if extra == "quadratic":
            # (x - s)^2 - 2 t^2 has roots s +- t sqrt 2, outside Q(sqrt -3)
            s, t = data.draw(big_rationals), data.draw(big_rationals)
            coeffs = _mul(coeffs, [quad(s * s - 2 * t * t), quad(-2 * s), quad(1)])
        elif extra == "irrational":
            alpha = data.draw(field_elems.filter(lambda a: not a.is_rational()))
            coeffs = _mul(coeffs, [-alpha, quad(1)])
            irrational_roots.append(alpha)
        scale = data.draw(field_elems.filter(lambda a: not a.is_zero()))
        coeffs = [scale * c for c in coeffs]
        roots, outside = find_field_roots(coeffs)
        assert Counter(r for r in roots if r.is_rational()) == Counter(
            quad(r) for r in planted)
        assert [r for r in roots if not r.is_rational()] == irrational_roots
        assert outside == len(coeffs) - 1 - len(roots)

    @settings(max_examples=300, deadline=None)
    @given(planted_root_polys())
    def test_matches_the_poly_eval_deflation(self, poly_d):
        coeffs, d = poly_d
        expected = _outcome(oracle_find_field_roots, coeffs, d)
        assert _outcome(find_field_roots, coeffs, d) == expected
        if expected != "UnsupportedFactorization":
            roots = expected[0]
            assert all(poly_eval(coeffs, r).is_zero() for r in roots)

    @staticmethod
    def _parts_poly(common, p_cofactor, q_cofactor, d):
        """common * p_cofactor + (common * q_cofactor) sqrt(d), for lists of
        Fractions, low degree first."""
        def times(a, b):
            return [c.p for c in _mul([quad(c) for c in a], [quad(c) for c in b])]
        p_part, q_part = times(common, p_cofactor), times(common, q_cofactor)
        n = max(len(p_part), len(q_part))
        p_part += [Fraction(0)] * (n - len(p_part))
        q_part += [Fraction(0)] * (n - len(q_part))
        return [QuadNum(p, q, d) for p, q in zip(p_part, q_part)]

    def test_parts_with_different_denominators(self):
        # (x - 1/2)(x + 3) times x^2/3 + 1/2 in the p part and x/5 - 1/7 in
        # the q part: one lcm clears denominators 2, 3 and 5, 7 together
        common = [c.p for c in _expand([Fraction(1, 2), Fraction(-3)])]
        coeffs = self._parts_poly(
            common, [Fraction(1, 2), Fraction(0), Fraction(1, 3)],
            [Fraction(-1, 7), Fraction(1, 5)], -3)
        roots, outside = find_field_roots(coeffs)
        assert (roots, outside) == oracle_find_field_roots(coeffs, -3)
        assert roots[:2] == [quad(Fraction(1, 2)), quad(-3)]
        assert len(roots) + outside == 4

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_parts_with_different_denominators_match_the_oracle(self, data):
        d = data.draw(st.sampled_from((-1, -3, -12, -1000003)))
        planted = data.draw(st.lists(rationals, min_size=1, max_size=3))
        common = [c.p for c in _expand(planted)]

        def cofactor(dens):
            return data.draw(st.lists(
                st.builds(Fraction, st.integers(-30, 30), st.sampled_from(dens)),
                min_size=1, max_size=5 - len(planted)))
        coeffs = self._parts_poly(common, cofactor((1, 2, 3, 4, 9)),
                                  cofactor((5, 7, 11, 25)), d)
        assert (_outcome(find_field_roots, coeffs, d)
                == _outcome(oracle_find_field_roots, coeffs, d))

    def test_multiplicity_from_both_parts(self):
        # sqrt(-3) (x - 2)^3 (x - 1) + (x - 2) (x - 1)^2 (x + 5): 2 is a root of
        # both parts, simple in the rational part, so it is found once
        s = quad(0, 1)
        sqrt_part = _expand([Fraction(2)] * 3 + [Fraction(1)])
        rational_part = _expand([Fraction(2), Fraction(1), Fraction(1), Fraction(-5)])
        coeffs = [s * a + b for a, b in zip(sqrt_part, rational_part)]
        roots, outside = find_field_roots(coeffs)
        assert (roots, outside) == oracle_find_field_roots(coeffs, -3)
        assert roots.count(quad(2)) == 1 and roots.count(quad(1)) == 1

    def test_makes_no_field_evaluation(self, monkeypatch):
        from heiscurve import quadfield

        calls = []
        real = quadfield.poly_eval

        def counting(coeffs, x):
            calls.append(x)
            return real(coeffs, x)

        monkeypatch.setattr(quadfield, "poly_eval", counting)
        coeffs = _expand([Fraction(2)] * 3 + [Fraction(-1, 3)])
        # -1/3 comes first, then 2 once down to a quadratic, (x - 2)^2
        assert find_field_roots([quad(0, 5) * c for c in coeffs]) == (
            [quad(Fraction(-1, 3))] + [quad(2)] * 3, 0)
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), max_size=2),
           st.lists(rationals, min_size=5, max_size=5))
    def test_rational_roots_match_sympy(self, linear, rest):
        sympy = pytest.importorskip("sympy")
        # a random quartic, or a product with one or two linear factors
        coeffs = [quad(c) for c in rest[:5 - len(linear)]]
        if coeffs[-1].is_zero():
            coeffs[-1] = quad(1)
        for b, a in linear:
            coeffs = _mul(coeffs, [quad(b), quad(a)])
        coeffs = [c.p for c in coeffs]
        poly = sympy.Poly.from_list(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
            sympy.Symbol("x"), domain=sympy.QQ)
        expected = Counter()
        for factor, multiplicity in poly.factor_list()[1]:
            if factor.degree() == 1:
                a, b = factor.all_coeffs()
                root = -b / a
                expected[Fraction(int(root.p), int(root.q))] += multiplicity
        assert _rational_roots(_cleared(coeffs)) == sorted(
            (r for r in expected if r != 0),
            key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        try:
            roots, _ = find_field_roots([quad(c) for c in coeffs])
        except UnsupportedFactorization:
            return
        assert Counter(r.p for r in roots if r.is_rational()) == expected

