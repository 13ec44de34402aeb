from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from heiscurve.elliptic import (
    BadKernelPoint,
    Cubic,
    Curve,
    NoUniqueJZeroCodomain,
    PointNotOnCurve,
    SingularCurve,
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
from heiscurve.quadfield import FieldMismatch, QuadNum, find_field_roots, zeta3


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


class TestCurve:
    @pytest.mark.parametrize("d", [5, -12])
    def test_bad_d_rejected_every_time(self, d):
        for _ in range(2):
            with pytest.raises(ValueError, match="squarefree negative"):
                Curve.of(0, 1, d)

    def test_coefficients_from_two_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            Curve(QuadNum.of(1, -3), QuadNum.of(1, -1))
        with pytest.raises(FieldMismatch):
            Curve.of(QuadNum.of(1, -1), 1, -3)

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


class TestJInvariant:
    def test_zero_for_vanishing_a(self):
        assert j_invariant(ROW_CURVES[0]).is_zero()

    def test_table_value(self):
        assert j_invariant(ROW_CURVES[3]) == quad(-12288000)

    def test_1728_for_vanishing_b(self):
        assert j_invariant(Curve.of(1, 0)) == quad(1728)


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

    def test_against_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        samples = [
            ({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): 432},
             y**2 * z - x**3 + 432 * z**3),
            ({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, x**3 + y**3 + z**3),
            ({(2, 1, 0): 5, (1, 1, 1): -2, (0, 0, 3): 7},
             5 * x**2 * y - 2 * x * y * z + 7 * z**3),
        ]
        for coeffs, expr in samples:
            mat = sympy.Matrix(
                [[sympy.diff(expr, u, v) for v in (x, y, z)] for u in (x, y, z)]
            )
            det = sympy.expand(mat.det())
            ours = sympy.expand(
                sum(
                    c * x**i * y**j * z**k
                    for (i, j, k), c in hessian(Cubic.from_dict(coeffs)).as_dict().items()
                )
            )
            assert sympy.simplify(det - ours) == 0

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            Cubic.from_dict({(2, 0, 0): 1})


class TestThreeTorsion:
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

    def test_rejects_point_off_curve(self):
        kernel_gen = BASE.point(quad(0), quad(0, 12))
        other = Curve.of(0, 16).point(quad(0), quad(4))
        with pytest.raises(PointNotOnCurve):
            velu3_map(BASE, kernel_gen, other)


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


class TestAut0Order:
    def test_values(self):
        assert aut0_order(ROW_CURVES[0]) == 6
        assert aut0_order(ROW_CURVES[3]) == 2
        assert aut0_order(Curve.of(1, 0)) == 4


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

    @pytest.mark.parametrize("d", (-1, -7))
    def test_no_j_zero_row_outside_q_sqrt_minus_3(self, d):
        with pytest.raises(NoUniqueJZeroCodomain) as info:
            derive_isogenous_curves(d)
        assert isinstance(info.value, ArithmeticError)
        assert (info.value.d, info.value.j_zero_rows) == (d, 0)
