"""RationalPoly against a Fraction-only reference: same terms, same insertion order.

The reference keeps every coefficient a Fraction and runs the textbook
term-by-term algorithms on plain dicts: a sum adds the right terms into a
copy of the left, dropping a term whose coefficient cancels; a power is
1 * f * ... * f; a substitution adds, term by term, the term with the
variable removed times the power; a division subtracts quotient term
times divisor from the remainder.  The term order of a polynomial feeds
the certify module's compiled float sums, so it is compared too.
"""

from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicmaps.ratpoly import VARS, RationalPoly, univariate_gcd

ZERO = (0, 0, 0, 0, 0)


def ref_add(f, g):
    terms = dict(f)
    for e, c in g.items():
        s = terms.get(e, Fraction(0)) + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return terms


def ref_mul(f, g):
    terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            terms = ref_add(terms, {tuple(map(add, e1, e2)): c1 * c2})
    return terms


def ref_pow(f, n):
    out = {ZERO: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, f)
    return out


def ref_substitute(f, i, g):
    out = {}
    for e, c in f.items():
        rest = e[:i] + (0,) + e[i + 1:]
        out = ref_add(out, ref_mul({rest: c}, ref_pow(g, e[i])))
    return out


def rank(e):
    return (sum(e), e)


def ref_divide(f, g):
    lead = max(g, key=rank)
    rem, quo = dict(f), {}
    while rem:
        e = max(rem, key=rank)
        diff = tuple(map(sub, e, lead))
        if min(diff) < 0:
            raise ValueError("division is not exact")
        t = {diff: rem[e] / g[lead]}
        quo = ref_add(quo, t)
        rem = ref_add(rem, {k: -c for k, c in ref_mul(t, g).items()})
    return quo


def ref_gcd(f, g, i):
    def coeff_list(p):
        deg = max((e[i] for e in p), default=0)
        out = [Fraction(0)] * (deg + 1)
        for e, c in p.items():
            out[e[i]] = c
        while out and out[-1] == 0:
            out.pop()
        return out

    a, b = coeff_list(f), coeff_list(g)
    while b:
        b = [c / b[-1] for c in b]
        while len(a) >= len(b):
            f_ = a[-1]
            for k in range(len(b)):
                a[len(a) - len(b) + k] -= f_ * b[k]
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return {ZERO[:i] + (d,) + ZERO[i + 1:]: c / a[-1] for d, c in enumerate(a) if c}


def assert_same(poly, ref):
    """Equal terms in equal order, each coefficient an int exactly when it is integral."""
    assert list(poly.terms.items()) == list(ref.items())
    for c in poly.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
exponents = st.tuples(*[st.integers(0, 2)] * 5)
X, Y, XY = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0)
# (1 - x + y)(xy + y + x): the xy term cancels at x*y and comes back last, at y*x
CANCEL_THEN_RETURN = ({ZERO: 1, X: -1, Y: 1}, {XY: 1, Y: 1, X: 1})
term_dicts = st.dictionaries(exponents, coefficients, max_size=5)
names = st.sampled_from(VARS)


def both(terms):
    return RationalPoly(terms), {e: Fraction(c) for e, c in terms.items() if c}


class TestAgainstFractionReference:
    @settings(max_examples=200, deadline=None)
    @given(term_dicts, term_dicts)
    @example(*CANCEL_THEN_RETURN)
    def test_add_sub_and_mul(self, f_terms, g_terms):
        (f, rf), (g, rg) = both(f_terms), both(g_terms)
        assert_same(f, rf)
        assert_same(f + g, ref_add(rf, rg))
        assert_same(f - g, ref_add(rf, {e: -c for e, c in rg.items()}))
        assert_same(f * g, ref_mul(rf, rg))

    @settings(max_examples=100, deadline=None)
    @given(term_dicts, st.integers(0, 3))
    def test_pow(self, f_terms, n):
        f, rf = both(f_terms)
        assert_same(f**n, ref_pow(rf, n))

    @settings(max_examples=200, deadline=None)
    @given(term_dicts, names, term_dicts)
    # -x + b + b^2 at b = xy + y + x + 1: the x term cancels at b and comes back at b^2
    @example({X: -1, (0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 2): 1}, "b", {XY: 1, Y: 1, X: 1, ZERO: 1})
    def test_substitute(self, f_terms, name, g_terms):
        (f, rf), (g, rg) = both(f_terms), both(g_terms)
        assert_same(f.substitute(name, g), ref_substitute(rf, VARS.index(name), rg))

    @settings(max_examples=200, deadline=None)
    @given(term_dicts, term_dicts.filter(lambda t: any(t.values())))
    def test_divide_exact(self, f_terms, g_terms):
        (f, rf), (g, rg) = both(f_terms), both(g_terms)
        product = ref_mul(rf, rg)
        assert_same(RationalPoly(product).divide_exact(g), ref_divide(product, rg))
        try:
            want = ref_divide(rf, rg)
        except ValueError:
            with pytest.raises(ValueError, match="not exact"):
                f.divide_exact(g)
        else:
            assert_same(f.divide_exact(g), want)

    @settings(max_examples=200, deadline=None)
    @given(names, st.lists(coefficients, max_size=4), st.lists(coefficients, max_size=4),
           st.lists(coefficients, max_size=3))
    def test_univariate_gcd(self, name, f_coeffs, g_coeffs, common):
        i = VARS.index(name)

        def univariate(coeffs):
            return {ZERO[:i] + (d,) + ZERO[i + 1:]: c for d, c in enumerate(coeffs)}

        (f, rf), (g, rg), (h, rh) = (both(univariate(c)) for c in (f_coeffs, g_coeffs, common))
        assert_same(univariate_gcd(f, g, name), ref_gcd(rf, rg, i))
        assert_same(univariate_gcd(f * h, g * h, name), ref_gcd(ref_mul(rf, rh), ref_mul(rg, rh), i))


class TestCoefficientForms:
    def test_integral_fraction_is_stored_as_int(self):
        poly = RationalPoly({(1, 0, 0, 0, 0): Fraction(4, 2)})
        assert poly.terms == {(1, 0, 0, 0, 0): 2}
        assert type(poly.terms[1, 0, 0, 0, 0]) is int
        assert type(RationalPoly.const(Fraction(-6, 3)).terms[ZERO]) is int

    def test_half_x_keeps_its_fraction(self):
        x = RationalPoly.var("x")
        half = x * Fraction(1, 2)
        assert half.terms == {(1, 0, 0, 0, 0): Fraction(1, 2)}
        assert type(half.terms[1, 0, 0, 0, 0]) is Fraction
        assert type((half * 2).terms[1, 0, 0, 0, 0]) is int
        assert type((half + half).terms[1, 0, 0, 0, 0]) is int

    def test_exact_quotients_return_to_int(self):
        x, a = RationalPoly.var("x"), RationalPoly.var("a")
        quotient = (2 * x * a + 4 * x).divide_exact(2 * x)
        assert quotient == a + 2
        assert all(type(c) is int for c in quotient.terms.values())
        third = (x + 1).divide_exact(RationalPoly.const(3))
        assert third.terms == {(1, 0, 0, 0, 0): Fraction(1, 3), ZERO: Fraction(1, 3)}

    def test_equality_and_hash_across_forms(self):
        e = (0, 1, 0, 2, 0)
        as_int, as_fraction = RationalPoly({e: 2}), RationalPoly({e: Fraction(4, 2)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert RationalPoly.const(Fraction(6, 3)) == 2 == RationalPoly.const(2)
        assert RationalPoly.const(2) == Fraction(2)
        assert hash(RationalPoly.const(Fraction(6, 3))) == hash(RationalPoly.const(2))
        assert len({as_int, as_fraction, RationalPoly({e: Fraction(1, 2)})}) == 2

    def test_zero_polynomial_evaluates_to_exact_zero(self):
        value = RationalPoly.zero().evaluate({})
        assert value == 0 and type(value) is int

    def test_evaluation_at_ints_stays_int(self):
        x, y = RationalPoly.var("x"), RationalPoly.var("y")
        value = (x**2 * y - 3 * y).evaluate({"x": 2, "y": -1})
        assert value == -1 and type(value) is int


class TestMalformedExponents:
    @pytest.mark.parametrize("exp", [
        (1,), (1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, -1), (1.0, 0, 0, 0, 0),
        ("x", 0, 0, 0, 0), "xyzab", 3,
    ])
    def test_constructor_rejects(self, exp):
        with pytest.raises(ValueError, match="exponent"):
            RationalPoly({exp: 2})

    def test_zero_coefficient_does_not_hide_a_bad_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            RationalPoly({(1,): 0})

    def test_inexact_coefficient_still_a_type_error(self):
        with pytest.raises(TypeError):
            RationalPoly({ZERO: 0.5})
