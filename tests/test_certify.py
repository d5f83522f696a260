import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmaps import certify
from cubicmaps.certify import (
    RootSolveError,
    check_line_family,
    check_point_image,
    check_special_cases,
    derive_quartic,
    evaluate_map,
    explicit_map,
    find_rational_preimage,
    numeric_preimage,
    preimage_quartic,
    projective_residual,
    reference_quartic,
    solve_roots,
    verify_case,
)
from cubicmaps.linsys import FIVE_POINT, SIX_POINT
from cubicmaps.ratpoly import RationalPoly

X = RationalPoly.var("x")
A = RationalPoly.var("a")

CASES = (FIVE_POINT, SIX_POINT)
LINE_TARGETS = {
    FIVE_POINT: ((1, 0, 0), (0, 0, 1), (1, 0, 2), (1, 0, 5.5), (3, 0, -2)),
    SIX_POINT: ((1, 0, 0), (0, 0, 1), (2.5, 0, 1), (1, 0, 1), (-4, 0, 3)),
}
SPECIAL_TARGETS = ((-1, 1, 4), (-1, 1, -1), (0, 1, 0), (2, 1, 2), (1, 1, 1))


def seeded_targets(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.uniform(-7, 7, size=(count, 4))
    return [(complex(ar, ai), 1.0, complex(br, bi)) for ar, ai, br, bi in u.tolist()]


# reference for the compiled terms: the numeric path through exact polynomial evaluation
def exact_quartic_coeffs_at(case, a, b):
    coeffs = preimage_quartic(case).univariate_coeffs("x")
    return [complex(coeffs[d].evaluate({"a": a, "b": b})) if d in coeffs else 0j for d in range(5)]


def exact_numeric_image(case, triple):
    return evaluate_map(explicit_map(case), [complex(c) for c in triple])


def exact_numeric_preimages(monkeypatch, case, targets):
    with monkeypatch.context() as patch:
        patch.setattr(certify, "_quartic_coeffs_at", exact_quartic_coeffs_at)
        patch.setattr(certify, "_numeric_image", exact_numeric_image)
        return [numeric_preimage(case, t) for t in targets]


class TestExplicitMaps:
    def test_components_are_cubic(self):
        for case in (FIVE_POINT, SIX_POINT):
            emap = explicit_map(case)
            assert len(emap.components) == 3
            assert all(c.total_degree() == 3 for c in emap.components)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            explicit_map("seven_point")

    def test_five_point_components_evaluate(self):
        emap = explicit_map(FIVE_POINT)
        assert evaluate_map(emap, (Fraction(0), Fraction(1), Fraction(-2))) == (-2, 0, 0)
        assert evaluate_map(emap, (Fraction(1), Fraction(0), Fraction(1))) == (0, 0, 1)

    def test_six_point_components_evaluate(self):
        emap = explicit_map(SIX_POINT)
        assert evaluate_map(emap, (Fraction(-2), Fraction(1), Fraction(-2))) == (-2, 0, 0)
        assert evaluate_map(emap, (Fraction(-1), Fraction(1), Fraction(-1))) == (0, 0, 1)

    def test_components_vanish_on_base_points(self):
        # the five_point map contracts the three coordinate points
        emap = explicit_map(FIVE_POINT)
        for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            img = evaluate_map(emap, tuple(Fraction(c) for c in pt))
            assert img == (0, 0, 0)


class TestPointChecks:
    def test_exact_preimages(self):
        five = explicit_map(FIVE_POINT)
        assert check_point_image(five, (0, 1, -2), (1, 0, 0))
        assert check_point_image(five, (1, 0, 1), (0, 0, 1))
        six = explicit_map(SIX_POINT)
        assert check_point_image(six, (-2, 1, -2), (1, 0, 0))
        assert check_point_image(six, (-1, 1, -1), (0, 0, 1))

    def test_wrong_target_fails(self):
        five = explicit_map(FIVE_POINT)
        assert not check_point_image(five, (0, 1, -2), (0, 1, 0))

    def test_indeterminacy_point_raises(self):
        five = explicit_map(FIVE_POINT)
        with pytest.raises(ValueError, match="indeterminacy"):
            check_point_image(five, (1, 0, 0), (1, 0, 0))

    def test_find_rational_preimage(self):
        five = explicit_map(FIVE_POINT)
        found = find_rational_preimage(five, (1, 0, 2))
        assert found is not None
        assert check_point_image(five, found, (1, 0, 2))

    def test_find_rational_preimage_can_fail(self):
        five = explicit_map(FIVE_POINT)
        # height bound 0 searches nothing
        assert find_rational_preimage(five, (1, 0, 2), height_bound=0) is None


class TestQuartics:
    def test_reference_quartics_are_pinned(self):
        B = RationalPoly.var("b")
        five = reference_quartic(FIVE_POINT)
        assert five == (X**4 + (1 - 2 * A) * X**3 + (A**2 - 3 * A + B) * X**2
                        + (2 * A**2 - A * B - 1) * X + (A + 1))
        six = reference_quartic(SIX_POINT)
        assert six == (X**4 + (2 - 2 * A) * X**3 + (A**2 - 4 * A) * X**2
                       + (2 * A**2 - A + B - 1) * X + (A**2 + A * (1 - B) - B))

    def test_five_point_preimage_quartic_equals_reference(self):
        assert preimage_quartic(FIVE_POINT) == reference_quartic(FIVE_POINT)

    def test_six_point_quartics_differ_by_nd_over_x(self):
        diff = reference_quartic(SIX_POINT) - preimage_quartic(SIX_POINT)
        assert diff == X**2 - (2 * A + 1) * X + A * (A + 1)

    def test_derivation_certificates(self):
        for case in (FIVE_POINT, SIX_POINT):
            cert, quartic = derive_quartic(case)
            assert cert.passed, cert.report()
            assert quartic == reference_quartic(case)

    def test_line_family_certificates(self):
        for case in (FIVE_POINT, SIX_POINT):
            cert = check_line_family(case)
            assert cert.passed, cert.report()

    def test_special_case_certificates(self):
        for case in (FIVE_POINT, SIX_POINT):
            cert = check_special_cases(case)
            assert cert.passed, cert.report()

    def test_verify_case_aggregates(self):
        for case in (FIVE_POINT, SIX_POINT):
            cert = verify_case(case)
            assert cert.passed, cert.report()
            assert len(cert.checks) >= 12


class TestSolveRoots:
    def test_quadratic_exact(self):
        roots = sorted(solve_roots([3, 2, 1]), key=lambda z: z.imag)
        want = [complex(-1, -np.sqrt(2)), complex(-1, np.sqrt(2))]
        assert all(abs(a - b) < 1e-10 for a, b in zip(roots, want))

    def test_quadruple_root(self):
        # x^4 has no constant, linear, quadratic or cubic term: every root is exactly 0
        assert solve_roots([0, 0, 0, 0, 1]) == [0j] * 4

    def test_product_of_roots_identity(self):
        for coeffs in ([6, -5, 1], [1, 0, 0, 1], [-2, 0, 1, 5, 3], [4, 0, 0, 0, 0, 2]):
            roots = solve_roots(coeffs)
            prod = 1.0 + 0.0j
            for z in roots:
                prod *= z
            n = len(coeffs) - 1
            want = (-1) ** n * coeffs[0] / coeffs[-1]
            assert abs(prod - want) < 1e-8

    def test_leading_zeros_stripped(self):
        roots = solve_roots([1, 1, 0, 0])
        assert len(roots) == 1
        assert abs(roots[0] + 1) < 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_roots([5])
        with pytest.raises(ValueError):
            solve_roots([0, 0])

    def test_failure_carries_partial_roots(self, monkeypatch):
        exact = np.roots([1, 1, 1, 1, 1])
        monkeypatch.setattr(np.linalg, "eigvals", lambda companion: exact + 1e-3)
        with pytest.raises(RootSolveError) as info:
            solve_roots([1, 1, 1, 1, 1])
        assert info.value.partial == [complex(z) for z in exact + 1e-3]

    def test_deterministic(self):
        assert solve_roots([1, 2, 3, 4]) == solve_roots([1, 2, 3, 4])

    # solve_roots builds np.roots' companion matrix itself; its roots must be np.roots' bits
    @staticmethod
    def np_roots(coeffs):
        return [complex(z) for z in np.roots([complex(c) for c in coeffs][::-1])]

    def test_bitwise_np_roots_on_seeded_quartics(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for re, im in rng.uniform(-9, 9, size=(2, 500, 5)).transpose(1, 0, 2):
            coeffs = [complex(r, i) for r, i in zip(re, im)]
            assert solve_roots(coeffs) == self.np_roots(coeffs)

    @pytest.mark.parametrize("zeros", [1, 2])
    def test_bitwise_np_roots_with_zero_low_order_coefficients(self, zeros):
        rng = np.random.Generator(np.random.PCG64(32 + zeros))
        for re, im in rng.uniform(-9, 9, size=(2, 200, 5 - zeros)).transpose(1, 0, 2):
            coeffs = [0j] * zeros + [complex(r, i) for r, i in zip(re, im)]
            roots = solve_roots(coeffs)
            assert roots == self.np_roots(coeffs)
            assert roots[-zeros:] == [0j] * zeros

    def test_bitwise_np_roots_on_the_six_point_quartic_at_the_target_0_1_0(self):
        # the target (0, 1, 0) gives a = b = 0, where the quartic's constant
        # and linear coefficients vanish (the constant as -0.0)
        coeffs = certify._quartic_coeffs_at(SIX_POINT, 0.0, 0.0)
        assert coeffs[:2] == [0, 0] and all(coeffs[2:])
        assert solve_roots(coeffs) == self.np_roots(coeffs)


class TestNumericPreimage:
    def test_random_targets_five(self):
        rng = np.random.Generator(np.random.PCG64(11))
        emap = explicit_map(FIVE_POINT)
        for _ in range(2000):
            a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            source, residual = numeric_preimage(FIVE_POINT, (a, 1.0, b))
            assert residual < 1e-9
            img = evaluate_map(emap, source)
            assert projective_residual(img, (a, 1.0, b)) < 1e-9

    def test_random_targets_six(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(2000):
            a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            _, residual = numeric_preimage(SIX_POINT, (a, 1.0, b))
            assert residual < 1e-9

    def test_line_targets(self):
        for case, targets in LINE_TARGETS.items():
            for target in targets:
                _, residual = numeric_preimage(case, target)
                assert residual < 1e-9, (case, target)

    def test_special_value_targets(self):
        for case in CASES:
            for target in SPECIAL_TARGETS:
                _, residual = numeric_preimage(case, target)
                assert residual < 1e-9, (case, target)

    def test_six_point_reference_quartic_roots_are_not_preimages(self):
        # the reference quartic differs from the component relation by
        # (x - a)(x - a - 1); its roots reconstruct wrong sources
        emap = explicit_map(SIX_POINT)
        a, b = 1.0, 2.0  # target [3 : 1 : 2]
        coeffs_map = reference_quartic(SIX_POINT).univariate_coeffs("x")
        coeffs = [
            complex(coeffs_map[d].evaluate({"a": a, "b": b})) if d in coeffs_map else 0j
            for d in range(5)
        ]
        residuals = []
        for x in solve_roots(coeffs):
            z = (a * x - x * x) / (1 + a - x)
            img = evaluate_map(emap, (x, 1.0, z))
            residuals.append(projective_residual(img, (3.0, 1.0, 2.0)))
        assert min(residuals) > 1e-3

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            numeric_preimage(FIVE_POINT, (0, 0, 0))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            numeric_preimage("octic", (1, 1, 1))


class TestCompiledNumericForm:
    """numeric_preimage evaluates terms compiled once per case; they must agree bit for bit."""

    @pytest.mark.parametrize("case, seed", [(FIVE_POINT, 21), (SIX_POINT, 22)])
    def test_preimages_identical_to_exact_evaluation(self, monkeypatch, case, seed):
        targets = seeded_targets(seed, 200) + list(LINE_TARGETS[case]) + list(SPECIAL_TARGETS)
        want = exact_numeric_preimages(monkeypatch, case, targets)
        got = [numeric_preimage(case, t) for t in targets]
        assert got == want
        assert all(residual < 1e-9 for _, residual in got)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(CASES),
        st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                 min_size=5, max_size=5),
    )
    def test_terms_equal_exact_evaluation(self, case, values):
        a, b, x, y, z = values
        assert certify._quartic_coeffs_at(case, a, b) == exact_quartic_coeffs_at(case, a, b)
        assert certify._numeric_image(case, (x, y, z)) == exact_numeric_image(case, (x, y, z))

    def test_exact_results_are_fresh_objects(self):
        for case in CASES:
            want = numeric_preimage(case, (1.5, 1.0, -2.25))
            quartic, kept_quartic = preimage_quartic(case), preimage_quartic(case)
            emap, kept_map = explicit_map(case), explicit_map(case)
            assert quartic.terms is not kept_quartic.terms
            assert all(c.terms is not k.terms for c, k in zip(emap.components, kept_map.components))
            quartic.terms.clear()
            for comp in emap.components:
                comp.terms.clear()
            assert preimage_quartic(case) == kept_quartic
            assert explicit_map(case).components == kept_map.components
            assert numeric_preimage(case, (1.5, 1.0, -2.25)) == want

    def test_unknown_case_adds_no_cache_entry(self):
        numeric_preimage(FIVE_POINT, (1.5, 1.0, -2.25))
        before = certify._numeric_form.cache_info().currsize
        with pytest.raises(ValueError):
            certify._quartic_coeffs_at("octic", 1j, 1j)
        assert certify._numeric_form.cache_info().currsize == before

    def test_one_root_solve_per_quartic_target(self, monkeypatch):
        calls = []
        solve = certify.solve_roots

        def counting(coeffs, *args, **kwargs):
            calls.append(len(coeffs))
            return solve(coeffs, *args, **kwargs)

        monkeypatch.setattr(certify, "solve_roots", counting)
        targets = seeded_targets(5, 10)
        for case in CASES:
            calls.clear()
            for target in targets:
                numeric_preimage(case, target)
            assert calls == [5] * len(targets)


class TestGoldenCertificates:
    """The certificate texts and numeric preimages, pinned as sha256 digests of their bytes.

    The preimage digests hold for one numpy/LAPACK build: an upgrade that
    moves an eigenvalue bit must re-pin them and say why.
    """

    REPORTS = {
        FIVE_POINT: ("88563fe5a6f51bb97db603c6a20b7aa995ff7f1c63e27527cf1805ed72250ec8", 15),
        SIX_POINT: ("7f828ccd1de97b36c856c3ed2a7ba0f0c818b3f760b5ff024d8c7964e3fd08d3", 18),
    }
    PREIMAGES = {
        FIVE_POINT: "b5150db39cafada6ddd03b9654628ddbbd3e4a2627aae9d7caf5cfd3fcb97880",
        SIX_POINT: "1e5b4401951dd6361c96a79733f7c182619a11dd12795e312e6f37e33b2cf563",
    }
    NUMERIC_FORMS = {
        FIVE_POINT: "e0023a4931d6c6eb1957626eb6f0223b2e8f936f79eb3bbf4942e92b0ab2ea9a",
        SIX_POINT: "b481efc269c37ee2988094748d4cdcf7a2b11fa3d0a23f88b6995b384d8c09cb",
    }

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("case", CASES)
    def test_report_bytes(self, case):
        cert = verify_case(case)
        assert (self.digest(cert.report()), len(cert.checks)) == self.REPORTS[case]

    @pytest.mark.parametrize("case", CASES)
    def test_numeric_preimage_bytes(self, case):
        targets = seeded_targets(40, 300) + list(LINE_TARGETS[case]) + list(SPECIAL_TARGETS)
        got = [numeric_preimage(case, t) for t in targets]
        assert self.digest(repr(got)) == self.PREIMAGES[case]

    @pytest.mark.parametrize("case", CASES)
    def test_numeric_form_bytes(self, case):
        assert self.digest(repr(certify._numeric_form(case))) == self.NUMERIC_FORMS[case]


class TestProjectiveResidual:
    def test_parallel_vectors(self):
        assert projective_residual((1, 2, 3), (2, 4, 6)) == 0.0
        assert projective_residual((1j, 2j, 3j), (1, 2, 3)) < 1e-15

    def test_independent_vectors(self):
        assert projective_residual((1, 0, 0), (0, 1, 0)) == 1.0
