import itertools
from collections import Counter
from functools import reduce
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicmaps import linsys
from cubicmaps.finitefield import ProjPoint, build_field, enumerate_p2
from cubicmaps.forms import (
    MONOMIALS,
    TernaryForm,
    combine,
    common_factor_all,
    evaluate,
    parse_form,
)
from cubicmaps.linsys import (
    _INTEGER_GENERATORS,
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    PointConfig,
    SystemPencils,
    _key_block,
    _monomial_coords,
    _plane_keys,
    base_locus,
    combination,
    gf_rref,
    iter_subspaces,
    iter_vectors,
    make_plane,
    pencil_subspaces,
    reduced_generator_system,
    reference_points,
    reference_system,
    same_span,
    vanishing_cubics,
)
from test_finitefield import reference_rref

CASE46 = ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))


class TestPointConfig:
    def test_delta(self):
        assert PointConfig(((1, 0, 0), (0, 1, 0))).delta == 7
        assert reference_points(FIVE_POINT).delta == 4
        assert reference_points(SIX_POINT).delta == 3

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            PointConfig(((1, 0, 0), (1, 0, 0)))

    def test_point_count_bounds(self):
        with pytest.raises(ValueError):
            PointConfig(())
        with pytest.raises(ValueError):
            PointConfig(tuple((1, i, 0) for i in range(8)))

    def test_reference_points(self):
        assert reference_points(FIVE_POINT).points == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 1),
        )
        assert reference_points(SIX_POINT).points[-1] == (3, 2, 1)


class TestVanishingCubics:
    def test_dimensions(self):
        # the dims hold over Q too: rank mod 2 <= rank over Q <= number of points
        f2 = build_field(2)
        assert vanishing_cubics(reference_points(FIVE_POINT), f2).dim == 5
        assert vanishing_cubics(reference_points(SIX_POINT), f2).dim == 4
        assert vanishing_cubics(PointConfig(((1, 2, 1),)), build_field(5)).dim == 9

    def test_basis_forms_vanish_at_the_points(self):
        field = build_field(7)
        cfg = reference_points(SIX_POINT)
        system = vanishing_cubics(cfg, field)
        from cubicmaps.forms import evaluate
        for form in system.basis:
            for point in cfg.points:
                pt = ProjPoint(field, tuple(c % 7 for c in point))
                assert evaluate(form, pt).is_zero()

    def test_generic_points_impose_independent_conditions(self):
        field = build_field(11)
        pts = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (5, 1, 9), (2, 7, 1))
        assert vanishing_cubics(PointConfig(pts), field).dim == 3


class TestVanishingCubicsOverPrimeFields:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
    def test_basis_is_the_canonical_kernel(self, p, data):
        field = build_field(p)
        points = data.draw(st.lists(st.sampled_from(enumerate_p2(field)), min_size=1,
                                    max_size=7, unique=True))
        # unnormalized integer representatives: scaled, then shifted by multiples of p
        scale = data.draw(st.integers(1, p - 1))
        shift = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
        ints = [tuple(scale * c + p * k for c, k in zip(pt.encode(), shift)) for pt in points]
        system = vanishing_cubics(PointConfig(ints), field)
        for form in system.basis:
            assert all(type(c) is int and 0 <= c < p for c in form.coeffs)
            for pt in points:
                assert evaluate(form, pt).is_zero()
        matrix = [[x**i * y**j * z**k for i, j, k in MONOMIALS] for x, y, z in ints]
        assert system.dim == 10 - len(gf_rref(p, matrix)[0])
        rows = tuple(form.coeffs for form in system.basis)
        assert gf_rref(p, rows)[0] == rows


class TestReferenceSystems:
    def test_five_point_fixture_forms(self):
        f2 = build_field(2)
        system = reference_system(FIVE_POINT, f2)
        want = ["x^2*y + y^2*z", "x*y^2 + y^2*z", "x^2*z + y^2*z", "x*y*z", "x*z^2 + y*z^2"]
        assert [f for f in system.basis] == [parse_form(t, f2) for t in want]

    def test_six_point_fixture_forms(self):
        f2 = build_field(2)
        system = reference_system(SIX_POINT, f2)
        want = [
            "x^2*y + y^2*z + x*z^2 + y*z^2",
            "x*y^2 + y^2*z",
            "x^2*z + y^2*z",
            "x*y*z + x*z^2 + y*z^2",
        ]
        assert [f for f in system.basis] == [parse_form(t, f2) for t in want]

    def test_fixture_spans_match_reduced_integer_generators(self):
        for case in (FIVE_POINT, SIX_POINT):
            assert same_span(reduced_generator_system(case, 2), reference_system(case, build_field(2)))

    def test_reduced_generators_vanish_on_reduced_points_mod_7(self):
        # the integer generators' values at the reference points have gcd 7,
        # so mod p they span the system through the reduced points exactly
        # when p = 7 (six_point drops the last generator)
        for case, gens in ((FIVE_POINT, _INTEGER_GENERATORS), (SIX_POINT, _INTEGER_GENERATORS[:-1])):
            points = reference_points(case).points
            values = [sum(c * x**i * y**j * z**k for c, (i, j, k) in zip(gen, MONOMIALS))
                      for gen in gens for x, y, z in points]
            assert reduce(gcd, values) == 7
            for p in (2, 3, 5, 7, 11):
                reduced = reduced_generator_system(case, p)
                direct = vanishing_cubics(reference_points(case), build_field(p))
                assert reduced.dim == direct.dim == len(gens)
                assert same_span(reduced, direct) == (p == 7)
                if p == 7:
                    # both bases are the canonical RREF of that span
                    assert [f.coeffs for f in reduced.basis] == [f.coeffs for f in direct.basis]

    def test_mod2_fixture_differs_from_mod2_point_system(self):
        # the fixture is pinned, not a system through points: over GF(2)
        # x*y*z is 1 at [1:1:1], so its span is not the system of cubics
        # through the four points [1:0:0], [0:1:0], [0:0:1], [1:1:1]
        f2 = build_field(2)
        fixture = reference_system(FIVE_POINT, f2)
        direct = vanishing_cubics(PointConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))), f2)
        assert not same_span(fixture, direct)


class TestPlanes:
    def test_case46_plane_forms(self):
        f2 = build_field(2)
        system = reference_system(FIVE_POINT, f2)
        plane = make_plane(system, *CASE46)
        assert plane is not None
        want = ["x^2*y + y^2*z", "x*y*z", "x^2*y + x*y^2 + x*z^2 + y*z^2"]
        assert list(plane.forms) == [parse_form(t, f2) for t in want]

    def test_rank_deficient_triple_rejected(self):
        system = reference_system(FIVE_POINT, build_field(2))
        v = (1, 0, 0, 0, 0)
        assert make_plane(system, v, v, (0, 1, 0, 0, 0)) is None

    def test_common_factor_triple_rejected(self):
        # all five fixture generators are divisible by nothing in common,
        # but v, u, t below give three forms sharing the factor y
        f2 = build_field(2)
        system = CubicSystem(f2, tuple(parse_form(t, f2) for t in ("x^2*y", "x*y^2", "y^3")), "custom")
        assert make_plane(system, (1, 0, 0), (0, 1, 0), (0, 0, 1)) is None

    def test_net_with_a_common_linear_factor_rejected(self):
        # x*(x^2 + y*z), x*(y^2 + 2*z^2), x*(x*y + y^2 + z^2) over GF(3): every
        # rational pencil shares x, so common_factor_all has the last word
        f3 = build_field(3)
        texts = ("x^3 + x*y*z", "x*y^2 + 2*x*z^2", "x^2*y + x*y^2 + x*z^2")
        system = CubicSystem(f3, tuple(parse_form(t, f3) for t in texts), "custom")
        pencils = SystemPencils(system)
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        keys = _plane_keys(3, identity).values()
        pencils.decide(keys)
        assert all(map(pencils.shares_factor, keys))
        assert make_plane(system, *identity, pencils=pencils) is None

    @pytest.mark.parametrize("case, p, subspaces, rejected", [
        (FIVE_POINT, 2, 155, 5), (SIX_POINT, 2, 15, 0), (FIVE_POINT, 3, 1210, 4), (SIX_POINT, 3, 40, 0)])
    def test_admits_exactly_the_planes_without_a_common_factor(self, case, p, subspaces, rejected):
        # make_plane admits from the walk's pencil verdicts; common_factor_all is the reference
        system = reference_system(case, build_field(p))
        pencils = SystemPencils(system)
        seen = Counter()
        for rows in iter_subspaces(p, system.dim, 3):
            forms = [combine(r, system.basis) for r in rows]
            coprime = not any(f.is_zero() for f in forms) and not common_factor_all(forms)
            plane = make_plane(system, *rows, pencils=pencils)
            assert (plane is not None) == coprime, rows
            seen[coprime] += 1
        assert sum(seen.values()) == subspaces
        # every pencil of a rejected plane shares its factor: these reach common_factor_all
        assert seen[False] == rejected

    def test_a_walk_memo_serves_only_its_own_system(self):
        f2 = build_field(2)
        system = reference_system(FIVE_POINT, f2)
        pencils = SystemPencils(system)
        plane = make_plane(system, *CASE46, pencils=pencils)
        assert plane.pencils is pencils
        # a lone plane gets a memo of its own
        assert make_plane(system, *CASE46).pencils is not pencils
        # equal systems are still two systems: a memo keys members by one basis
        with pytest.raises(ValueError, match="another cubic system"):
            make_plane(reference_system(FIVE_POINT, f2), *CASE46, pencils=pencils)

    def test_zero_form_triple_rejected(self):
        f2 = build_field(2)
        system = CubicSystem(f2, tuple(parse_form(t, f2) for t in ("x^3", "y^3", "z^3")), "custom")
        # over GF(2) the all-ones vector is fine; a zero vector is rank-deficient
        assert make_plane(system, (0, 0, 0), (0, 1, 0), (0, 0, 1)) is None

    def test_rank_3_vectors_that_combine_to_a_zero_form_rejected(self):
        # a basis that repeats a form: each triple has rank 3, but the
        # member (1, 1, 0, 0) is x^3 + x^3, the zero form over GF(2)
        f2 = build_field(2)
        system = CubicSystem(f2, tuple(parse_form(t, f2) for t in ("x^3", "x^3", "y^3", "z^3")),
                             "custom")
        assert make_plane(system, (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)) is None
        assert make_plane(system, (0, 0, 1, 0), (1, 1, 0, 0), (1, 0, 1, 1)) is None

    def test_vector_length_mismatch(self):
        system = reference_system(FIVE_POINT, build_field(2))
        with pytest.raises(ValueError):
            make_plane(system, (1, 0), (0, 1), (1, 1))


class TestBaseLocus:
    def test_coordinate_cubics_meet_in_one_point(self):
        f2 = build_field(2)
        forms = (parse_form("x^3", f2), parse_form("y^3", f2))
        locus = base_locus(forms, scan_bound=3)
        assert not locus.positive_dimensional
        assert locus.total_points() == 1
        assert locus.points_by_degree[1][0].encode() == ProjPoint(f2, (0, 0, 1)).encode()

    def test_shared_factor_is_positive_dimensional(self):
        f2 = build_field(2)
        forms = (parse_form("x^3", f2), parse_form("x^2*y", f2))
        locus = base_locus(forms, scan_bound=3)
        assert locus.positive_dimensional
        assert locus.points_by_degree == {}

    def test_case46_plane_base_points(self):
        f2 = build_field(2)
        plane = make_plane(reference_system(FIVE_POINT, f2), *CASE46)
        locus = base_locus(plane.forms, scan_bound=4)
        assert not locus.positive_dimensional
        degree_one = sorted(pt.encode() for pt in locus.points_by_degree.get(1, ()))
        want = sorted(ProjPoint(f2, pt).encode() for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert degree_one == want
        assert locus.total_points() == 3

    def test_bezout_bound_on_reference_pencils(self):
        f2 = build_field(2)
        plane = make_plane(reference_system(FIVE_POINT, f2), *CASE46)
        for a in iter_vectors(2, 3):
            for b in iter_vectors(2, 3):
                forms = (combine(a, plane.forms), combine(b, plane.forms))
                if any(f.is_zero() for f in forms):
                    continue
                locus = base_locus(forms, scan_bound=6)
                if not locus.positive_dimensional:
                    assert locus.total_points() <= 9

    def test_prime_base_field_required(self):
        # forms over GF(4) are refused when built, before any base-locus scan
        f4 = build_field(2, 2)
        with pytest.raises(ValueError, match="prime fields"):
            parse_form("x^3", f4)
        with pytest.raises(ValueError, match="prime fields"):
            vanishing_cubics(PointConfig(((1, 0, 0), (0, 1, 0))), f4)

    def test_form_count_bounds(self):
        f2 = build_field(2)
        with pytest.raises(ValueError):
            base_locus((), scan_bound=2)

    def test_zero_form_and_mixed_fields_rejected(self):
        f2, f3 = build_field(2), build_field(3)
        with pytest.raises(ValueError, match="nonzero forms"):
            base_locus((parse_form("x^3", f2), TernaryForm(f2, [0] * 10)), scan_bound=2)
        with pytest.raises(ValueError, match="mixed fields"):
            base_locus((parse_form("x^3", f2), parse_form("y^3", f3)), scan_bound=2)


class TestIterVectors:
    def test_lexicographic_order(self):
        vecs = list(iter_vectors(2, 2))
        assert vecs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(list(iter_vectors(3, 3))) == 27


# The two subspace keys gf_rref replaced, written out as they were.


def old_subspace3_key(p, v, u, t):
    rows = [list(v), list(u), list(t)]
    n = len(rows[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, 3):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(inv * x) % p for x in rows[r]]
        for i in range(3):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == 3:
            return (tuple(rows[0]), tuple(rows[1]), tuple(rows[2]))
    return None


def old_subspace_key(p, a, b):
    rows = [[c % p for c in a], [c % p for c in b]]
    r = 0
    for c in range(3):
        piv = None
        for i in range(r, 2):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(inv * v) % p for v in rows[r]]
        for i in range(2):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == 2:
            break
    if r < 2:
        return None
    return (tuple(rows[0]), tuple(rows[1]))


def full_rank_key(p, rows):
    key, _ = gf_rref(p, rows)
    return key if len(key) == len(rows) else None


class TestGfRref:
    def test_matches_old_triple_key_on_all_gf2_triples(self):
        vectors = list(iter_vectors(2, 5))
        for v, u, t in itertools.product(vectors, repeat=3):
            assert full_rank_key(2, (v, u, t)) == old_subspace3_key(2, v, u, t)

    def test_matches_old_pencil_key_on_all_gf2_pairs(self):
        vectors = list(iter_vectors(2, 3))
        for a, b in itertools.product(vectors, repeat=2):
            assert full_rank_key(2, (a, b)) == old_subspace_key(2, a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 5]), st.data())
    def test_matches_old_keys_over_gf3_and_gf5(self, p, data):
        vec = st.tuples(*[st.integers(0, p - 1)] * 5)
        v, u, t = data.draw(vec), data.draw(vec), data.draw(vec)
        assert full_rank_key(p, (v, u, t)) == old_subspace3_key(p, v, u, t)
        a, b = v[:3], u[:3]
        assert full_rank_key(p, (a, b)) == old_subspace_key(p, a, b)

    def test_pivots_rank_and_reduction(self):
        rows, pivots = gf_rref(5, [(2, 4, 1), (4, 8, 3), (0, 0, 0)])
        assert rows == ((1, 2, 0), (0, 0, 1))
        assert pivots == [0, 2]
        assert gf_rref(3, [(0, 0), (3, 6)]) == ((), [])
        assert gf_rref(7, []) == ((), [])


def old_combination(coeffs, vectors, p):
    """The generator sums combination replaced, written out as they were."""
    return tuple(sum(c * v for c, v in zip(coeffs, column)) % p for column in zip(*vectors))


def residues(p, length):
    return st.tuples(*[st.integers(0, p - 1)] * length)


class TestPencilKeys:
    # a pencil of a plane with vectors V, spanned by a.V and b.V, is keyed by
    # gf_rref((a.V, b.V)): the plane finds it as rref((a, b).T).R, and a walk's
    # block, whose V is its own RREF R, as the pair's RREF rows times R
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.booleans(), st.data())
    def test_key_of_a_plane_whose_vectors_are_not_in_rref(self, p, in_rref, data):
        system = vanishing_cubics(reference_points(FIVE_POINT), build_field(p))
        n = system.dim
        vectors = data.draw(st.tuples(*[residues(p, n)] * 3)
                            .filter(lambda rows: len(reference_rref(p, rows)[0]) == 3))
        rows = reference_rref(p, vectors)[0]
        if in_rref:
            vectors = rows

        def members_rref(a, b):
            members = [[sum(w[i] * vectors[i][j] for i in range(3)) % p for j in range(n)]
                       for w in (a, b)]
            return reference_rref(p, members)[0]

        keys = _plane_keys(p, vectors)
        assert list(keys) == list(pencil_subspaces(p))
        for (a, b), key in keys.items():
            assert key == members_rref(a, b), (a, b)
        if vectors == rows:
            # a walk's block: the first pairs' gf_rref rows (b, a) times R
            pair_rows = np.array([(b, a) for a, b in pencil_subspaces(p)])
            assert _key_block(p, pair_rows, np.array([rows])) == [keys]
        # any pair spanning a pencil reads its first pair's key
        a, b = data.draw(st.tuples(residues(p, 3), residues(p, 3))
                         .filter(lambda pair: len(reference_rref(p, pair)[0]) == 2))
        plane = make_plane(system, *vectors)
        assume(plane is not None)
        assert plane.keys == keys
        assert plane.key(a, b) == members_rref(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(3, 8), st.booleans(), st.data())
    def test_lone_plane_keys_equal_the_per_pair_elimination(self, p, n, in_rref, data):
        # each pair (a, b) is keyed by one gf_rref of its members (a.V, b.V),
        # whether or not V is its own RREF
        vectors = data.draw(st.tuples(*[residues(p, n)] * 3)
                            .filter(lambda rows: len(gf_rref(p, rows)[0]) == 3))
        if in_rref:
            vectors = gf_rref(p, vectors)[0]
        want = {(a, b): gf_rref(p, (combination(a, vectors, p), combination(b, vectors, p)))[0]
                for a, b in pencil_subspaces(p)}
        with mock.patch.object(linsys, "gf_rref", wraps=gf_rref) as counted:
            keys = _plane_keys(p, vectors)
        assert list(keys.items()) == list(want.items())
        assert counted.call_count == len(want)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10), st.integers(1, 10), st.data())
    def test_combination_matches_the_generator_sums(self, p, count, width, data):
        coeffs = data.draw(residues(p, count))
        vectors = data.draw(st.lists(residues(p, width), min_size=count, max_size=count))
        assert combination(coeffs, vectors, p) == old_combination(coeffs, vectors, p)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(2, 1), (2, 4), (2, 9), (3, 2), (5, 3), (7, 1)]), st.data())
    def test_combination_of_ten_coefficients_and_monomial_coordinates(self, level, data):
        p, d = level
        ext = build_field(p, d)
        pt = ProjPoint(ext, data.draw(st.tuples(*[st.integers(0, ext.order - 1)] * 3).filter(any)))
        coeffs = data.draw(residues(p, 10))
        monomials = _monomial_coords(pt)
        assert combination(coeffs, monomials, p) == old_combination(coeffs, monomials, p)


class TestIterSubspaces:
    @pytest.mark.parametrize("n, count", [(4, 15), (5, 155)])
    def test_gf2_three_subspaces_are_the_distinct_triple_keys(self, n, count):
        vectors = list(iter_vectors(2, n))
        keys = {full_rank_key(2, trip) for trip in itertools.product(vectors, repeat=3)}
        keys.discard(None)
        got = list(iter_subspaces(2, n, 3))
        assert len(got) == len(set(got)) == count
        assert set(got) == keys

    def test_gf3_counts_and_canonical_rows(self):
        # Gaussian binomials [5 choose 3]_3 = 1210 and [4 choose 2]_3 = 130
        for n, k, count in ((5, 3, 1210), (4, 2, 130)):
            got = list(iter_subspaces(3, n, k))
            assert len(set(got)) == count
            assert all(gf_rref(3, rows)[0] == rows for rows in got)
