import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicmaps import _scan, linsys
from cubicmaps.finitefield import ProjPoint, Scalar, build_field, enumerate_p2, gf_left_kernel
from cubicmaps.forms import (
    TernaryForm,
    _monomials,
    _multiples,
    combine,
    evaluate,
    has_common_factor,
    parse_form,
)
from cubicmaps.linsys import (
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    PointConfig,
    SystemPencils,
    _monomial_coords,
    base_locus,
    combination,
    gf_rref,
    iter_subspaces,
    iter_vectors,
    make_plane,
    pencil_subspaces,
    reference_points,
    reference_system,
    vanishing_cubics,
    walk_planes,
)
from cubicmaps.surjectivity import (
    NOT_UNRULY,
    POSITIVE_DIMENSIONAL,
    UNRULY,
    SurjectivityLabel,
    UnrulyVerdict,
    find_unruly_seven_points,
    forward_oracle,
    label_plane,
    pencil_normal,
)
from cubicmaps.surjectivity import test_pencil as pencil_verdict

CASE46 = ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))
SIX_E1_E2_E4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
GL3_GF2 = [m for m in itertools.product(iter_vectors(2, 3), repeat=3) if len(gf_rref(2, m)[0]) == 3]


def five_plane():
    return make_plane(reference_system(FIVE_POINT, build_field(2)), *CASE46)


def six_plane():
    return make_plane(reference_system(SIX_POINT, build_field(2)), *SIX_E1_E2_E4)


class TestPencilVerdicts:
    def test_six_identity_has_a_known_unruly_pencil(self):
        verdict = pencil_verdict(six_plane(), (0, 0, 1), (0, 1, 0))
        assert verdict.status == UNRULY
        assert verdict.witness is None

    def test_six_identity_has_witnessed_pencils(self):
        verdict = pencil_verdict(six_plane(), (1, 0, 0), (0, 1, 0))
        if verdict.status == POSITIVE_DIMENSIONAL:
            verdict = pencil_verdict(six_plane(), (1, 0, 0), (0, 0, 1))
        assert verdict.status == NOT_UNRULY
        assert verdict.witness is not None

    def test_dependent_coefficients_positive_dimensional(self):
        plane = five_plane()
        assert pencil_verdict(plane, (1, 0, 1), (1, 0, 1)).status == POSITIVE_DIMENSIONAL
        assert pencil_verdict(plane, (0, 0, 0), (1, 0, 0)).status == POSITIVE_DIMENSIONAL
        # over GF(3), on a plane none of whose pencils shares a factor, so that
        # only the zero test on a x b can catch a dependent pair, dependence is decided mod 3
        f3 = build_field(3)
        system = CubicSystem(
            f3, tuple(parse_form(t, f3) for t in ("x^3 + y^2*z", "y^3 + x*z^2", "z^3 + x*y*z")), "custom",
        )
        plane = make_plane(system, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        for a, b in pencil_subspaces(3):
            assert not has_common_factor(combine(a, plane.forms), combine(b, plane.forms))
        for b in ((2, 1, 0), (0, 0, 0), (2, 4, 0), (-2, -1, 0), (4, 5, 3)):
            assert pencil_verdict(plane, (1, 2, 0), b).status == POSITIVE_DIMENSIONAL, b
        # a x b = (0, 0, -3) is nonzero over the integers but zero mod 3
        assert pencil_verdict(plane, (1, 1, 0), (4, 1, 0)).status == POSITIVE_DIMENSIONAL
        # an independent pair with unreduced entries is tested as its residues
        assert pencil_verdict(plane, (1, 0, 0), (0, 1, 0)).status == NOT_UNRULY
        assert pencil_verdict(plane, (4, 0, 0), (0, -2, 0)).status == NOT_UNRULY

    def test_shared_factor_pencil_positive_dimensional(self):
        f2 = build_field(2)
        system = CubicSystem(
            f2, tuple(parse_form(t, f2) for t in ("x^3", "x^2*y", "y^2*z")), "custom",
        )
        plane = make_plane(system, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert plane is not None
        assert pencil_verdict(plane, (1, 0, 0), (0, 1, 0)).status == POSITIVE_DIMENSIONAL

    def test_coefficient_length_checked(self):
        with pytest.raises(ValueError):
            pencil_verdict(five_plane(), (1, 0), (0, 1))

    def test_unruly_at_full_bound_is_unruly_at_smaller_bound(self):
        plane = six_plane()
        assert pencil_verdict(plane, (0, 0, 1), (0, 1, 0), scan_bound=3).status == UNRULY

    def test_first_two_case46_members_share_a_factor(self):
        # x^2*y + y^2*z = y*(x^2 + y*z) and x*y*z share the factor y
        assert pencil_verdict(five_plane(), (1, 0, 0), (0, 1, 0)).status == POSITIVE_DIMENSIONAL

    def test_witness_satisfies_the_defining_conditions(self):
        from cubicmaps.forms import evaluate
        plane = five_plane()
        verdict = pencil_verdict(plane, (1, 0, 0), (0, 0, 1))
        assert verdict.status == NOT_UNRULY
        point = verdict.witness
        forms = (combine((1, 0, 0), plane.forms), combine((0, 0, 1), plane.forms))
        assert all(evaluate(f, point).is_zero() for f in forms)
        assert any(not evaluate(f, point).is_zero() for f in plane.forms)


class TestLabelPlane:
    def test_case46_is_labeled_surjective(self):
        label = label_plane(five_plane())
        assert label.value == 1
        assert label.unruly_pencils == ()

    def test_six_identity_is_labeled_not_surjective(self):
        label = label_plane(six_plane())
        assert label.value == 0
        assert len(label.unruly_pencils) >= 1

    def test_find_all_reports_each_unruly_pencil_once(self):
        label = label_plane(six_plane(), find_all=True)
        assert label.value == 0
        # two unruly pencil subspaces, each by the pair it was tested on
        assert label.unruly_pencils == (((0, 0, 1), (0, 1, 0)), ((0, 0, 1), (1, 0, 0)))

    def test_find_all_keeps_every_verdict_in_walk_order(self):
        label = label_plane(six_plane(), find_all=True)
        assert [pair for pair, _ in label.verdicts] == list(pencil_subspaces(2))
        for (a, b), verdict in label.verdicts:
            again = pencil_verdict(six_plane(), a, b)
            assert (verdict.status, verdict.witness) == (again.status, again.witness)

    def test_verdicts_stop_at_the_first_unruly_pencil(self):
        label = label_plane(six_plane())
        statuses = [verdict.status for _, verdict in label.verdicts]
        assert statuses[-1] == UNRULY
        assert UNRULY not in statuses[:-1]
        assert label.verdicts[-1][0] == label.unruly_pencils[0]

    def test_no_label_0_below_the_exhaustive_bound(self):
        # case 46 is surjective, but two of its pencils have no witness up to degree 2
        label = label_plane(five_plane(), scan_bound=2)
        assert label.value is None
        assert label.scan_bound == 2
        assert len(label.unruly_pencils) == 1
        assert label_plane(five_plane(), scan_bound=2, find_all=True).value is None

    def test_six_identity_is_proved_only_at_bound_9(self):
        assert label_plane(six_plane(), scan_bound=8).value is None
        assert label_plane(six_plane(), scan_bound=8, find_all=True).value is None
        assert label_plane(six_plane(), scan_bound=9).value == 0

    def test_label_1_at_any_bound_that_finds_every_witness(self):
        # case 46's deepest witness lies over GF(16)
        assert label_plane(five_plane(), scan_bound=3).value is None
        label = label_plane(five_plane(), scan_bound=4)
        assert label.value == 1
        assert label.scan_bound == 4

    @pytest.mark.parametrize("bound, value", [(1, None), (8, None), (9, 0), (10, 0)])
    def test_value_is_read_off_verdicts_and_bound(self, bound, value):
        shared = (((0, 0, 1), (0, 1, 0)), UnrulyVerdict(POSITIVE_DIMENSIONAL))
        unruly = (((0, 0, 1), (1, 0, 0)), UnrulyVerdict(UNRULY))
        assert SurjectivityLabel([shared], bound).value == 1
        label = SurjectivityLabel([shared, unruly, unruly], bound)
        assert label.value is value
        assert label.unruly_pencils == (unruly[0], unruly[0])

    def test_labels_constant_on_the_plane_not_the_basis(self):
        # relabeling with a different spanning triple of the same plane
        # gives the same verdict
        f2 = build_field(2)
        system = reference_system(FIVE_POINT, f2)
        other = make_plane(system, (1, 1, 0, 0, 1), (1, 0, 0, 1, 0), (1, 0, 0, 0, 0))
        assert other is not None
        assert label_plane(other).value == label_plane(five_plane()).value == 1


    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([FIVE_POINT, SIX_POINT]), st.data())
    def test_label_is_invariant_under_a_change_of_basis(self, case, data):
        system = reference_system(case, build_field(2))
        vecs = data.draw(st.sampled_from(list(iter_subspaces(2, system.dim, 3))))
        plane = make_plane(system, *vecs)
        assume(plane is not None)
        m = data.draw(st.sampled_from(GL3_GF2))
        moved = [[sum(m[i][j] * vecs[j][c] for j in range(3)) % 2 for c in range(system.dim)]
                 for i in range(3)]
        other = make_plane(system, *moved)
        assert other is not None
        assert label_plane(other, scan_bound=9).value == label_plane(plane, scan_bound=9).value


def old_pencil_pairs(p):
    """The ordered-pair walk label_plane made before it walked subspaces, written out."""
    vectors = list(iter_vectors(p, 3))
    for a in vectors:
        for b in vectors:
            key, _ = gf_rref(p, (a, b))
            if len(key) == 2:
                yield a, b, key


class TestPencilWalkOrder:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_subspace_walk_matches_the_old_pair_walk(self, p):
        first = {}
        for a, b, key in old_pencil_pairs(p):
            first.setdefault(key, (a, b))
        walk = pencil_subspaces(p)
        # the same subspaces in the order the pair walk first meets them
        assert [gf_rref(p, pair)[0] for pair in walk] == list(first)
        # each tested on the pair the old walk tested it on
        assert list(walk) == list(first.values())

    @pytest.mark.parametrize("make", [six_plane, five_plane])
    def test_label_reports_the_old_walks_pairs(self, make):
        # the old walk's first pair of each unruly subspace, in walk order
        plane = make()
        first = {}
        for a, b, key in old_pencil_pairs(2):
            first.setdefault(key, (a, b))
        want = [pair for pair in first.values() if pencil_verdict(plane, *pair).status == UNRULY]
        assert label_plane(plane).unruly_pencils == tuple(want[:1])
        assert label_plane(plane, find_all=True).unruly_pencils == tuple(want)


class TestWitnessRecheck:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 9), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]),
           st.data())
    def test_vanishing_matches_evaluate(self, level, data):
        p, d = level
        ext = build_field(p, d)
        form = TernaryForm(build_field(p), data.draw(st.lists(st.integers(0, p - 1),
                                                              min_size=10, max_size=10)))
        coords = data.draw(st.tuples(*[st.integers(0, ext.order - 1)] * 3).filter(any))
        pt = ProjPoint(ext, coords)
        assert combination(form.coeffs, _monomial_coords(pt), p) == evaluate(form, pt).coords

    @staticmethod
    def zero_dimensional_pencil(plane):
        return next((a, b) for a in iter_vectors(2, 3) for b in iter_vectors(2, 3)
                    if pencil_verdict(plane, a, b).status != POSITIVE_DIMENSIONAL)

    def test_a_point_off_the_pencil_is_rejected(self, monkeypatch):
        plane = five_plane()
        a, b = self.zero_dimensional_pencil(plane)
        f = combine(a, plane.forms)
        off = next(pt for pt in enumerate_p2(build_field(2)) if not evaluate(f, pt).is_zero())
        monkeypatch.setattr(SystemPencils, "witness_encoding", lambda *args: (1, off.encode()))
        with pytest.raises(AssertionError, match="pencil-vanishing"):
            pencil_verdict(plane, a, b)

    def test_a_point_off_the_second_spanning_form_is_rejected(self, monkeypatch):
        # the point kills a.F but not b.F: checking a.V alone would pass it
        plane = five_plane()
        a, b = self.zero_dimensional_pencil(plane)
        f, g = combine(a, plane.forms), combine(b, plane.forms)
        off = next(pt for pt in enumerate_p2(build_field(2))
                   if evaluate(f, pt).is_zero() and not evaluate(g, pt).is_zero())
        monkeypatch.setattr(SystemPencils, "witness_encoding", lambda *args: (1, off.encode()))
        with pytest.raises(AssertionError, match="pencil-vanishing"):
            pencil_verdict(plane, a, b)

    def test_monomials_multiply_only_nonzero_powers(self, monkeypatch):
        # 3 squares, 3 cubes, 6 products of two powers and 2 for x*y*z: no factor 1 for a zero exponent
        pt = ProjPoint(build_field(2, 3), (3, 5, 6))
        calls = []
        mul = Scalar.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counted)
        _monomial_coords(pt)
        assert len(calls) == 14

    def test_a_base_point_of_the_plane_is_rejected(self, monkeypatch):
        plane = five_plane()
        a, b = self.zero_dimensional_pencil(plane)
        # [1:0:0] is one of the five points every form of the system passes through
        monkeypatch.setattr(SystemPencils, "witness_encoding", lambda *args: (1, (1, 0, 0)))
        with pytest.raises(AssertionError, match="plane-nonvanishing"):
            pencil_verdict(plane, a, b)


def reference_verdict(plane, a, b, scan_bound, plane_zeros):
    """(status, witness encoding) from the pencil forms themselves.

    The witness is the first common zero of the two forms, by level and then
    scan order, that is not a common zero of the plane's forms.
    """
    forms = (combine(a, plane.forms), combine(b, plane.forms))
    if has_common_factor(*forms):
        return POSITIVE_DIMENSIONAL, None
    p = plane.field.p
    for d in range(1, scan_bound + 1):
        ext = build_field(p, d)
        if d not in plane_zeros:
            plane_zeros[d] = set(_scan.common_zero_encodings(plane.forms, d)[d])
        for enc in _scan.common_zero_encodings(forms, d)[d]:
            if enc not in plane_zeros[d]:
                return NOT_UNRULY, _scan.decode_point(ext, enc).encode()
    return UNRULY, None


class TestWitnessesAgainstPencilForms:
    # the verdicts read the walk memo's member zero sets; the reference builds a.F and b.F

    @pytest.mark.parametrize("case, p, scan_bound, planes", [
        (FIVE_POINT, 2, 9, 150), (SIX_POINT, 2, 9, 15), (SIX_POINT, 3, 5, 40)])
    def test_every_verdict_and_witness(self, case, p, scan_bound, planes):
        system = reference_system(case, build_field(p))
        seen = Counter()
        for rows in iter_subspaces(p, system.dim, 3):
            plane = make_plane(system, *rows)
            if plane is None:
                continue
            plane_zeros = {}
            for (a, b), verdict in label_plane(plane, scan_bound, find_all=True).verdicts:
                witness = None if verdict.witness is None else verdict.witness.encode()
                want = reference_verdict(plane, a, b, scan_bound, plane_zeros)
                assert (verdict.status, witness) == want, (rows, a, b)
                seen[verdict.status] += 1
            seen["planes"] += 1
        assert seen["planes"] == planes
        assert seen[NOT_UNRULY] and seen[POSITIVE_DIMENSIONAL]

    def test_forms_are_evaluated_once_per_chunk(self, monkeypatch):
        # a walk evaluates each member's zero set once per chunk, however many
        # planes hold it, and the covering scan evaluates a plane's 3 forms once
        # per chunk; over GF(2) levels 1-9 are one chunk of 40,896 points
        system = reference_system(SIX_POINT, build_field(2))
        pencils = SystemPencils(system)
        planes = [plane for plane in (make_plane(system, *rows, pencils=pencils)
                                      for rows in iter_subspaces(2, system.dim, 3)) if plane]
        members, chunks = Counter(), Counter()
        zero_set, evaluate_values = _scan.zero_set, _scan._eval

        def counted_zero_set(coeffs, chunk):
            members[tuple(coeffs), chunk.key] += 1
            return zero_set(coeffs, chunk)

        def counted(t, coeffs, monos):
            chunks[len(monos[0])] += 1
            return evaluate_values(t, coeffs, monos)

        monkeypatch.setattr(_scan, "zero_set", counted_zero_set)
        monkeypatch.setattr(_scan, "_eval", counted)
        for plane in planes:
            assert label_plane(plane, find_all=True).unruly_pencils
        assert len(planes) == 15 and set(members.values()) == {1}
        # at most the 15 members of GF(2)^4, each on the one chunk of levels 1..9
        assert {key for _, key in members} == {(1, 9, 0)}
        assert len(members) <= 15 and chunks == {40896: len(members)}
        assert pencils.counters()["scanned_points"] == 40896 * len(members)
        chunks.clear()
        assert forward_oracle(planes[0])
        assert chunks == {40896: 3}

    def test_one_walk_memo_gives_the_verdicts_of_a_memo_per_plane(self):
        for case in (FIVE_POINT, SIX_POINT):
            system = reference_system(case, build_field(2))
            pencils = SystemPencils(system)
            planes = 0
            for rows in iter_subspaces(2, system.dim, 3):
                shared = make_plane(system, *rows, pencils=pencils)
                alone = make_plane(system, *rows)
                assert (shared is None) == (alone is None), rows
                if shared is None:
                    continue
                planes += 1
                for find_all in (False, True):
                    got, want = (label_plane(plane, find_all=find_all).verdicts for plane in (shared, alone))
                    assert [(pair, v.status, v.witness) for pair, v in got] == [
                        (pair, v.status, v.witness) for pair, v in want], rows
            assert planes == {FIVE_POINT: 150, SIX_POINT: 15}[case]
            assert pencils.counters()["system_pencils"] < pencils.counters()["pencil_tests"]

    @pytest.mark.parametrize("case, pencils, planes", [(FIVE_POINT, 155, 150), (SIX_POINT, 35, 15)])
    def test_a_memo_decided_up_front_gives_the_results_of_a_lazy_one(self, monkeypatch, case,
                                                                      pencils, planes):
        system = reference_system(case, build_field(2))

        def walk(memo):
            """Per subspace: None, or the plane's vectors and forms, its pencils' verdicts and label."""
            results = []
            for rows in iter_subspaces(2, system.dim, 3):
                plane = make_plane(system, *rows, pencils=memo)
                if plane is not None:
                    shares = [memo.shares_factor(plane.keys[pair]) for pair in pencil_subspaces(2)]
                    label = label_plane(plane, find_all=True)
                    plane = (plane.vectors, plane.forms, shares, label.value,
                             [(pair, v.status, v.witness) for pair, v in label.verdicts])
                results.append(plane)
            return results

        want = walk(SystemPencils(system))
        eager = SystemPencils(system)
        eager.decide(iter_subspaces(2, system.dim, 2))
        assert eager.counters()["system_pencils"] == pencils

        # from here on the memo makes no decision, not even for keys it is given again
        def no_decision(p, pairs):
            raise AssertionError("a memo that decided every pencil decided one again")

        monkeypatch.setattr(linsys, "pairs_share_factor", no_decision)
        eager.decide(iter_subspaces(2, system.dim, 2))
        assert walk(eager) == want
        assert sum(result is not None for result in want) == planes
        assert eager.counters()["system_pencils"] == pencils

    def test_gf3_plane_through_the_first_uncached_level(self):
        # GF(3^7) is the first level whose points are not cached: its zero
        # sets are scanned in chunks, and the base points are read off them
        f3 = build_field(3)
        assert not _scan._is_cached(build_field(3, 7)) and _scan._is_cached(build_field(3, 6))
        system = vanishing_cubics(reference_points(FIVE_POINT), f3)
        plane = next(plane for plane in (make_plane(system, *rows)
                                         for rows in iter_subspaces(3, system.dim, 3)) if plane)
        plane_zeros = {}
        statuses = Counter()
        for (a, b), verdict in label_plane(plane, 7, find_all=True).verdicts:
            witness = None if verdict.witness is None else verdict.witness.encode()
            assert (verdict.status, witness) == reference_verdict(plane, a, b, 7, plane_zeros), (a, b)
            statuses[verdict.status] += 1
        # some pencil is scanned through level 7 without a witness
        assert statuses[UNRULY]

    @pytest.mark.parametrize("make", [five_plane, six_plane])
    def test_uncached_levels_give_the_cached_verdicts(self, make, monkeypatch):
        # with no level cached, every zero set is scanned in chunks and witnesses come from them
        want = [(pair, v.status, v.witness) for pair, v in label_plane(make(), find_all=True).verdicts]
        monkeypatch.setattr(_scan, "_monomial_cache", {})
        monkeypatch.setattr(_scan, "_CACHE_POINT_LIMIT", 0)
        monkeypatch.setattr(_scan, "_CHUNK", 1000)
        got = [(pair, v.status, v.witness) for pair, v in label_plane(make(), find_all=True).verdicts]
        assert got == want
        assert any(witness is not None and witness.field.k > 1 for _, _, witness in got)

    def test_a_member_and_its_multiple_share_one_zero_set(self):
        system = vanishing_cubics(reference_points(FIVE_POINT), build_field(3))
        pencils = SystemPencils(system)
        [chunk] = _scan.iter_chunks(3, 2)
        member = (1, 2, 0, 1, 0)
        zeros = pencils.zero_set(member, chunk)
        assert pencils.zero_set((2, 1, 0, 2, 0), chunk) is zeros
        assert pencils.counters()["member_zero_sets"] == 1
        assert pencils.counters()["scanned_points"] == len(chunk) == 13 + 52
        # a pencil is keyed by the RREF of its span, whatever pair spans it
        vectors = (member, (0, 1, 1, 0, 2), (0, 0, 0, 0, 1))
        plane = make_plane(system, *vectors, pencils=pencils)
        key = plane.key((1, 0, 0), (0, 1, 0))
        assert key == gf_rref(3, vectors[:2])[0]
        assert plane.key((2, 1, 0), (1, 1, 0)) == key


def verdict_list(plane, scan_bound=9):
    """(pair, status, witness) of every pencil of a plane, in walk order."""
    return [(pair, v.status, v.witness)
            for pair, v in label_plane(plane, scan_bound, find_all=True).verdicts]


class TestBlockKeyedWalk:
    # walk_planes keys the pencils of a block of planes with one product; a
    # lone plane, with a memo of its own, keys its pencils as a block of one

    @pytest.mark.parametrize("block", [None, 7])
    def test_gf2_walks_give_the_verdicts_and_witnesses_of_lone_planes(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(linsys, "_PLANE_BLOCK", block)
        planes = 0
        for case in (FIVE_POINT, SIX_POINT):
            system = reference_system(case, build_field(2))
            subspaces = list(iter_subspaces(2, system.dim, 3))
            for rows, plane in zip(subspaces, walk_planes(system, subspaces, SystemPencils(system))):
                lone = make_plane(system, *rows)
                assert (plane is None) == (lone is None), rows
                if plane is None:
                    continue
                planes += 1
                assert plane.vectors == lone.vectors == rows
                assert plane.keys == lone.keys
                assert verdict_list(plane) == verdict_list(lone), rows
        assert planes == 165

    @pytest.mark.parametrize("block", [None, 7])
    def test_gf3_five_point_walk_admits_and_labels_as_lone_planes(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(linsys, "_PLANE_BLOCK", block)
        system = vanishing_cubics(reference_points(FIVE_POINT), build_field(3))
        subspaces = list(iter_subspaces(3, system.dim, 3))
        sample = set(random.Random(3).sample(range(len(subspaces)), 40))
        planes = labeled = 0
        walk = walk_planes(system, subspaces, SystemPencils(system))
        for i, (rows, plane) in enumerate(zip(subspaces, walk)):
            lone = make_plane(system, *rows)
            assert (plane is None) == (lone is None), rows
            if plane is None:
                continue
            planes += 1
            assert plane.keys == lone.keys
            if i in sample:
                labeled += 1
                assert verdict_list(plane, 2) == verdict_list(lone, 2), rows
        assert (len(subspaces), planes) == (1210, 1164)
        assert labeled > 30


class TestWitnessPoints:
    @pytest.mark.parametrize("find_all", [False, True])
    def test_a_six_point_walk_decodes_each_witness_point_once(self, find_all, monkeypatch):
        decoded = []
        decode = _scan.decode_point

        def counted(ext, enc):
            decoded.append((ext.k, tuple(enc)))
            return decode(ext, enc)

        monkeypatch.setattr(_scan, "decode_point", counted)
        system = reference_system(SIX_POINT, build_field(2))
        pencils = SystemPencils(system)
        witnesses = []
        for rows in iter_subspaces(2, system.dim, 3):
            plane = make_plane(system, *rows, pencils=pencils)
            if plane is not None:
                witnesses += [v.witness for _, v in label_plane(plane, find_all=find_all).verdicts
                              if v.witness is not None]
        distinct = {(pt.field.k, pt.encode()) for pt in witnesses}
        assert len(decoded) == len(set(decoded)) == pencils.counters()["witness_points"]
        assert set(decoded) == distinct
        assert len(witnesses) > len(distinct) == {False: 7, True: 11}[find_all]

    def test_a_witness_point_is_keyed_by_its_level(self):
        # the same encoding names a point of GF(4) and one of GF(8)
        pencils = SystemPencils(reference_system(SIX_POINT, build_field(2)))
        enc = (2, 3, 1)
        four, eight = build_field(2, 2), build_field(2, 3)
        first = pencils.witness_point(four, enc)
        for ext in (four, eight):
            pt, monomials = pencils.witness_point(ext, enc)
            assert pt == _scan.decode_point(ext, enc) and pt.field == ext
            assert monomials == _monomial_coords(pt)
        assert pencils.witness_point(four, enc) is first
        assert pencils.counters()["witness_points"] == 2


class TestBaseLociOfGF2Planes:
    """The paper's |I_f| claim over GF(2), at the exhaustive bound 9."""

    def test_base_point_counts_by_label(self):
        want = {
            FIVE_POINT: {(0, 3): 81, (0, 4): 44, (0, 5): 14, (0, 6): 5, (1, 3): 6},
            SIX_POINT: {(0, 3): 10, (0, 4): 4, (0, 5): 1},
        }
        for case, table in want.items():
            system = reference_system(case, build_field(2))
            got = Counter()
            for rows in iter_subspaces(2, system.dim, 3):
                plane = make_plane(system, *rows)
                if plane is not None:
                    got[label_plane(plane).value, base_locus(plane.forms, 9).total_points()] += 1
            assert got == table, case

    @pytest.mark.parametrize("case, rows", [(FIVE_POINT, 275), (SIX_POINT, 220)])
    def test_fixed_base_schemes_have_length_4(self, case, rows):
        # length = dim R_12 - rank(basis * R_9): every plane of the fixture lies on it
        system = reference_system(case, build_field(2))
        matrix = [row for f in system.basis for row in _multiples(f.coeffs, 3, 9)]
        assert len(matrix) == rows
        assert len(_monomials(12)) - len(gf_rref(2, matrix)[0]) == 4


class TestAllPencilsPositiveDimensional:
    """[xy(x+y) : xz(x+z) : yz(y+z)] over GF(2): each of its 7 pencils shares a factor."""

    @staticmethod
    def plane():
        pts = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1))
        system = vanishing_cubics(PointConfig(pts), build_field(2))
        return make_plane(system, (1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))

    def test_every_pencil_is_positive_dimensional(self):
        plane = self.plane()
        assert plane is not None
        for a, b in pencil_subspaces(2):
            assert pencil_verdict(plane, a, b).status == POSITIVE_DIMENSIONAL

    def test_no_unruly_pencil_gives_label_1(self):
        label = label_plane(self.plane(), find_all=True)
        assert label.value == 1
        assert label.unruly_pencils == ()

    def test_oracle_leaves_nothing_uncovered(self):
        assert forward_oracle(self.plane()) == []


def level_covered(forms, field):
    """The covering scan of one level, on its own chunks and tables."""
    return set().union(*(_scan.covered_encodings(forms, chunk) for chunk in _scan.level_chunks(field)))


def reference_oracle(plane, source_bound, shortcut=None):
    """The oracle with its old annihilator-pencil shortcut, decided here without the memo.

    After the level-1 covering scan, a leftover target is covered when the
    two forms of its annihilator pencil share a factor (has_common_factor);
    each target covered that way is appended to shortcut.  Then levels
    2..source_bound are scanned.
    """
    p = plane.field.p
    remaining = {t.encode(): t for t in enumerate_p2(plane.field)}
    for enc in level_covered(plane.forms, build_field(p, 1)):
        remaining.pop(enc, None)
    for enc in list(remaining):
        a, b = gf_left_kernel(p, [[c] for c in enc])
        if has_common_factor(combine(a, plane.forms), combine(b, plane.forms)):
            del remaining[enc]
            if shortcut is not None:
                shortcut.append(enc)
    for d in range(2, source_bound + 1):
        if not remaining:
            break
        for enc in level_covered(plane.forms, build_field(p, d)):
            remaining.pop(enc, None)
    return [remaining[enc] for enc in sorted(remaining)]


def plain_oracle(plane, max_bound):
    """forward_oracle's list at every bound 1..max_bound, by the plain loop over every level."""
    p = plane.field.p
    remaining = {t.encode(): t for t in enumerate_p2(plane.field)}
    lists = {}
    for d in range(1, max_bound + 1):
        for enc in level_covered(plane.forms, build_field(p, d)):
            remaining.pop(enc, None)
        lists[d] = [remaining[enc] for enc in sorted(remaining)]
    return lists


def gf3_planes():
    """The admissible planes among every 29th of the 1,210 five-point subspaces mod 3."""
    system = vanishing_cubics(reference_points(FIVE_POINT), build_field(3))
    subspaces = list(iter_subspaces(3, system.dim, 3))[::29]
    return list(filter(None, (make_plane(system, *rows) for rows in subspaces)))


def gf2_planes():
    """The 150 five-point and 15 six-point admissible GF(2) planes."""
    planes = []
    for case in (FIVE_POINT, SIX_POINT):
        system = reference_system(case, build_field(2))
        planes += filter(None, (make_plane(system, *rows) for rows in iter_subspaces(2, system.dim, 3)))
    assert len(planes) == 165
    return planes


class _NoMemo:
    """Stands in for a plane's SystemPencils and fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the oracle read plane.pencils.{name}")


class TestForwardOracle:
    def test_case46_covers_everything(self):
        assert forward_oracle(five_plane()) == []

    def test_six_identity_misses_two_points(self):
        f2 = build_field(2)
        uncovered = forward_oracle(six_plane())
        want = sorted(ProjPoint(f2, pt).encode() for pt in ((0, 1, 0), (1, 0, 0)))
        assert sorted(pt.encode() for pt in uncovered) == want

    def test_oracle_agrees_with_label_on_samples(self):
        f2 = build_field(2)
        system = reference_system(FIVE_POINT, f2)
        seen = 0
        for v in iter_vectors(2, 5):
            for u in iter_vectors(2, 5):
                t = (1, 1, 0, 1, 1)
                plane = make_plane(system, v, u, t)
                if plane is None:
                    continue
                seen += 1
                label = label_plane(plane).value
                assert (label == 1) == (forward_oracle(plane) == [])
                if seen >= 12:
                    return
        raise AssertionError("no admissible planes sampled")

    @pytest.mark.parametrize("case, planes", [(FIVE_POINT, 150), (SIX_POINT, 15)])
    def test_unruly_normals_are_the_uncovered_targets(self, case, planes):
        # a target is uncovered iff the pencil it annihilates, whose normal it is, is unruly
        f2 = build_field(2)
        system = reference_system(case, f2)
        seen = 0
        for rows in iter_subspaces(2, system.dim, 3):
            plane = make_plane(system, *rows)
            if plane is None:
                continue
            seen += 1
            normals = {ProjPoint(f2, pencil_normal(a, b))
                       for a, b in label_plane(plane, find_all=True).unruly_pencils}
            assert normals == set(forward_oracle(plane))
        assert seen == planes

    def test_equals_the_shortcut_oracle_on_every_gf2_plane(self):
        shortcut = []
        for plane in gf2_planes():
            assert forward_oracle(plane) == reference_oracle(plane, 9, shortcut), plane.vectors
        # the shortcut covered these targets; the covering scan now finds their preimages
        assert len(shortcut) == 73

    def test_equals_the_shortcut_oracle_on_sampled_gf3_planes(self):
        planes = gf3_planes()
        shortcut = []
        for plane in planes:
            assert forward_oracle(plane, 5) == reference_oracle(plane, 5, shortcut), plane.vectors
        # every 29th of the 1,210 subspaces: 40 planes, with two targets the shortcut covered
        assert (len(planes), len(shortcut)) == (40, 2)

    def test_equals_the_plain_loop_on_every_gf2_plane_at_every_bound(self):
        for plane in gf2_planes():
            for bound, want in plain_oracle(plane, 9).items():
                assert forward_oracle(plane, bound) == want, (bound, plane.vectors)

    def test_equals_the_plain_loop_on_sampled_gf3_planes_at_every_bound(self):
        for plane in gf3_planes():
            for bound, want in plain_oracle(plane, 5).items():
                assert forward_oracle(plane, bound) == want, (bound, plane.vectors)

    def test_scans_exactly_the_covering_levels(self, monkeypatch):
        # one chunk at a time, stopping once every target is covered
        scanned = []
        covered = _scan.covered_encodings

        def counted(forms, chunk):
            scanned.append([d for d, _, _ in chunk.levels])
            return covered(forms, chunk)

        monkeypatch.setattr(_scan, "covered_encodings", counted)
        # over GF(2) levels 1..B are one chunk, evaluated once, at every bound B
        for bound in range(1, 10):
            scanned.clear()
            assert forward_oracle(six_plane(), bound)
            assert scanned == [list(range(1, bound + 1))]
        # a GF(3) plane that levels 1-3 finish never reaches level 6, its own chunk
        system = vanishing_cubics(PointConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1))), build_field(3))
        plane = make_plane(system, (1, 2, 1, 1, 1, 1, 2), (0, 0, 1, 2, 2, 1, 0), (1, 0, 2, 2, 2, 2, 2))
        scanned.clear()
        assert forward_oracle(plane) == []
        assert scanned == [[1, 2, 3, 4, 5]]
        # one whose level 6 is read: it is a chunk of its own, after levels 1-5
        plane = gf3_planes()[0]
        scanned.clear()
        assert forward_oracle(plane, 6)
        assert scanned == [[1, 2, 3, 4, 5], [6]]

    def test_never_reads_the_pencil_memo(self):
        for plane in gf2_planes():
            want = forward_oracle(plane)
            plane.pencils = _NoMemo()
            assert forward_oracle(plane) == want, plane.vectors

    def test_prime_base_field_required(self):
        # no GF(4) form, hence no GF(4) system or plane, can be built
        f4 = build_field(2, 2)
        for text in ("x^3", "y^3", "z^3"):
            with pytest.raises(ValueError, match="prime fields"):
                parse_form(text, f4)
        with pytest.raises(ValueError, match="prime fields"):
            TernaryForm(f4, [1] + [0] * 9)


class TestBoundsBelowOne:
    # bound 0 scans no level, so every pencil of case 46 would read as unruly
    @pytest.mark.parametrize("bound", [0, -1])
    def test_label_plane_rejects(self, bound):
        with pytest.raises(ValueError, match="scan_bound must be at least 1"):
            label_plane(five_plane(), scan_bound=bound)

    def test_test_pencil_rejects(self):
        with pytest.raises(ValueError, match="scan_bound must be at least 1"):
            pencil_verdict(five_plane(), (1, 0, 0), (0, 0, 1), scan_bound=0)

    def test_forward_oracle_rejects(self):
        with pytest.raises(ValueError, match="source_bound must be at least 1"):
            forward_oracle(five_plane(), source_bound=0)

    def test_bound_one_still_runs(self):
        assert pencil_verdict(six_plane(), (0, 0, 1), (0, 1, 0), scan_bound=1).status == UNRULY


class TestBoundsAboveNine:
    # Bezout: no base point of two coprime cubics, hence no witness and no
    # preimage that level 9 lacks, lies above level 9
    @pytest.mark.parametrize("bound", [10, 11, 15])
    def test_rejected(self, bound):
        plane = five_plane()
        for call in (lambda: label_plane(plane, scan_bound=bound),
                     lambda: pencil_verdict(plane, (1, 0, 0), (0, 0, 1), scan_bound=bound),
                     lambda: forward_oracle(plane, source_bound=bound),
                     lambda: base_locus(plane.forms, bound)):
            with pytest.raises(ValueError, match=f"must be at most 9, got {bound}: by Bezout's bound"):
                call()


class TestSevenPoints:
    def test_requires_seven_points(self):
        with pytest.raises(ValueError):
            find_unruly_seven_points(PointConfig(((1, 0, 0), (0, 1, 0))), build_field(5))

    def test_degenerate_configuration_rejected(self):
        # seven collinear points impose dependent conditions (dim > 3)
        f7 = build_field(7)
        pts = tuple((i, 1, 0) for i in range(7))
        with pytest.raises(ValueError, match="special"):
            find_unruly_seven_points(PointConfig(pts), f7)

    def test_gf11_example_finds_an_unruly_pencil(self):
        f11 = build_field(11)
        pts = ((9, 1, 0), (7, 4, 5), (0, 4, 7), (3, 9, 8), (7, 9, 7), (1, 9, 7), (1, 3, 1))
        found = find_unruly_seven_points(PointConfig(pts), f11)
        assert found is not None
        # independent re-check of the returned pencil
        verdict = pencil_verdict(*found, scan_bound=2)
        assert verdict.status == UNRULY

    def test_gf3_search_result_is_consistent(self):
        f3 = build_field(3)
        pts = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2))
        cfg = PointConfig(pts)
        found = find_unruly_seven_points(cfg, f3)
        if found is not None:
            assert pencil_verdict(*found, scan_bound=2).status == UNRULY
