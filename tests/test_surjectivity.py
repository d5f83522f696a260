import pytest

from cubicmaps.finitefield import ProjPoint, build_field
from cubicmaps.forms import parse_form
from cubicmaps.linsys import (
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    PointConfig,
    iter_vectors,
    make_plane,
    reference_system,
)
from cubicmaps.surjectivity import (
    NOT_UNRULY,
    POSITIVE_DIMENSIONAL,
    UNRULY,
    find_unruly_seven_points,
    forward_oracle,
    label_plane,
)
from cubicmaps.surjectivity import test_pencil as pencil_verdict

CASE46 = ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))
SIX_IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))


def five_plane():
    return make_plane(reference_system(FIVE_POINT, build_field(2)), *CASE46)


def six_plane():
    return make_plane(reference_system(SIX_POINT, build_field(2)), *SIX_IDENTITY)


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
        from cubicmaps.linsys import pencil as make_pencil
        spec = make_pencil(plane, (1, 0, 0), (0, 0, 1))
        assert all(evaluate(f, point).is_zero() for f in spec.forms)
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

    def test_find_all_collects_every_unruly_pair(self):
        label = label_plane(six_plane(), find_all=True)
        assert label.value == 0
        # two unruly pencil subspaces, each with 6 ordered spanning pairs
        assert len(label.unruly_pencils) == 12
        assert ((0, 0, 1), (0, 1, 0)) in label.unruly_pencils

    def test_labels_constant_on_the_plane_not_the_basis(self):
        # relabeling with a different spanning triple of the same plane
        # gives the same verdict
        f2 = build_field(2)
        system = reference_system(FIVE_POINT, f2)
        other = make_plane(system, (1, 1, 0, 0, 1), (1, 0, 0, 1, 0), (1, 0, 0, 0, 0))
        assert other is not None
        assert label_plane(other).value == label_plane(five_plane()).value == 1


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

    def test_prime_base_field_required(self):
        f4 = build_field(2, 2)
        system = CubicSystem(
            f4, tuple(parse_form(t, f4) for t in ("x^3", "y^3", "z^3")), "custom",
        )
        plane = make_plane(system, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError):
            forward_oracle(plane)


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
        verdict = pencil_verdict(found.plane, found.a, found.b, scan_bound=2)
        assert verdict.status == UNRULY

    def test_gf3_search_result_is_consistent(self):
        f3 = build_field(3)
        pts = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2))
        cfg = PointConfig(pts)
        found = find_unruly_seven_points(cfg, f3)
        if found is not None:
            assert pencil_verdict(found.plane, found.a, found.b, scan_bound=2).status == UNRULY
