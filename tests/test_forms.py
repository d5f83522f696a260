from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicmaps import linsys
from cubicmaps.finitefield import ProjPoint, build_field, enumerate_p2, gf_left_kernel, gf_rref
from cubicmaps.forms import (
    MONOMIAL_NAMES,
    MONOMIALS,
    TernaryForm,
    combine,
    common_factor_all,
    evaluate,
    has_common_factor,
    pairs_share_factor,
    parse_form,
    render_form,
)
from cubicmaps.linsys import (
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    SystemPencils,
    _plane_keys,
    iter_subspaces,
    make_plane,
    pencil_subspaces,
    reference_points,
    reference_system,
    vanishing_cubics,
)
from cubicmaps.ratpoly import RationalPoly, univariate_gcd
from test_finitefield import reference_rref

X = RationalPoly.var("x")
Y = RationalPoly.var("y")
Z = RationalPoly.var("z")
A = RationalPoly.var("a")
B = RationalPoly.var("b")


class TestMonomialOrder:
    def test_frozen_order(self):
        assert MONOMIALS == (
            (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
            (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
        )
        assert MONOMIAL_NAMES == (
            "x^3", "x^2*y", "x^2*z", "x*y^2", "x*y*z",
            "x*z^2", "y^3", "y^2*z", "y*z^2", "z^3",
        )


def form_of(text, field):
    return parse_form(text, field)


class TestTernaryForm:
    def test_parse_render_round_trip(self):
        field = build_field(2)
        for text in ("x^2*y + y^2*z", "x*y*z", "x^3 + y^3 + z^3", "x^2*y + x*y^2 + x*z^2 + y*z^2"):
            form = parse_form(text, field)
            assert parse_form(render_form(form), field) == form

    @pytest.mark.parametrize("text, message", [
        ("x^3 + w^3", "unknown monomial 'w\\^3'"),
        ("x^3 + + y^3", "empty term"),
        ("x^3 +", "empty term"),
        ("x^3 + 1*x^3", "appears twice"),
    ])
    def test_parse_rejects_malformed_text(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_form(text, build_field(2))

    def test_render_writes_explicit_coefficients(self):
        field = build_field(2)
        assert render_form(parse_form("x^2*y + y^2*z", field)) == "1*x^2*y + 1*y^2*z"

    def test_parse_coefficients_general_field(self):
        field = build_field(5)
        form = parse_form("3*x^3 + 2*x*y*z + 4*z^3", field)
        assert form.coeffs == (3, 0, 0, 0, 2, 0, 0, 0, 0, 4)

    def test_evaluate_against_direct_sum(self):
        field = build_field(7)
        form = parse_form("2*x^3 + 3*x*y*z + y^2*z + 5*z^3", field)
        for triple in ((1, 2, 3), (0, 4, 1), (6, 6, 6), (2, 0, 5)):
            x, y, z = triple
            want = (2 * x**3 + 3 * x * y * z + y * y * z + 5 * z**3) % 7
            assert evaluate(form, triple).encode() == want

    def test_evaluate_projective_point_uses_normalized_coords(self):
        field = build_field(7)
        form = parse_form("x^3 + y^2*z", field)
        pt = ProjPoint(field, (2, 4, 6))
        norm = tuple(c.encode() for c in pt.coords)
        assert evaluate(form, pt).encode() == evaluate(form, norm).encode()

    def test_evaluate_homogeneous_under_scaling(self):
        field = build_field(5)
        form = parse_form("x^3 + 2*y^2*z + z^3", field)
        for lam in (2, 3, 4):
            base = evaluate(form, (1, 3, 2)).encode()
            scaled = evaluate(form, (lam % 5, (3 * lam) % 5, (2 * lam) % 5)).encode()
            assert scaled == (base * pow(lam, 3, 5)) % 5

    def test_combine_is_linear(self):
        field = build_field(2)
        basis = [parse_form(t, field) for t in ("x^3", "y^3", "z^3")]
        form = combine((field.one(), field.zero(), field.one()), basis)
        assert form == parse_form("x^3 + z^3", field)

    def test_combine_mixes_overlapping_basis_forms(self):
        field = build_field(2)
        basis = [parse_form(t, field) for t in ("x^3 + y^3", "y^3 + z^3")]
        form = combine((field.one(), field.one()), basis)
        assert form == parse_form("x^3 + z^3", field)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    def test_combine_matches_per_term_sum(self, p, data):
        field = build_field(p)
        row = st.lists(st.integers(0, p - 1), min_size=10, max_size=10)
        basis = [TernaryForm(field, data.draw(row)) for _ in range(data.draw(st.integers(1, 5)))]
        coeffs = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(basis),
                                    max_size=len(basis)))
        want = basis[0].scaled(coeffs[0])
        for c, form in zip(coeffs[1:], basis[1:]):
            want = want + form.scaled(c)
        assert combine(coeffs, basis) == want
        assert combine([field.scalar(c) for c in coeffs], basis) == want

    def test_forms_over_an_extension_field_are_rejected(self):
        f4 = build_field(2, 2)
        with pytest.raises(ValueError, match="prime fields"):
            TernaryForm(f4, [0] * 10)
        with pytest.raises(ValueError, match="prime fields"):
            parse_form("2*x^3 + y^3", f4)
        with pytest.raises(ValueError, match="prime fields"):
            TernaryForm(f4, [f4.scalar(2)] + [0] * 9)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(-100, 100), min_size=10, max_size=10))
    def test_coefficients_are_int_residues_whatever_the_input(self, p, ints):
        field = build_field(p)
        residues = tuple(c % p for c in ints)
        from_ints = TernaryForm(field, ints)
        from_scalars = TernaryForm(field, [field.scalar(c) for c in ints])
        round_trip = parse_form(render_form(from_ints), field)
        for form in (from_ints, from_scalars, round_trip):
            assert form.coeffs == residues
            assert all(type(c) is int and 0 <= c < p for c in form.coeffs)
        assert from_ints == from_scalars == round_trip
        assert hash(from_ints) == hash(round_trip)

    def test_scalar_of_another_field_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            TernaryForm(build_field(2), [build_field(3).one()] + [0] * 9)

    def test_combine_rejects_mixed_fields(self):
        f2, f3 = build_field(2), build_field(3)
        with pytest.raises(ValueError):
            combine((1, 1), [parse_form("x^3", f2), parse_form("y^3", f3)])
        with pytest.raises(ValueError):
            combine((f3.one(),), [parse_form("x^3", f2)])

    def test_scaled(self):
        field = build_field(3)
        f = parse_form("x^3 + 2*y^3", field)
        assert f.scaled(field.scalar(2)) == parse_form("2*x^3 + y^3", field)

    def test_zero_and_equality(self):
        field = build_field(2)
        assert TernaryForm(field, [field.zero()] * 10).is_zero()
        assert parse_form("x^3 + y^3", field) == parse_form("y^3 + x^3", field)

    def test_parse_rejects_duplicate_monomials(self):
        with pytest.raises(ValueError, match="twice"):
            parse_form("x^3 + x^3", build_field(2))


class TestCommonFactors:
    def test_known_shared_linear_factor(self):
        field = build_field(2)
        f = parse_form("x^3 + x*y*z", field)      # x * (x^2 + y*z)
        g = parse_form("x*y^2 + x^2*z", field)    # x * (y^2 + x*z)
        assert has_common_factor(f, g)

    def test_known_shared_factor_from_sum_of_cubes(self):
        field = build_field(2)
        f = parse_form("x^3 + y^3", field)        # (x + y)(x^2 + x*y + y^2) over GF(2)
        g = parse_form("x*z^2 + y*z^2", field)    # (x + y) * z^2
        assert has_common_factor(f, g)

    def test_known_coprime_pairs(self):
        field = build_field(2)
        assert not has_common_factor(parse_form("x^3", field), parse_form("y^3", field))
        assert not has_common_factor(parse_form("x^3 + y^3", field), parse_form("z^3", field))

    def test_gcd_is_symmetric(self):
        field = build_field(3)
        f = parse_form("x^3 + 2*x*y*z", field)
        g = parse_form("x^2*y + x*z^2", field)
        assert has_common_factor(f, g) == has_common_factor(g, f)

    def test_proportional_forms_share_a_factor(self):
        field = build_field(5)
        f = parse_form("x^3 + y^2*z + 3*z^3", field)
        assert has_common_factor(f, f.scaled(field.scalar(4)))

    def test_common_factor_all(self):
        field = build_field(2)
        triple = [parse_form(t, field) for t in ("x^3", "x^2*y", "x*z^2")]
        assert common_factor_all(triple)
        triple = [parse_form(t, field) for t in ("x^3", "y^3", "z^3")]
        assert not common_factor_all(triple)

    def test_zero_form_rejected(self):
        field = build_field(2)
        zero = TernaryForm(field, [field.zero()] * 10)
        with pytest.raises(ValueError):
            has_common_factor(zero, parse_form("x^3", field))


def monomials_of(degree):
    return [(i, j, degree - i - j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)]


def nonzero_poly(p, degree):
    """A nonzero form of the given degree as an {exponent: coefficient} dict."""
    n = len(monomials_of(degree))
    coeffs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(any)
    return coeffs.map(lambda cs: dict(zip(monomials_of(degree), cs)))


def multiply(p, *polys):
    out = {(0, 0, 0): 1}
    for poly in polys:
        prod = {}
        for (a, b, c), u in out.items():
            for (i, j, k), v in poly.items():
                e = (a + i, b + j, c + k)
                prod[e] = (prod.get(e, 0) + u * v) % p
        out = prod
    return out


def cubic(p, poly):
    assert all(sum(e) == 3 for e in poly)
    return TernaryForm(build_field(p), [poly.get(e, 0) for e in MONOMIALS])


def line_key(p, line):
    """A line's coefficients scaled so the first nonzero one is 1."""
    inv = pow(next(c for c in line if c), p - 2, p)
    return tuple(c * inv % p for c in line)


def lines(p):
    return st.tuples(*[st.integers(0, p - 1)] * 3).filter(any).map(lambda l: line_key(p, l))


def split_cubic(p, factors):
    return cubic(p, multiply(p, *({e: c for e, c in zip(monomials_of(1), l) if c} for l in factors)))


class TestCommonFactorProperties:
    # the verdicts are checked against forms whose factors are known by construction

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
    def test_multiples_of_one_form_share_it(self, p, e, data):
        h = data.draw(nonzero_poly(p, e))
        a, b, c = (data.draw(nonzero_poly(p, 3 - e)) for _ in range(3))
        f, g, k = (cubic(p, multiply(p, h, w)) for w in (a, b, c))
        assert has_common_factor(f, g)
        assert common_factor_all([f, g, k])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    def test_products_of_lines_share_a_factor_iff_they_share_a_line(self, p, data):
        # f = h*a and g = h*b with h a product of 1..3 lines, so a third
        # form is also tested against a gcd of degree 1..3
        shared = data.draw(st.lists(lines(p), min_size=1, max_size=3))
        f_lines = shared + data.draw(st.lists(lines(p), min_size=3 - len(shared), max_size=3 - len(shared)))
        g_lines = shared + data.draw(st.lists(lines(p), min_size=3 - len(shared), max_size=3 - len(shared)))
        k_lines = data.draw(st.lists(lines(p), min_size=3, max_size=3))
        if data.draw(st.booleans()):
            k_lines[0] = data.draw(st.sampled_from(f_lines))
        f, g, k = (split_cubic(p, ls) for ls in (f_lines, g_lines, k_lines))
        assert has_common_factor(f, k) == bool(set(f_lines) & set(k_lines))
        assert has_common_factor(g, k) == bool(set(g_lines) & set(k_lines))
        assert common_factor_all([f, g, k]) == bool(set(f_lines) & set(g_lines) & set(k_lines))
        assert common_factor_all([k, f]) == bool(set(f_lines) & set(k_lines))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 3), st.data())
    def test_verdict_is_symmetric_and_scale_invariant(self, p, e, data):
        # e = 0 draws unrelated cubics, e >= 1 cubics with a shared factor of degree e
        h = data.draw(nonzero_poly(p, e))
        f, g = (cubic(p, multiply(p, h, data.draw(nonzero_poly(p, 3 - e)))) for _ in range(2))
        c, d = data.draw(st.integers(1, p - 1)), data.draw(st.integers(1, p - 1))
        verdict = has_common_factor(f, g)
        assert has_common_factor(g, f) == verdict
        assert has_common_factor(f.scaled(c), g.scaled(d)) == verdict
        assert common_factor_all([g.scaled(d), f]) == verdict
        if e:
            assert verdict

    def test_extension_fields_rejected(self):
        # no form over GF(4) can be built, so none reaches the rank tests
        f4 = build_field(2, 2)
        with pytest.raises(ValueError, match="prime fields"):
            parse_form("x^3 + y^3", f4)
        with pytest.raises(ValueError, match="prime fields"):
            TernaryForm(f4, [0, 2] + [0] * 8)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            has_common_factor(parse_form("x^3", build_field(2)), parse_form("x^3", build_field(3)))


def sylvester_rows(p, f, g):
    """The rows mu*f and mu*g, mu over the quadric monomials, over the quintic monomials."""
    quintics = monomials_of(5)
    rows = []
    for form in (f, g):
        poly = dict(zip(MONOMIALS, form.coeffs))
        for mu in monomials_of(2):
            product = multiply(p, {mu: 1}, poly)
            rows.append([product.get(e, 0) for e in quintics])
    return rows


def reference_shares_factor(f, g):
    """The rank criterion: the 12 Sylvester rows are dependent, by the single-pass reduction."""
    p = f.field.p
    return len(reference_rref(p, sylvester_rows(p, f, g))[0]) < 12


class TestSystemPencilDecisions:
    # every pencil of the GF(2) fixtures and of the GF(3) vanishing systems
    # against the rank criterion, with the number that share a factor pinned

    SYSTEMS = pytest.mark.parametrize("p, case, pencils, sharing", [
        (2, FIVE_POINT, 155, 36),
        (2, SIX_POINT, 35, 6),
        (3, FIVE_POINT, 1210, 202),
        (3, SIX_POINT, 130, 39),
    ])

    @staticmethod
    def system(p, case):
        """The GF(2) fixture, or the GF(3) system of cubics through the reference points."""
        field = build_field(p)
        if p == 2:
            return reference_system(case, field)
        return vanishing_cubics(reference_points(case), field)

    @SYSTEMS
    def test_has_common_factor_agrees_with_the_rank_criterion(self, p, case, pencils, sharing):
        basis = self.system(p, case).basis
        verdicts = []
        for rows in iter_subspaces(p, len(basis), 2):
            f, g = (combine(row, basis) for row in rows)
            verdict = has_common_factor(f, g)
            assert verdict == reference_shares_factor(f, g), rows
            verdicts.append(verdict)
        assert (len(verdicts), sum(verdicts)) == (pencils, sharing)

    @SYSTEMS
    def test_stacked_decisions_agree_with_has_common_factor(self, monkeypatch, p, case,
                                                            pencils, sharing):
        system = self.system(p, case)
        keys = list(iter_subspaces(p, system.dim, 2))
        expected = [has_common_factor(*(combine(row, system.basis) for row in rows)) for rows in keys]
        pairs = [[combine(row, system.basis).coeffs for row in rows] for rows in keys]
        assert pairs_share_factor(p, pairs).tolist() == expected
        memo = SystemPencils(system)
        memo.decide(keys)
        assert [memo.shares_factor(key) for key in keys] == expected
        assert (len(expected), sum(expected), memo.counters()["system_pencils"]) == (
            pencils, sharing, pencils)
        # blocks of 7 pencils, the last one short, give the verdicts of one block
        blocks = []

        def counted(p, pairs):
            blocks.append(len(pairs))
            return pairs_share_factor(p, pairs)

        monkeypatch.setattr(linsys, "_DECIDE_BLOCK", 7)
        monkeypatch.setattr(linsys, "pairs_share_factor", counted)
        blocked = SystemPencils(system)
        blocked.decide(iter_subspaces(p, system.dim, 2))
        assert [blocked.shares_factor(key) for key in keys] == expected
        assert (len(blocks), sum(blocks), max(blocks)) == ((pencils + 6) // 7, pencils, 7)


def pairwise_verdict(net, a, b):
    """The Sylvester test on the pencil's two forms; a zero form counts as a shared factor."""
    f, g = combine(a, net), combine(b, net)
    return f.is_zero() or g.is_zero() or has_common_factor(f, g)


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def assert_memo_verdicts_match(pencils, keys, net):
    """The memo's verdict on each pencil's key against the pairwise test on every pencil of a net; the verdicts."""
    p = net[0].field.p
    verdicts = []
    for a, b in pencil_subspaces(p):
        expected = pairwise_verdict(net, a, b)
        assert pencils.shares_factor(keys[a, b]) == expected, (a, b)
        verdicts.append(expected)
    return verdicts


def net_pencils(net):
    """A SystemPencils of the system whose basis is the net, and the decided pencil keys of its identity vectors."""
    pencils = SystemPencils(CubicSystem(net[0].field, net, "custom"))
    keys = _plane_keys(net[0].field.p, IDENTITY)
    pencils.decide(keys.values())
    return pencils, keys


@st.composite
def nets(draw, p):
    """(kind, three nonzero cubics over GF(p)), mixed by a random invertible matrix.

    Before mixing, "line" and "quadric" nets have two forms sharing a
    factor of that degree, and "dependent" nets a third form in the span
    of the first two.
    """
    kind = draw(st.sampled_from(["random", "line", "quadric", "dependent"]))
    if kind == "random":
        g = [draw(nonzero_poly(p, 3)) for _ in range(3)]
    elif kind in ("line", "quadric"):
        e = 1 if kind == "line" else 2
        h = draw(nonzero_poly(p, e))
        g = [multiply(p, h, draw(nonzero_poly(p, 3 - e))) for _ in range(2)]
        g.append(draw(nonzero_poly(p, 3)))
    else:
        g = [draw(nonzero_poly(p, 3)) for _ in range(2)]
        c0, c1 = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        g.append({e: (c0 * g[0].get(e, 0) + c1 * g[1].get(e, 0)) % p for e in monomials_of(3)})
    basis = [cubic(p, poly) for poly in g]
    entries = st.integers(0, p - 1)
    m = draw(st.lists(st.tuples(entries, entries, entries), min_size=3, max_size=3)
             .filter(lambda rows: len(gf_rref(p, rows)[0]) == 3))
    return kind, [combine(row, basis) for row in m]


class TestQuadricSyzygies:
    # a pencil shares a factor iff its two forms have a quadric syzygy: the
    # memo decides it once per system pencil, checked here pencil by pencil
    # against the pairwise Sylvester test on the pencil's two combined forms

    def test_every_pencil_of_every_admissible_gf2_plane(self):
        f2 = build_field(2)
        pencils_seen = planes = 0
        verdicts = set()
        for case in (FIVE_POINT, SIX_POINT):
            system = reference_system(case, f2)
            pencils = SystemPencils(system)
            for rows in iter_subspaces(2, system.dim, 3):
                plane = make_plane(system, *rows, pencils=pencils)
                if plane is None:
                    continue
                planes += 1
                found = assert_memo_verdicts_match(pencils, plane.keys, plane.forms)
                pencils_seen += len(found)
                verdicts.update(found)
                # the annihilator pencil of a target t has normal t
                for target in enumerate_p2(f2):
                    a, b = gf_left_kernel(2, [[c] for c in target.encode()])
                    key = plane.key(a, b)
                    assert pencils.shares_factor(key) == pairwise_verdict(plane.forms, a, b)
        assert (planes, pencils_seen) == (165, 1155)
        assert verdicts == {False, True}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5]).flatmap(nets))
    def test_sampled_nets_over_gf3_and_gf5(self, kind_net):
        kind, net = kind_net
        assume(not any(f.is_zero() for f in net))
        verdicts = assert_memo_verdicts_match(*net_pencils(net), net)
        if kind != "random":
            assert any(verdicts)

    def test_net_sharing_a_line_in_two_mixed_forms(self):
        # g0 = x*y^2 and g1 = x*z^2 share x; in the mixed net f = (g0 + g2, g1 + 2*g2, g2)
        # their pencil is spanned by f0 - f2 and f1 - 2*f2
        field = build_field(5)
        g = [parse_form(t, field) for t in ("x*y^2", "x*z^2", "y^3 + z^3 + x^2*y")]
        mixed = [combine(row, g) for row in ((1, 0, 1), (0, 1, 2), (0, 0, 1))]
        pencils, keys = net_pencils(mixed)
        verdicts = assert_memo_verdicts_match(pencils, keys, mixed)
        assert verdicts.count(True) == 1
        plane = make_plane(pencils.system, *IDENTITY, pencils=pencils)
        assert plane.keys == keys
        assert pencils.shares_factor(plane.key((1, 0, 4), (0, 1, 3)))
        assert not pencils.shares_factor(plane.key((1, 0, 0), (0, 1, 0)))


class TestRationalPoly:
    def test_expansion_binomial_cube(self):
        cube = (X + Y) ** 3
        want = X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3
        assert cube == want

    def test_substitute_expands_exactly(self):
        poly = X**2 * Y + Y**2
        sub = poly.substitute("y", A * X - X**2)
        want = X**2 * (A * X - X**2) + (A * X - X**2) ** 2
        assert sub == want

    def test_divide_exact(self):
        poly = X**3 + 2 * X**2 + X
        quotient = poly.divide_exact(X)
        assert quotient == X**2 + 2 * X + 1
        with pytest.raises(ValueError, match="not exact"):
            (X**2 + 1).divide_exact(X)

    def test_evaluate_exact_fractions(self):
        poly = X**2 + Fraction(1, 2) * X + 1
        assert poly.evaluate({"x": Fraction(1, 2)}) == Fraction(3, 2)

    def test_evaluate_complex(self):
        poly = X**2 + 1
        assert abs(poly.evaluate({"x": 1j})) == 0

    def test_evaluate_missing_variable(self):
        with pytest.raises(ValueError):
            (X + Y).evaluate({"x": 1})

    def test_univariate_coeffs(self):
        poly = X**2 * A + X * B + 1 - X**2
        coeffs = poly.univariate_coeffs("x")
        assert coeffs[2] == A - 1
        assert coeffs[1] == B + RationalPoly.zero()
        assert coeffs[0] == RationalPoly.const(1)

    def test_degrees(self):
        poly = X**2 * Y + Z
        assert poly.degree("x") == 2
        assert poly.total_degree() == 3

    def test_univariate_gcd(self):
        f = X**2 - 1
        g = X**3 - 1
        assert univariate_gcd(f, g, "x") == X - 1
        assert univariate_gcd(X**2 + 1, X + 2, "x") == RationalPoly.const(1)

    def test_gcd_requires_univariate_input(self):
        with pytest.raises(ValueError, match="univariate"):
            univariate_gcd((X - A) * (X + 1), (X - A) * (X + 2), "x")

    def test_gcd_in_a_parameter_variable(self):
        f = 2 - 2 * A
        g = A**2 - 4 * A
        assert univariate_gcd(f, g, "a") == RationalPoly.const(1)
        assert univariate_gcd(A**2 - 1, A**2 + 2 * A + 1, "a") == A + 1
