import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicmaps.finitefield import (
    MAX_EXTENSION_DEGREE,
    ProjPoint,
    Scalar,
    build_field,
    canonical_modulus,
    enumerate_p2,
    gf_left_kernel,
    gf_rank,
    gf_ranks,
    gf_rref,
    minimal_degree,
)


class TestCanonicalModulus:
    def test_frozen_small_moduli(self):
        # encoding sum(c_i * p^i) of the chosen monic irreducible, low degree first
        assert canonical_modulus(2, 2) == (1, 1, 1)      # x^2 + x + 1
        assert canonical_modulus(2, 3) == (1, 1, 0, 1)   # x^3 + x + 1
        assert canonical_modulus(3, 2) == (1, 0, 1)      # x^2 + 1
        assert canonical_modulus(5, 2) == (2, 0, 1)      # x^2 + 2

    def test_minimality_brute_force(self):
        # every monic quadratic/cubic with a smaller encoding has a root,
        # hence is reducible; root search is an independent oracle here
        for p, k in ((2, 2), (2, 3), (3, 2), (5, 2)):
            chosen = canonical_modulus(p, k)
            chosen_enc = sum(c * p**i for i, c in enumerate(chosen))
            for enc in range(p**k, chosen_enc):
                coeffs = []
                rest = enc
                for _ in range(k):
                    coeffs.append(rest % p)
                    rest //= p
                if rest != 1:
                    continue
                coeffs.append(1)
                has_root = any(
                    sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0
                    for a in range(p)
                )
                assert has_root, (p, k, coeffs)

    def test_modulus_gives_a_field(self):
        # a reducible modulus would create zero divisors; every nonzero
        # element having a working inverse rules that out
        for p, k in ((2, 6), (3, 6), (2, 9)):
            field = build_field(p, k)
            probe = [field.scalar(e) for e in (1, 2, 3, p, p + 1, p**k - 1, p**2 + 1)]
            for s in probe:
                if s.is_zero():
                    continue
                assert (s * s.inverse()).encode() == 1


class TestScalarArithmetic:
    def test_field_axioms_exhaustive_gf8(self):
        field = build_field(2, 3)
        elems = list(field.elements())
        assert len(elems) == 8
        assert sorted(s.encode() for s in elems) == list(range(8))
        for a in elems:
            for b in elems:
                assert (a + b).encode() == (b + a).encode()
                assert (a * b).encode() == (b * a).encode()
                for c in elems[:4]:
                    assert ((a + b) + c).encode() == (a + (b + c)).encode()
                    assert (a * (b + c)).encode() == (a * b + a * c).encode()

    def test_inverses_exhaustive(self):
        for p, k in ((2, 3), (3, 2)):
            field = build_field(p, k)
            one = field.one()
            for s in field.elements():
                if s.is_zero():
                    continue
                assert (s * s.inverse()).encode() == one.encode()

    def test_subtraction_and_negation(self):
        field = build_field(3, 2)
        for a in field.elements():
            assert (a - a).is_zero()
            assert (a + (-a)).is_zero()

    def test_frobenius_is_additive_and_multiplicative(self):
        field = build_field(2, 6)
        samples = [field.scalar(e) for e in (1, 5, 17, 39, 52, 63)]
        for a in samples:
            for b in samples:
                assert (a + b).frobenius().encode() == (a.frobenius() + b.frobenius()).encode()
                assert (a * b).frobenius().encode() == (a.frobenius() * b.frobenius()).encode()

    def test_frobenius_fixed_points_are_prime_subfield(self):
        field = build_field(3, 3)
        fixed = [s for s in field.elements() if s.frobenius().encode() == s.encode()]
        assert sorted(s.encode() for s in fixed) == [0, 1, 2]

    def test_frobenius_has_order_k(self):
        field = build_field(2, 6)
        s = field.scalar(2)  # the generator x of the extension
        powers = [s]
        for _ in range(6):
            powers.append(powers[-1].frobenius())
        assert powers[6].encode() == s.encode()
        assert all(powers[d].encode() != s.encode() for d in range(1, 6))


class TestFieldConstruction:
    def test_build_field_is_cached(self):
        assert build_field(2, 3) is build_field(2, 3)

    def test_p_must_be_prime(self):
        with pytest.raises(ValueError, match="prime"):
            build_field(4)
        with pytest.raises(ValueError, match="prime"):
            build_field(1)

    def test_extension_degree_bounds(self):
        with pytest.raises(ValueError):
            build_field(2, 0)
        with pytest.raises(ValueError):
            build_field(2, MAX_EXTENSION_DEGREE + 1)

    def test_order(self):
        assert build_field(3, 4).order == 81


class TestProjPoint:
    def test_normalization_last_nonzero_coordinate_is_one(self):
        field = build_field(5)
        pt = ProjPoint(field, (2, 3, 0))
        assert [c.encode() for c in pt.coords] == [4, 1, 0]  # 2/3 = 4 mod 5

    def test_zero_triple_rejected(self):
        field = build_field(2)
        with pytest.raises(ValueError):
            ProjPoint(field, (0, 0, 0))

    def test_equal_points_equal_encodings(self):
        field = build_field(7)
        a = ProjPoint(field, (2, 4, 6))
        b = ProjPoint(field, (1, 2, 3))
        assert a.encode() == b.encode()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(p, k) for p in (2, 3, 5) for k in (1, 2, 3)]), st.data())
    def test_normalized_and_scaled_coordinates_give_one_point(self, level, data):
        field = build_field(*level)
        q = field.order
        coords = data.draw(st.tuples(*[st.integers(0, q - 1)] * 3).filter(any))
        scale = field.scalar(data.draw(st.integers(1, q - 1)))
        point = ProjPoint(field, coords)
        scaled = ProjPoint(field, [field.scalar(c) * scale for c in coords])
        renormalized = ProjPoint(field, point.coords)
        assert next(c for c in reversed(point.coords) if not c.is_zero()) == field.one()
        assert point == scaled == renormalized
        assert hash(point) == hash(scaled) == hash(renormalized)

    def test_a_pivot_of_one_is_not_inverted(self, monkeypatch):
        def refused(self):
            raise AssertionError("inverted a pivot of 1")

        monkeypatch.setattr(Scalar, "inverse", refused)
        field = build_field(2, 9)
        for coords in ((300, 17, 1), (5, 1, 0), (1, 0, 0)):
            assert ProjPoint(field, coords).encode() == coords

    def test_enumerate_p2_counts(self):
        for p, k in ((2, 1), (3, 1), (2, 2), (5, 1)):
            field = build_field(p, k)
            q = field.order
            points = list(enumerate_p2(field))
            assert len(points) == q * q + q + 1
            encodings = [pt.encode() for pt in points]
            assert len(set(encodings)) == len(encodings)
            assert encodings == sorted(encodings)

    def test_minimal_degree(self):
        big = build_field(2, 6)
        rational = ProjPoint(big, (1, 0, 1))
        assert minimal_degree(rational) == 1
        # x generates GF(64) over GF(2); its minimal degree divides 6 and
        # exceeds 2, so the point needs the full degree-6 level or degree 3
        gen = ProjPoint(big, (2, 1, 0))
        assert minimal_degree(gen) == 6

    def test_minimal_degree_divides_extension(self):
        field = build_field(2, 6)
        for enc in (11, 23, 40, 57):
            pt = ProjPoint(field, (enc, 1, 1))
            assert 6 % minimal_degree(pt) == 0


def tagged_left_kernel(p, rows):
    """Left kernel by one gf_rref of [rows | I]: the tails of the rows that reduce to 0 on the left."""
    width = len(rows[0])
    n = len(rows)
    tagged = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = gf_rref(p, tagged)
    return [row[width:] for row, c in zip(reduced, pivots) if c >= width]


@st.composite
def matrices(draw):
    """(p, rows): an n x m matrix over GF(p) of rank at most r, as a product n x r by r x m."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    r = draw(st.integers(0, min(n, m)))
    entries = st.integers(0, p - 1)
    a = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r))
    return p, [[sum(a[i][k] * b[k][j] for k in range(r)) % p for j in range(m)] for i in range(n)]


def is_rref(p, rows):
    pivots = []
    for row in rows:
        nonzero = [j for j, c in enumerate(row) if c]
        if not nonzero or row[nonzero[0]] != 1:
            return False
        pivots.append(nonzero[0])
    return (
        pivots == sorted(set(pivots))
        and all(0 <= c < p for row in rows for c in row)
        and all(other[c] == 0 for c, row in zip(pivots, rows) for other in rows if other is not row)
    )


class TestLeftKernel:
    def check(self, p, rows):
        kernel = gf_left_kernel(p, rows)
        for k in kernel:
            assert len(k) == len(rows)
            assert all(sum(c * row[j] for c, row in zip(k, rows)) % p == 0 for j in range(len(rows[0])))
        assert is_rref(p, kernel)
        assert len(kernel) == len(rows) - len(gf_rref(p, rows)[0])
        assert kernel == tagged_left_kernel(p, rows)
        return kernel

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_basis_annihilates_is_rref_and_matches_the_tagged_reduction(self, pm):
        self.check(*pm)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_all_zero_matrix_has_the_identity_basis(self, p):
        kernel = self.check(p, [[0] * 4 for _ in range(3)])
        assert kernel == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_full_row_rank_has_an_empty_kernel(self, p):
        rows = [[1, 0, 0, 1], [0, 1, 0, p - 1], [1, 1, 1, 0]]
        assert self.check(p, rows) == []

    def test_known_dependency(self):
        # over GF(5): 2*r0 + r1 - r2 = 0, scaled to a leading 1 by 3
        rows = [[1, 2, 3], [0, 1, 4], [2, 0, 0]]
        assert self.check(5, rows) == [(1, 3, 2)]


def reference_rref(p, rows):
    """gf_rref as a single pass that clears every other row at each pivot, kept verbatim as the reference."""
    rows = [[c % p for c in row] for row in rows]
    pivots = []
    n = len(rows)
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        if top[c] != 1:
            inv = pow(top[c], p - 2, p)
            top = rows[r] = [inv * x % p for x in top]
        # left of column c the pivot row is zero, so only the tail changes
        tail = top[c:]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                row = rows[i]
                rows[i] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return tuple(tuple(row) for row in rows[:r]), pivots


@st.composite
def integer_rows(draw):
    """(p, rows): 0..12 rows of one width 1..8, entries any ints, some rows repeated or scaled."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    width = draw(st.integers(1, 8))
    row = st.lists(st.integers(-3 * p, 3 * p), min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=12))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        source = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), [draw(st.integers(-p, p)) * c for c in source])
    return p, rows


class TestRowReduction:
    # gf_rref is forward elimination then back-substitution, gf_rank the
    # forward pass alone; both against the single-pass reduction they replaced

    def check(self, p, rows):
        expected = reference_rref(p, rows)
        assert gf_rref(p, rows) == expected
        assert gf_rank(p, rows) == len(expected[0])
        assert is_rref(p, expected[0])

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(integer_rows(), matrices()))
    def test_matches_the_single_pass_reduction(self, pr):
        self.check(*pr)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_edge_inputs(self, p):
        assert gf_rref(p, []) == ((), []) and gf_rank(p, []) == 0
        for rows in (
            [[0, 0, 0], [0, 0, 0]],                     # zero rows
            [[1, 1, 0], [1, 1, 0], [0, 1, 1]],          # a duplicate row
            [[1, 1], [1, 1]],                           # rank 2 if the row below a pivot is skipped
            [[-1, p, 2 * p + 1], [p - 1, -p - 1, 0]],   # entries negative and >= p
            [[1, 0], [0, 1], [1, 1], [2, 3], [0, 0]],   # more rows than columns
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],          # every pivot needs a swap
        ):
            self.check(p, rows)

    def test_known_ranks(self):
        assert gf_rank(2, [[1, 1], [1, 1]]) == 1
        assert gf_rank(3, [[1, 2, 0], [2, 1, 0], [0, 0, 3]]) == 1
        assert gf_rank(5, [[1, 0], [0, 1], [1, 1]]) == 2


@st.composite
def stacks(draw):
    """(p, stack): 0..4 dense R x C matrices over GF(p), each a product R x k by k x C.

    With k below R the product plants R - k rows that depend on the others;
    k = 0 gives a zero matrix.  Rows run up to 20, so an elimination whose
    entries grow unreduced overflows even int64 at the larger primes.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 251]))
    b, r, c = draw(st.integers(0, 4)), draw(st.integers(1, 20)), draw(st.integers(1, 12))
    entries = st.integers(0, p - 1)
    stack = []
    for _ in range(b):
        k = draw(st.integers(0, min(r, c)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
        right = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
        stack.append([[sum(x * y for x, y in zip(row, column)) % p for column in zip(*right)]
                      if k else [0] * c for row in left])
    return p, np.array(stack, dtype=np.int64).reshape(b, r, c)


class TestStackedRanks:
    # gf_ranks decides a stack in one elimination; gf_rank, one matrix at a
    # time, is the reference

    @settings(max_examples=400, deadline=None)
    @given(stacks())
    @example((5, np.zeros((0, 3, 4), dtype=np.int64)))
    @example((7, np.zeros((2, 6, 3), dtype=np.int64)))
    def test_matches_gf_rank_matrix_by_matrix(self, pstack):
        p, stack = pstack
        ranks = gf_ranks(p, stack)
        assert ranks.shape == (len(stack),)
        assert ranks.tolist() == [gf_rank(p, m.tolist()) for m in stack]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 251])
    def test_edge_stacks(self, p):
        stack = [
            [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],                 # a zero matrix
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],                 # more rows than columns
            [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 0]],                 # leads in reverse order
            [[-1, p, 2 * p + 1], [p - 1, -p - 1, 0], [2, p, 1], [0, 0, p]],   # entries outside 0..p-1
        ]
        assert gf_ranks(p, stack).tolist() == [gf_rank(p, m) for m in stack]
        assert gf_ranks(p, np.zeros((0, 12, 21), dtype=np.int64)).tolist() == []
        assert gf_ranks(p, np.zeros((3, 0, 4), dtype=np.int64)).tolist() == [0, 0, 0]

    def test_rejects_what_it_cannot_reduce_exactly(self):
        with pytest.raises(ValueError, match="below 2"):
            gf_ranks((1 << 31) + 11, [[[1]]])
        with pytest.raises(ValueError, match="stack"):
            gf_ranks(5, [[1, 2], [3, 4]])
