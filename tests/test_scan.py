import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicmaps import _scan
from cubicmaps.finitefield import ProjPoint, build_field, enumerate_p2
from cubicmaps.forms import MONOMIALS, TernaryForm, evaluate

# (p, k) up to GF(2^9), GF(3^5), GF(5^3) and GF(7^2): both sides of the
# uint8/uint16 boundary at q = 256/512 and the digit-wise addition for p > 2
FIELDS = (
    [(2, k) for k in range(1, 10)]
    + [(3, k) for k in range(1, 6)]
    + [(5, k) for k in range(1, 4)]
    + [(7, 1), (7, 2)]
)


@st.composite
def field_elements(draw):
    p, k = draw(st.sampled_from(FIELDS))
    q = p**k
    elems = st.lists(st.integers(0, q - 1), min_size=1, max_size=16)
    return p, k, draw(elems), draw(elems)


class TestTablesAgainstScalars:
    @settings(max_examples=150, deadline=None)
    @given(field_elements())
    def test_mul_add_inv(self, case):
        p, k, xs, ys = case
        field = build_field(p, k)
        t = _scan.tables(field)
        n = min(len(xs), len(ys))
        a = np.array(xs[:n], dtype=t.dtype)
        b = np.array(ys[:n], dtype=t.dtype)
        sa = [field.scalar(x) for x in xs[:n]]
        sb = [field.scalar(y) for y in ys[:n]]
        prod = t.mul(a, b)
        total = t.add(a, b)
        assert prod.dtype == total.dtype == t.dtype
        assert prod.tolist() == [(x * y).encode() for x, y in zip(sa, sb)]
        assert total.tolist() == [(x + y).encode() for x, y in zip(sa, sb)]
        nonzero = [x for x in sa if not x.is_zero()]
        if nonzero:
            got = t.inv(np.array([x.encode() for x in nonzero], dtype=t.dtype))
            assert got.tolist() == [x.inverse().encode() for x in nonzero]

    @settings(max_examples=50, deadline=None)
    @given(field_elements(), st.data())
    def test_mul_const(self, case, data):
        p, k, xs, _ = case
        field = build_field(p, k)
        t = _scan.tables(field)
        c = data.draw(st.integers(0, field.order - 1))
        got = t.mul_const(np.array(xs, dtype=t.dtype), c)
        assert got.tolist() == [(field.scalar(x) * field.scalar(c)).encode() for x in xs]


class TestNarrowEncodings:
    @pytest.mark.parametrize("k, dtype", [(8, np.uint8), (9, np.uint16)])
    def test_cached_dtypes(self, k, dtype):
        field = build_field(2, k)
        t = _scan.tables(field)
        assert t.dtype == dtype
        for table in (t.exp, t.expx, t.inv_table):
            assert table.dtype == dtype
        # log[a] + log[b] indexes expx beyond q, so log stays wide
        assert t.log.dtype == np.int64
        x, y, z, monos = _scan._cached_chunks(field)
        for arr in (x, y, z, *monos):
            assert arr.dtype == dtype

    @pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 1)])
    def test_chunks_cover_p2_in_scan_order(self, p, k):
        field = build_field(p, k)
        q = field.order
        chunks = list(_scan.iter_point_chunks(field, chunk=q))
        assert all(x.dtype == np.min_scalar_type(q - 1) for x, _, _ in chunks)
        points = [pt for x, y, z in chunks for pt in zip(x.tolist(), y.tolist(), z.tolist())]
        affine = [(x, y, 1) for x in range(q) for y in range(q)]
        assert points == affine + [(x, 1, 0) for x in range(q)] + [(1, 0, 0)]


class TestPowerTable:
    @pytest.mark.parametrize("p, k", FIELDS)
    def test_matches_scalar_pow(self, p, k):
        field = build_field(p, k)
        t = _scan.tables(field)
        a = np.arange(field.order, dtype=t.dtype)
        got = t.pow_p1(a)
        assert got.dtype == t.dtype
        if p == 2:
            # the (p-1)-th power is the identity: no table, no copy
            assert got is a
        else:
            assert t.pow_table.dtype == t.dtype
        assert got.tolist() == [(field.scalar(x) ** (p - 1)).encode() for x in range(field.order)]


# levels small enough for the point-by-point Scalar reference (at most 1057 points)
COVER_FIELDS = (
    [(2, k) for k in range(1, 6)]
    + [(3, k) for k in range(1, 4)]
    + [(5, 1), (5, 2), (7, 1), (13, 1)]
)
_QUADRICS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _line_times_quadric(field, line, quad):
    coeffs = dict.fromkeys(MONOMIALS, 0)
    for a, (i, j, k) in zip(line, _LINES):
        for b, (u, v, w) in zip(quad, _QUADRICS):
            coeffs[(i + u, j + v, k + w)] += a * b
    return TernaryForm(field, [coeffs[m] for m in MONOMIALS])


@st.composite
def cubic_triples(draw):
    """(p, k, forms): zero forms, sparse forms with common zeros at the
    coordinate points, and triples sharing a line of base points."""
    p, k = draw(st.sampled_from(COVER_FIELDS))
    base = build_field(p)
    coeff = st.one_of(st.just(0), st.integers(0, p - 1))
    if draw(st.booleans()):
        line = draw(st.lists(coeff, min_size=3, max_size=3))
        quads = [draw(st.lists(coeff, min_size=6, max_size=6)) for _ in range(3)]
        forms3 = [_line_times_quadric(base, line, q) for q in quads]
    else:
        zero = st.just([0] * 10)
        dense = st.lists(coeff, min_size=10, max_size=10)
        forms3 = [TernaryForm(base, draw(st.one_of(zero, dense))) for _ in range(3)]
    return p, k, forms3


def _reference_covered(forms3, ext):
    """Rational images of the non-base points, one Scalar point at a time."""
    out = set()
    for pt in enumerate_p2(ext):
        image = [evaluate(f, pt) for f in forms3]
        if all(v.is_zero() for v in image):
            continue
        target = ProjPoint(ext, image)
        if all(c.frobenius() == c for c in target.coords):
            out.add(target.encode())
    return out


class TestCoveredTargets:
    @settings(max_examples=40, deadline=None)
    @given(cubic_triples())
    # an image with f1 = f2 = 0, one with f2 = 0 and base points at GF(3^2)
    @example((3, 2, [TernaryForm(build_field(3), [1, 0, 2, 0, 1, 0, 0, 0, 0, 0]),
                     TernaryForm(build_field(3), [0, 1, 0, 2, 0, 0, 0, 0, 1, 0]),
                     TernaryForm(build_field(3), [0] * 10)]))
    # a dense GF(5) triple whose rational images have coordinates other than 0 and lambda
    @example((5, 1, [TernaryForm(build_field(5), [1, 2, 3, 4, 0, 1, 2, 3, 4, 1]),
                     TernaryForm(build_field(5), [0, 4, 1, 1, 2, 3, 0, 2, 1, 3]),
                     TernaryForm(build_field(5), [2, 0, 0, 1, 4, 4, 3, 0, 1, 2])]))
    def test_matches_pointwise_reference(self, case):
        p, k, forms3 = case
        ext = build_field(p, k)
        got = _scan.covered_target_encodings(forms3, ext)
        assert got == _reference_covered(forms3, ext)
        assert all(type(v) is int and 0 <= v < p for enc in got for v in enc)
