import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmaps import _scan
from cubicmaps.finitefield import build_field

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
        assert all(x.dtype == np.min_scalar_type(q - 1) for x, _, _, _ in chunks)
        points = [pt for x, y, z, _ in chunks for pt in zip(x.tolist(), y.tolist(), z.tolist())]
        affine = [(x, y, 1) for x in range(q) for y in range(q)]
        assert points == affine + [(x, 1, 0) for x in range(q)] + [(1, 0, 0)]
        assert [off for *_, off in chunks] == [x * q for x in range(q)] + [q * q, q * q + q]
