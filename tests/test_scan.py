from contextlib import contextmanager
from functools import lru_cache

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
        # a / b from log b for nonzero b, a = 0 included
        pairs = [(x, y) for x, y in zip(sa, sb) if not y.is_zero()]
        if pairs:
            num = np.array([x.encode() for x, _ in pairs], dtype=t.dtype)
            den = np.array([y.encode() for _, y in pairs], dtype=t.dtype)
            got = t.div_by_log(num, t.log[den])
            assert got.dtype == t.dtype
            assert got.tolist() == [(x / y).encode() for x, y in pairs]

    @settings(max_examples=50, deadline=None)
    @given(field_elements(), st.data())
    def test_mul_const(self, case, data):
        p, k, xs, _ = case
        field = build_field(p, k)
        t = _scan.tables(field)
        c = data.draw(st.integers(0, field.order - 1))
        got = t.mul(np.array(xs, dtype=t.dtype), c)
        assert got.dtype == t.dtype
        assert got.tolist() == [(field.scalar(x) * field.scalar(c)).encode() for x in xs]


class TestNarrowEncodings:
    @pytest.mark.parametrize("k, dtype", [(8, np.uint8), (9, np.uint16)])
    def test_cached_dtypes(self, k, dtype):
        field = build_field(2, k)
        t = _scan.tables(field)
        assert t.dtype == dtype
        for table in (t.exp, t.expx, t.frob_table):
            assert table.dtype == dtype
        # log[a] + log[b] indexes expx beyond q, so log stays wide
        assert t.log.dtype == np.int64
        [chunk] = _scan.level_chunks(field)
        for arr in (chunk.x, chunk.y, chunk.z, *chunk.monos):
            assert arr.dtype == dtype
        # levels 1-8 are packed with level 9, in its dtype
        [pack] = _scan._packs(2)
        for arr in (pack.x, pack.y, pack.z, *pack.monos):
            assert arr.dtype == np.uint16

    @pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 1)])
    def test_chunks_cover_p2_in_scan_order(self, p, k):
        # the chunks hold the first point of every Frobenius orbit of P^2, in
        # scan order, three rows to a chart chunk
        field = build_field(p, k)
        q = field.order
        chunks = list(_scan.iter_point_chunks(field, chunk=3 * q))
        assert all(x.dtype == np.min_scalar_type(q - 1) for x, _, _ in chunks)
        points = [pt for x, y, z in chunks for pt in zip(x.tolist(), y.tolist(), z.tolist())]
        assert points == _orbit_firsts(field)


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


def _full_scan_order(q):
    """Every point of P^2(GF(q)) as an encoded triple, in scan order."""
    affine = [(x, y, 1) for x in range(q) for y in range(q)]
    return affine + [(x, 1, 0) for x in range(q)] + [(1, 0, 0)]


def _frobenius_encodings(field):
    return [field.scalar(a).frobenius().encode() for a in range(field.order)]


def _orbit(frob, k, pt):
    x, y, z = pt
    out = set()
    for _ in range(k):
        out.add((x, y, z))
        x, y = frob[x], frob[y]
    return out


def _orbit_firsts(field):
    """The first point of each Frobenius orbit, walking P^2 in scan order."""
    frob = _frobenius_encodings(field)
    seen, firsts = set(), []
    for pt in _full_scan_order(field.order):
        if pt not in seen:
            firsts.append(pt)
            seen |= _orbit(frob, field.k, pt)
    return firsts


class TestFrobeniusTable:
    @pytest.mark.parametrize("p, k", FIELDS)
    def test_matches_scalar_frobenius(self, p, k):
        field = build_field(p, k)
        t = _scan.tables(field)
        assert t.frob_table.dtype == t.dtype
        assert t.frob_table.tolist() == _frobenius_encodings(field)


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
        want = _reference_covered(forms3, ext)
        [level] = _scan.level_chunks(ext)
        got = _scan.covered_encodings(forms3, level)
        assert got == want
        assert all(type(v) is int and 0 <= v < p for enc in got for v in enc)
        # the packed stream of levels 1..k covers what the levels cover one by one
        packed = set().union(*(_scan.covered_encodings(forms3, chunk) for chunk in _scan.iter_chunks(p, k)))
        assert packed == want.union(*(_reference_covered(forms3, build_field(p, d)) for d in range(1, k)))
        assert all(type(v) is int and 0 <= v < p for enc in packed for v in enc)


@lru_cache(maxsize=None)
def _level_alone(p, d):
    """Level d of GF(p) as one Chunk, with its own tables and dtype."""
    [chunk] = _scan.level_chunks(build_field(p, d))
    return chunk


@st.composite
def packed_forms(draw):
    """(p, coeffs): a GF(p) form, at odd p with some coefficient other than 0 and 1."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coeffs = st.lists(st.integers(0, p - 1), min_size=10, max_size=10)
    if p > 2:
        coeffs = coeffs.filter(lambda cs: max(cs) > 1)
    return p, draw(coeffs)


class TestPackedEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(packed_forms())
    def test_each_level_slice_equals_the_level_with_its_own_tables(self, case):
        # scaling by GF(p) constants and addition act digit by digit whatever
        # the modulus, so the top level's tables evaluate every packed level
        p, coeffs = case
        packs = _scan._packs(p)
        assert any(len(pack.levels) > 1 for pack in packs)
        for pack in packs:
            got = _scan._eval(pack.t, coeffs, pack.monos)
            for d, start, end in pack.levels:
                level = _level_alone(p, d)
                assert got[start:end].tolist() == _scan._eval(level.t, coeffs, level.monos).tolist(), d
                assert pack.x[start:end].tolist() == level.x.tolist()


def _full_values(ext, forms):
    """Every point of P^2(ext) in scan order, and each form's values there, shape (forms, points)."""
    t = _scan.tables(ext)
    xyz = np.array(_full_scan_order(ext.order), dtype=t.dtype).T
    monos = _scan.monomial_values(t, *xyz)
    return xyz, np.array([_scan._eval(t, f.coeffs, monos) for f in forms])


def _encodings(xyz, mask):
    return list(zip(*(c[mask].tolist() for c in xyz)))


@st.composite
def pencils_in_planes(draw):
    """(p, k, plane, pair): three nonzero forms, dense, sparse or sharing a line, and two of them."""
    p, k = draw(st.sampled_from(FIELDS))
    base = build_field(p)
    coeff = st.one_of(st.just(0), st.integers(0, p - 1))
    nonzero = lambda n: st.lists(coeff, min_size=n, max_size=n).filter(any)  # noqa: E731
    if draw(st.booleans()):
        line = draw(nonzero(3))
        plane = [_line_times_quadric(base, line, draw(nonzero(6))) for _ in range(3)]
    else:
        plane = [TernaryForm(base, draw(nonzero(10))) for _ in range(3)]
    pair = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    return p, k, plane, pair


# z*(x^2+xz+z^2), y*(x^2+xz+z^2), y^3 over GF(2): the pencil of the first
# two vanishes on the conjugate lines x = w*z, x = w^2*z of GF(4)
_CONJUGATE_LINES_PLANE = [
    TernaryForm(build_field(2), c) for c in (
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    )
]


@contextmanager
def scan_path(path):
    """Run the scans on the cached packs, or on small uncached chunks of each level."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "chunked":
            mp.setattr(_scan, "_monomial_cache", {})
            mp.setattr(_scan, "_CACHE_POINT_LIMIT", 0)
            mp.setattr(_scan, "_CHUNK", 40)
        yield


SCAN_PATHS = pytest.mark.parametrize("path", ["cached", "chunked"])


def _stream_points(p, bound):
    """(level, encoded point) of every position of the stream of levels 1..bound, in order."""
    return [chunk.point(i) for chunk in _scan.iter_chunks(p, bound) for i in range(len(chunk))]


def _scanned_points(field):
    """The encoded points the stream scans at the level of field, in order."""
    return [pt for d, pt in _stream_points(field.p, field.k) if d == field.k]


def _level_encodings(field, positions):
    """The encodings at the level of field among the stream positions (chunk, i)."""
    return [pt for d, pt in (chunk.point(i) for chunk, i in positions) if d == field.k]


class TestOrbitScans:
    @SCAN_PATHS
    @pytest.mark.parametrize("p, k", FIELDS)
    def test_one_point_per_orbit_first_in_scan_order(self, p, k, path):
        field = build_field(p, k)
        with scan_path(path):
            points = _scanned_points(field)
        assert points == _orbit_firsts(field)

    def test_a_level_over_the_point_limit_is_refused_before_any_table(self, monkeypatch):
        # P^2(GF(2^16)) has 4,295,032,833 points, over MAX_SCAN_POINTS
        def no_tables(field):
            raise AssertionError(f"built the tables of {field}")

        monkeypatch.setattr(_scan, "tables", no_tables)
        with pytest.raises(ValueError, match="4295032833 points; the limit is 1000000000"):
            next(_scan.iter_point_chunks(build_field(2, 16)))

    def test_chart_chunks_hold_chunk_over_q_rows_but_the_last(self):
        field = build_field(2, 5)
        chunks = list(_scan.iter_point_chunks(field, 96))
        rows = [len(set(x[z == 1].tolist())) for x, _, z in chunks]
        # 8 orbit-first x in GF(32): 0, 1 and one per 5-orbit; 96 // 32 = 3 rows a chunk
        assert rows == [3, 3, 2]
        # the last chunk ends with the line [x:1:0] at those 8 x, then [1:0:0]
        x, y, z = (c.tolist() for c in chunks[-1])
        xs_first = sorted({pt[0] for pt in _orbit_firsts(field)})
        assert list(zip(x, y, z))[-9:] == [(v, 1, 0) for v in xs_first] + [(1, 0, 0)]
        assert z[:-9] == [1] * (len(z) - 9)

    def test_a_cached_level_is_one_chunk_built_once(self, monkeypatch):
        # the cached levels of a p are packed once
        monkeypatch.setattr(_scan, "_monomial_cache", {})
        calls = []
        monomial_values = _scan.monomial_values

        def counted(t, *xyz):
            calls.append(t.k)
            return monomial_values(t, *xyz)

        monkeypatch.setattr(_scan, "monomial_values", counted)
        packs = _scan._packs(2)
        assert _scan._packs(2) is packs and list(_scan._monomial_cache) == [2]
        # each level's monomials are built once, in blocks, from its own tables
        assert calls == sorted(calls) and set(calls) == set(range(1, 10))
        # GF(2) levels 1-9 are one chunk of 40,896 points, evaluated with GF(2^9)'s tables
        [pack] = packs
        assert (pack.key, len(pack), pack.t.k) == ((1, 9, 0), 40896, 9)
        sizes = [7, 14, 29, 77, 217, 715, 2365, 8267, 29205]
        starts = np.cumsum([0] + sizes).tolist()
        assert pack.levels == tuple(zip(range(1, 10), starts, starts[1:]))
        assert [chunk.key for chunk in _scan.iter_chunks(2, 9)] == [(1, 9, 0)]

    def test_gf3_level_6_is_a_chunk_of_its_own(self):
        # levels 1-5 fit one pack of at most 2^16 points; level 6 alone exceeds it
        packs = _scan._packs(3)
        assert [(c.key, len(c), [d for d, _, _ in c.levels]) for c in packs] == [
            ((1, 5, 0), 13 + 52 + 261 + 1690 + 11869, [1, 2, 3, 4, 5]), ((6, 6, 0), 88856, [6])]
        # GF(3^7) is not cached: it is streamed after the packs
        keys = [chunk.key for chunk in _scan.iter_chunks(3, 7)]
        assert keys[:2] == [(1, 5, 0), (6, 6, 0)] and all(key[:2] == (7, 7) for key in keys[2:])

    def test_a_smaller_bound_reads_a_prefix_view(self):
        [pack] = _scan._packs(2)
        [cut] = _scan.iter_chunks(2, 4)
        assert cut.key == (1, 4, 0) and cut.levels == pack.levels[:4] and len(cut) == 7 + 14 + 29 + 77
        assert cut.t is pack.t
        for part, whole in zip((cut.x, cut.y, cut.z, *cut.monos), (pack.x, pack.y, pack.z, *pack.monos)):
            assert np.shares_memory(part, whole) and np.array_equal(part, whole[:len(cut)])

    def test_the_chunked_path_streams_a_level_already_kept(self):
        # with no level cached nothing is packed: each level is streamed in small chunks
        field = build_field(3, 2)
        cached = _scanned_points(field)
        assert 3 in _scan._monomial_cache
        with scan_path("chunked"):
            chunks = list(_scan.iter_chunks(3, 2))
            assert _scan._monomial_cache == {3: []}
        assert [chunk.key for chunk in chunks] == [(1, 1, 0), (2, 2, 0), (2, 2, 1)]
        assert [pt for chunk in chunks for d, pt in map(chunk.point, range(len(chunk))) if d == 2] == cached

    def test_zero_set_is_the_same_ordered_encodings_cached_and_chunked(self):
        # x^3 vanishes on the line x = 0: the points [0:y:1], then [0:1:0]
        ext = build_field(3, 2)
        x3 = [1] + [0] * 9
        want = [pt for pt in _scanned_points(ext) if pt[0] == 0]
        got = {}
        for path in ("cached", "chunked"):
            with scan_path(path):
                got[path] = _level_encodings(ext, [(chunk, i) for chunk in _scan.iter_chunks(3, 2)
                                                   for i in _scan.zero_set(x3, chunk)])
        assert got["cached"] == got["chunked"] == want
        assert want[-1] == (0, 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(pencils_in_planes())
    # zeros at GF(4) points [w:y:1] whose Frobenius orbits have two points
    @example((2, 2, _CONJUGATE_LINES_PLANE, (0, 1)))
    @SCAN_PATHS
    def test_scans_match_full_reference(self, path, case):
        p, k, plane, pair = case
        ext = build_field(p, k)
        pencil = [plane[i] for i in pair]
        xyz, values = _full_values(ext, plane)
        on_pencil = (values[list(pair)] == 0).all(axis=0)
        on_plane = (values == 0).all(axis=0)
        zeros = _encodings(xyz, on_pencil)
        plane_zeros = _encodings(xyz, on_plane)
        witnesses = _encodings(xyz, on_pencil & ~on_plane)
        with scan_path(path):
            scanned = set(_scanned_points(ext))
            chunks = list(_scan.iter_chunks(p, k))
            zero_sets = [[(chunk, i) for chunk in chunks for i in _scan.zero_set(f.coeffs, chunk)]
                         for f in plane]
            for zero_set, form_values in zip(zero_sets, values):
                assert _level_encodings(ext, zero_set) == [
                    pt for pt in _encodings(xyz, form_values == 0) if pt in scanned]
            # a common zero of the pair is off the plane's base locus iff the third form is nonzero there
            first, second, third = (_level_encodings(ext, zero_sets[i]) for i in (*pair, 3 - sum(pair)))
            base = [enc for enc in first if enc in second]
            witness = next((enc for enc in base if enc not in third), None)
            assert witness == (witnesses[0] if witnesses else None)
            assert _scan.common_zero_encodings(pencil, k)[k] == zeros
            assert _scan.common_zero_encodings(plane, k)[k] == plane_zeros
