"""Vectorized point scans over P^2(GF(p^d)).

Internal helpers.  Field elements are carried as their base-p integer
encodings in numpy arrays; multiplication uses discrete log/exp tables
built once per field from exact Scalar arithmetic, and addition is XOR for
p = 2 or digit-wise modular addition otherwise, so every array operation
agrees with Scalar arithmetic (tested exhaustively on small fields).

Encodings are stored in the narrowest unsigned dtype that holds q - 1,
np.min_scalar_type(q - 1): uint8 up to q = 256 and uint16 beyond, which
covers every level below MAX_SCAN_POINTS (q < 31623).  That applies to
the point arrays, the exp/expx/frob tables and the cached monomials (a
packed Chunk takes its top level's dtype); a narrow array halves or
quarters the memory traffic of every XOR, compare and gather.  The log
table stays int64, because log[a] + log[b] indexes the extended exp table
and reaches beyond q.

Points are scanned in a fixed documented order: the affine chart [x:y:1]
lexicographically by (x, y), then the line [x:1:0] by x, then [1:0:0].
A level is built as chunks of points and their monomials (level_chunks):
fixed blocks of chart rows, the last of which ends with the line and
[1:0:0], so that even very large levels stay within memory.

A scan reads levels 1..bound, bound <= MAX_LEVEL = 9, as one stream of
Chunks (iter_chunks), in level-then-scan order.  The levels small enough
to cache (_is_cached) are built once per p and packed (_packs):
consecutive levels share one Chunk while their points stay within
_PACK_POINTS, in the top level's dtype, so that a scan of them is one
evaluation of a form, not one per level.  Over GF(2) levels 1-9 are one
Chunk of 40,896 points; over GF(3) levels 1-5 share one and level 6 is
its own.  A smaller bound reads a prefix view of the pack it ends in.  A
larger level is streamed, chunk by chunk, on every scan.  Packing is
exact: a form's values take only scalings by GF(p) constants and sums of
the monomial values, and both act digit by digit on the encodings
whatever the level's modulus (_eval), so the top level's tables evaluate
every level of a Chunk.  Only the monomials need each level's own
tables, and they are computed per level when a pack is built.

Pencils are decided from zero sets.  zero_set evaluates one form, a
member of a cubic system, on a Chunk and returns the positions where it
vanishes, ascending; a walk keeps each member's zero set per Chunk
(linsys.SystemPencils), so the base points of a pencil are the positions
of one spanning member's zero set that lie in the other's, and a witness
is the first of them where a third plane form is nonzero.  A zero set is
few points next to its Chunk.

The covering scan (covered_encodings) evaluates a plane's three forms
V = (f0, f1, f2) once per Chunk.

Every scan reads one point per Frobenius orbit.  The forms have GF(p)
coefficients, so they commute with the Frobenius F: a -> a^p, and
f(F P) = F f(P).  F fixes z and with it the chart, so the conjugates of
[x:y:z] are [F^j x : F^j y : z], j = 0..k-1, and a point comes first in
scan order among them iff no conjugate (F^j x, F^j y) is lexicographically
smaller.  Only those points are scanned, about 1/k of P^2(GF(p^k)):

* covering scan: a conjugate point maps to the conjugate image, and a
  GF(p)-rational image is fixed by F, so every point of an orbit has the
  same rational image, or none;
* zero sets: a conjugate of a zero of a form is a zero, and a form that
  is nonzero at a point is nonzero at its conjugates, so the conjugates
  of a witness are witnesses.  The first witness in full scan order is
  therefore the first point of its orbit, and the first witness among
  the scanned points, which the zero sets hold, is that same point;
* base loci: each common zero found is expanded to its orbit, so the
  points and counts are those of the full plane.

The covering scan decides GF(p)-rationality of each image [f0:f1:f2]
before it normalizes anything.  With lambda the last nonzero coordinate,
f/lambda lies in GF(p) iff f = 0 or f^(p-1) = lambda^(p-1), because GF(p)*
is the set of roots of z^(p-1) = 1.  lambda is picked by an integer
select on the encodings, f2 + (f2 == 0) * (f1 + (f1 == 0) * f0), where
each product is 0 or the coordinate it keeps; on narrow arrays that is a
few cheap ufunc passes, where np.where costs several times more.  Only
rational images are normalized, and log lambda is looked up once per
chunk for all three coordinates.  Neither step needs a level's own
tables (covered_encodings).
"""

import numpy as np

from .finitefield import ProjPoint, _prime_factors, build_field

# Bezout: two coprime cubics meet in points of degree at most 9, so no
# scan reads a level above it
MAX_LEVEL = 9
MAX_SCAN_POINTS = 1_000_000_000
_CACHE_POINT_LIMIT = 2_000_000
_CHUNK = 1 << 19
_PACK_POINTS = 1 << 16
_PACK_BLOCK = 1 << 12

_tables_cache = {}
_monomial_cache = {}


class FieldTables:
    """Discrete log/exp multiplication, vector addition and Frobenius for one GF(q)."""

    def __init__(self, field):
        q = field.order
        self.field = field
        self.q = q
        self.p = field.p
        self.k = field.k
        self.dtype = dt = np.min_scalar_type(q - 1)
        gen = self._find_generator(field)
        n = max(q - 1, 1)
        exp = np.zeros(n, dtype=dt)
        log = np.zeros(q, dtype=np.int64)
        cur = field.one()
        for i in range(n):
            e = cur.encode()
            exp[i] = e
            log[e] = i
            cur = cur * gen
        big = 2 * n + 1
        log[0] = big
        # extended exp table: two periods of exp, zeros beyond, so that
        # EXPX[LOG[a] + LOG[b]] is a*b with no branching on zeros
        expx = np.zeros(4 * n + 4, dtype=dt)
        expx[:n] = exp
        expx[n : 2 * n] = exp
        self.n = n
        self.exp = exp
        self.log = log
        self.expx = expx
        # a^p for every a: F(g^i) = g^(i p)
        frob = np.zeros(q, dtype=dt)
        frob[exp] = exp[log[exp] * self.p % n]
        self.frob_table = frob
        if self.p > 2:
            self.pow_p = [self.p**i for i in range(self.k)]
            # a^(p-1) for every a: 0 at 0, 1 exactly on GF(p)*
            pw = np.zeros(q, dtype=dt)
            pw[exp] = exp[log[exp] * (self.p - 1) % n]
            self.pow_table = pw

    @staticmethod
    def _find_generator(field):
        q = field.order
        if q == 2:
            return field.one()
        factors = _prime_factors(q - 1)
        for enc in range(2, q):
            a = field.scalar(enc)
            if all(not (a ** ((q - 1) // r) == field.one()) for r in factors):
                return a
        raise RuntimeError(f"no generator found for {field}")

    def mul(self, a, b):
        return self.expx[self.log[a] + self.log[b]]

    def div_by_log(self, a, log_b):
        """a / b for nonzero b, given log_b = log[b], so that one divisor's log serves many a.

        At a = 0 the index falls in the zero tail of expx.
        """
        return self.expx[self.log[a] - log_b + self.n]

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        # digits in int64 whatever the operand dtypes, so the result does not
        # hang on NEP 50 promotion; one cast back to the narrow dtype at the end
        p = self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for pi in self.pow_p:
            out += ((a // pi % p + b // pi % p) % p) * pi
        return out.astype(self.dtype)

    def pow_p1(self, a):
        """a^(p-1); at p = 2 that is a itself, returned as is."""
        if self.p == 2:
            return a
        return self.pow_table[a]


def tables(field):
    key = (field.p, field.k)
    t = _tables_cache.get(key)
    if t is None:
        t = FieldTables(field)
        _tables_cache[key] = t
    return t


def point_count(field):
    q = field.order
    return q * q + q + 1


def _orbit_first(t, x, y):
    """Mask of the points (x, y) that no Frobenius conjugate precedes lexicographically."""
    keep = np.ones(len(x), dtype=bool)
    fx, fy = x, y
    for _ in range(t.k - 1):
        fx = t.frob_table[fx]
        fy = t.frob_table[fy]
        keep &= (fx > x) | ((fx == x) & (fy >= y))
    return keep


def iter_point_chunks(field, chunk=_CHUNK):
    """Yield (X, Y, Z) encoding arrays of one point per Frobenius orbit of P^2.

    The points are the first of their orbits, in scan order.  A row [x:*:1]
    holds such points only if x comes first among its own conjugates, so
    the other rows are never built.  Each chunk spans chunk // q such rows
    (at least one), except the last, which spans the rest and then ends
    with the line [x:1:0], for the same x, and [1:0:0].
    """
    q = field.order
    if point_count(field) > MAX_SCAN_POINTS:
        raise ValueError(
            f"scanning P^2({field}) needs {point_count(field)} points; "
            f"the limit is {MAX_SCAN_POINTS}"
        )
    t = tables(field)
    dt = t.dtype
    a = np.arange(q, dtype=dt)
    xs_first = a[_orbit_first(t, a, np.zeros_like(a))]
    n = len(xs_first)
    rows = max(1, chunk // q)
    for i in range(0, n, rows):
        xs = xs_first[i : i + rows]
        x = np.repeat(xs, q)
        y = np.tile(a, len(xs))
        keep = _orbit_first(t, x, y)
        x, y = x[keep], y[keep]
        z = np.ones(len(x), dtype=dt)
        if i + rows >= n:
            x = np.concatenate([x, xs_first, np.ones(1, dtype=dt)])
            y = np.concatenate([y, np.ones(n, dtype=dt), np.zeros(1, dtype=dt)])
            z = np.concatenate([z, np.zeros(n + 1, dtype=dt)])
        yield x, y, z


def monomial_values(t, x, y, z):
    """The ten cubic monomials of the frozen order, evaluated on arrays."""
    x2 = t.mul(x, x)
    y2 = t.mul(y, y)
    z2 = t.mul(z, z)
    return (
        t.mul(x2, x),
        t.mul(x2, y),
        t.mul(x2, z),
        t.mul(x, y2),
        t.mul(t.mul(x, y), z),
        t.mul(x, z2),
        t.mul(y2, y),
        t.mul(y2, z),
        t.mul(y, z2),
        t.mul(z2, z),
    )


def _eval(t, coeffs, monos):
    """A form's values at the monomial arrays; its GF(p) residues are their own encodings in GF(p^d).

    Only scaling by GF(p) constants and addition are used, and both act
    digit by digit on the base-p encodings, so t evaluates every level of
    a packed Chunk.
    """
    acc = None
    for c, m in zip(coeffs, monos):
        if c == 0:
            continue
        term = m if c == 1 else t.mul(m, c)
        acc = term if acc is None else t.add(acc, term)
    if acc is None:
        return np.zeros_like(monos[0])
    return acc


def _is_cached(field):
    """Whether a level is small enough to keep its scanned points and monomials.

    The cache limit counts every point of P^2, so the same levels are
    cached whatever share of them a scan reads.
    """
    return point_count(field) <= _CACHE_POINT_LIMIT


class Chunk:
    """Scanned points of one or more consecutive levels, and their cubic monomials.

    x, y, z and the ten monomial arrays monos hold each level's orbit-first
    points in scan order, the levels ascending, in the dtype of the top
    level; t is the top level's FieldTables, which evaluate every level
    here (see _eval).  levels lists (d, start, end) per level, and key,
    (first level, last level, index among the last level's chunks), names
    the chunk in the stream of its p.
    """

    __slots__ = ("key", "t", "x", "y", "z", "monos", "levels")

    def __init__(self, key, t, x, y, z, monos, levels):
        self.key = key
        self.t = t
        self.x = x
        self.y = y
        self.z = z
        self.monos = monos
        self.levels = levels

    def __len__(self):
        return len(self.x)

    def upto(self, bound):
        """The chunk cut after level bound: itself, or views of its arrays' first levels."""
        if bound >= self.levels[-1][0]:
            return self
        levels = tuple(lv for lv in self.levels if lv[0] <= bound)
        end = levels[-1][2]
        return Chunk((self.key[0], bound, 0), self.t, self.x[:end], self.y[:end], self.z[:end],
                     tuple(m[:end] for m in self.monos), levels)

    def point(self, i):
        """The level d and encoded (x, y, z) of the point at position i."""
        d = next(d for d, _, end in self.levels if i < end)
        return d, (int(self.x[i]), int(self.y[i]), int(self.z[i]))


def level_chunks(field):
    """One level's orbit-first points and their monomials as Chunks of about _CHUNK points, streamed."""
    t = tables(field)
    d = field.k
    for j, (x, y, z) in enumerate(iter_point_chunks(field, _CHUNK)):
        yield Chunk((d, d, j), t, x, y, z, monomial_values(t, x, y, z), ((d, 0, len(x)),))


def _pack(group):
    """One Chunk of consecutive levels, each given as (field, (x, y, z)), in the top level's dtype.

    Each level's monomials are computed with its own tables, straight into
    the Chunk, _PACK_BLOCK points at a time, so that the int64 log sums of
    the multiplications stay small next to the Chunk.
    """
    t = tables(group[-1][0])
    n = sum(len(x) for _, (x, _, _) in group)
    xyz = np.empty((3, n), dtype=t.dtype)
    monos = np.empty((10, n), dtype=t.dtype)
    levels, start = [], 0
    for field, points in group:
        end = start + len(points[0])
        xyz[:, start:end] = points
        for i in range(start, end, _PACK_BLOCK):
            j = min(i + _PACK_BLOCK, end)
            for row, m in zip(monos, monomial_values(tables(field), *xyz[:, i:j])):
                row[i:j] = m
        levels.append((field.k, start, end))
        start = end
    return Chunk((levels[0][0], levels[-1][0], 0), t, *xyz, tuple(monos), tuple(levels))


def _packs(p):
    """The cached levels up to MAX_LEVEL, packed into Chunks; built once per p.

    Consecutive levels share a Chunk while their points together stay
    within _PACK_POINTS; a level over it alone is a Chunk of its own.
    """
    packs = _monomial_cache.get(p)
    if packs is None:
        groups, size = [], 0
        for d in range(1, MAX_LEVEL + 1):
            field = build_field(p, d)
            if not _is_cached(field):
                break
            [points] = iter_point_chunks(field, point_count(field))
            if groups and size + len(points[0]) <= _PACK_POINTS:
                groups[-1].append((field, points))
                size += len(points[0])
            else:
                groups.append([(field, points)])
                size = len(points[0])
        packs = _monomial_cache[p] = [_pack(group) for group in groups]
    return packs


def iter_chunks(p, bound):
    """Levels 1..bound of P^2 over GF(p) as one stream of Chunks, in level-then-scan order.

    The cached levels come from _packs, the last pack cut at the bound;
    each larger level is streamed in chunks of _CHUNK points on every call.
    """
    packs = _packs(p)
    for chunk in packs:
        if chunk.levels[0][0] > bound:
            return
        yield chunk.upto(bound)
    top = packs[-1].levels[-1][0] if packs else 0
    for d in range(top + 1, bound + 1):
        yield from level_chunks(build_field(p, d))


def _scan_key(enc):
    """Position of an encoded (x, y, z) triple in scan order."""
    x, y, z = enc
    return z == 0, z == 0 and y == 0, x, y


def common_zero_encodings(forms, bound):
    """{d: encodings of all points of P^2(GF(p^d)) where every form vanishes, in scan order}, d = 1..bound."""
    p = forms[0].field.p
    found = {d: set() for d in range(1, bound + 1)}
    for chunk in iter_chunks(p, bound):
        first, *rest = (zero_set(f.coeffs, chunk) for f in forms)
        for i in first:
            if all(i in zeros for zeros in rest):
                d, (x, y, z) = chunk.point(i)
                frob = tables(build_field(p, d)).frob_table
                # the zeros scanned are orbit representatives: add every conjugate
                for _ in range(d):
                    found[d].add((x, y, z))
                    x, y = int(frob[x]), int(frob[y])
    return {d: sorted(points, key=_scan_key) for d, points in found.items()}


def zero_set(coeffs, chunk):
    """The positions in a Chunk of the points where one form vanishes, as an ordered set.

    The keys are the ascending positions of the points where the form with
    these GF(p) coefficients is zero, so in level-then-scan order; the
    values are None.  Chunk.point decodes a position.
    """
    return dict.fromkeys(np.flatnonzero(_eval(chunk.t, coeffs, chunk.monos) == 0).tolist())


def covered_encodings(forms, chunk):
    """Normalized images in P^2(GF(p)) of the non-base points of a Chunk.

    Returns a set of (a, b, c) integer triples with entries < p: the
    prime-subfield targets hit by the map [f0:f1:f2] of the three forms on
    the chunk's points, excluding common zeros of all three.  The forms
    are evaluated once for the whole chunk.

    An image is GF(p)-rational iff its last nonzero coordinate lambda
    exists (the point is not a base point) and every coordinate f has
    f = 0 or f^(p-1) = lambda^(p-1).  Only rational images are normalized,
    by dividing each coordinate by lambda with div_by_log, log lambda
    looked up once for all three.  The top level's tables decide both
    steps for every level of the Chunk: f/lambda lies in GF(p) iff f is a
    GF(p) multiple of lambda digit by digit, and f/lambda is then that
    multiple.
    """
    t = chunk.t
    fs = [_eval(t, f.coeffs, chunk.monos) for f in forms]
    f0, f1, f2 = fs
    # an integer select: each product is 0 or the coordinate it keeps
    lam = f2 + (f2 == 0) * (f1 + (f1 == 0) * f0)
    lam_pow = t.pow_p1(lam)
    # lambda is nonzero exactly off the base locus
    rational = lam != 0
    for f in fs:
        rational &= (f == 0) | (t.pow_p1(f) == lam_pow)
    idx = np.flatnonzero(rational)
    if not len(idx):
        return set()
    log_lam = t.log[lam[idx]]
    return set(zip(*(t.div_by_log(f[idx], log_lam).tolist() for f in fs)))


def decode_point(field, enc_triple):
    """An encoded (x, y, z) triple as a normalized ProjPoint."""
    return ProjPoint(field, [field.scalar(int(v)) for v in enc_triple])
