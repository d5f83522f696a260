"""Vectorized point scans over P^2(GF(p^d)).

Internal helpers.  Field elements are carried as their base-p integer
encodings in numpy arrays; multiplication uses discrete log/exp tables
built once per field from exact Scalar arithmetic, and addition is XOR for
p = 2 or digit-wise modular addition otherwise, so every array operation
agrees with Scalar arithmetic (tested exhaustively on small fields).

Encodings are stored in the narrowest unsigned dtype that holds q - 1,
np.min_scalar_type(q - 1): uint8 up to q = 256 and uint16 beyond, which
covers every level below MAX_SCAN_POINTS (q < 31623).  That applies to
the point arrays, the exp/expx/frob tables and the cached monomials; a
narrow array halves or quarters the memory traffic of every XOR, compare
and gather.  The log table stays int64, because log[a] + log[b] indexes
the extended exp table and reaches beyond q.

Points are scanned in a fixed documented order: the affine chart [x:y:1]
lexicographically by (x, y), then the line [x:1:0] by x, then [1:0:0].
Every level is read as the same chunks of points and their monomials
(_scan_chunks): fixed blocks of chart rows, the last of which ends with
the line and [1:0:0], so that even very large levels stay within memory.
A level small enough to cache (_is_cached) keeps its chunks for every
later scan; for p <= 7 they are one chunk.  Every scan reads whole
levels.

Pencils are decided from zero sets.  zero_set scans one form, a member
of a cubic system, and returns the encoded (x, y, z) of the points where
it vanishes, in scan order; a walk keeps each member's zero set per level
(linsys.SystemPencils), so the base points of a pencil are the points of
one spanning member's zero set that lie in the other's, and a witness is
the first of them where a third plane form is nonzero.  A zero set is
few points next to its level.

The covering scan evaluates a plane's three forms V = (f0, f1, f2) on
each chunk of a level, once per scan.

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
chunk for all three coordinates.
"""

import numpy as np

from .finitefield import ProjPoint, _prime_factors, build_field

MAX_SCAN_POINTS = 1_000_000_000
_CACHE_POINT_LIMIT = 2_000_000
_CHUNK = 1 << 19

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
    """A form's values at the monomial arrays; its GF(p) residues are their own encodings in GF(p^d)."""
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


def covering_levels(p, bound):
    """The levels 1..bound that a covering walk over GF(p) scans, ascending.

    A level is left out where a higher one reads it cheaply.  P^2(GF(p^d))
    lies in P^2(GF(p^md)), and the first point of a level-d point's
    Frobenius orbit there is scanned at level md with the same rational
    image, or none at a base point; so the levels scanned cover the same
    targets as every level 1..bound.  Level d is left out when level 2d is
    within the bound and cheap: p = 2 and _is_cached.  Over GF(2)
    addition is one XOR, so a cached level scans in about the time of its
    fixed numpy calls, and the levels left out save those calls on every
    plane that no low level finishes.  For odd p addition runs digit by
    digit and a scan grows with its points, so a plane that a low level
    finishes would pay far more for the higher levels than the skip saves.
    The cached levels are the lowest, so the levels left out are 1..s, and
    a plane that level d <= s finishes scans at most levels s+1..s+d:
    every level up to d divides one of them.
    """
    skipped = 0
    while p == 2 and 2 * (skipped + 1) <= bound and _is_cached(build_field(p, 2 * (skipped + 1))):
        skipped += 1
    return list(range(skipped + 1, bound + 1))


def _scan_chunks(field):
    """The (x, y, z, monomials) chunks of orbit-first points, in scan order.

    A level that _is_cached is built once into a list kept for every later
    scan; a larger one is streamed, chunk by chunk, on every scan.
    """
    t = tables(field)
    chunks = ((x, y, z, monomial_values(t, x, y, z)) for x, y, z in iter_point_chunks(field, _CHUNK))
    if not _is_cached(field):
        return chunks
    key = (field.p, field.k)
    got = _monomial_cache.get(key)
    if got is None:
        got = _monomial_cache[key] = list(chunks)
    return got


def _scan_key(enc):
    """Position of an encoded (x, y, z) triple in scan order."""
    x, y, z = enc
    return z == 0, z == 0 and y == 0, x, y


def common_zero_encodings(forms, ext):
    """Encoded coordinates of all points of P^2(ext) where every form vanishes, in scan order."""
    frob = tables(ext).frob_table.tolist()
    first, *rest = (zero_set(f.coeffs, ext) for f in forms)
    found = set()
    for x, y, z in first:
        if all((x, y, z) in zeros for zeros in rest):
            # the zeros scanned are orbit representatives: add every conjugate
            for _ in range(ext.k):
                found.add((x, y, z))
                x, y = frob[x], frob[y]
    return sorted(found, key=_scan_key)


def zero_set(coeffs, ext):
    """The scanned points of P^2(ext) where one form vanishes, as an ordered set.

    The keys are the encoded (x, y, z), in scan order, of the orbit-first
    points where the form with these GF(p) coefficients is zero; the
    values are None.
    """
    t = tables(ext)
    zeros = {}
    for x, y, z, monos in _scan_chunks(ext):
        idx = np.flatnonzero(_eval(t, coeffs, monos) == 0)
        zeros.update(dict.fromkeys(zip(x[idx].tolist(), y[idx].tolist(), z[idx].tolist())))
    return zeros


def covered_target_encodings(forms, ext):
    """Normalized images in P^2(GF(p)) of all non-base points of P^2(ext), p = ext.p.

    Returns a set of (a, b, c) integer triples with entries < p: the
    prime-subfield targets hit by the map [f0:f1:f2] of the three forms on
    points of the extension level, excluding common zeros of all three.
    The forms are evaluated chunk by chunk.

    An image is GF(p)-rational iff its last nonzero coordinate lambda
    exists (the point is not a base point) and every coordinate f has
    f = 0 or f^(p-1) = lambda^(p-1).  Only rational images are normalized,
    by dividing each coordinate by lambda with div_by_log, log lambda
    looked up once for all three.
    """
    t = tables(ext)
    coeffs = [f.coeffs for f in forms]
    covered = set()
    for _x, _y, _z, monos in _scan_chunks(ext):
        fs = [_eval(t, c, monos) for c in coeffs]
        f0, f1, f2 = fs
        # an integer select: each product is 0 or the coordinate it keeps
        lam = f2 + (f2 == 0) * (f1 + (f1 == 0) * f0)
        lam_pow = t.pow_p1(lam)
        # lambda is nonzero exactly off the base locus
        rational = lam != 0
        for f in fs:
            rational &= (f == 0) | (t.pow_p1(f) == lam_pow)
        idx = np.flatnonzero(rational)
        if len(idx):
            log_lam = t.log[lam[idx]]
            covered.update(zip(*(t.div_by_log(f[idx], log_lam).tolist() for f in fs)))
    return covered


def decode_point(field, enc_triple):
    """An encoded (x, y, z) triple as a normalized ProjPoint."""
    return ProjPoint(field, [field.scalar(int(v)) for v in enc_triple])
