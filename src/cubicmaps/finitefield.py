"""Exact arithmetic in GF(p^k), points of the projective plane, and row
reduction over GF(p).

Elements of GF(p^k) are polynomials in a generator t of degree < k over
GF(p), stored as a coefficient tuple (low degree first) and reduced modulo
a canonical modulus: the monic irreducible polynomial of degree k whose
base-p integer encoding sum(c_i * p^i) is smallest.  With that convention
every (p, k) names exactly one field, so scalars from two fields built
independently are interoperable.

The integer encoding sum(c_i * p^i) of a scalar is used throughout the
package as a compact, order-defining representation.

Row reduction over GF(p) works on lists of int rows, one matrix at a time
(gf_rank, gf_rref, gf_left_kernel), except gf_ranks, which takes the
ranks of a numpy stack of matrices in one elimination.
"""

from functools import lru_cache

import numpy as np

MAX_EXTENSION_DEGREE = 16


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p), coefficient tuples low degree first --


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mulmod(a, b, mod, p):
    """a*b reduced modulo the monic polynomial mod, all over GF(p)."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # monic reduction, highest degree first
    k = len(mod) - 1
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(k):
                res[i - k + j] = (res[i - k + j] - c * mod[j]) % p
    return _poly_trim(res)


def _poly_powmod(base, e, mod, p):
    result = (1,)
    base = _poly_trim(base)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        # make b monic, then take the remainder of a by b
        inv = pow(b[-1], p - 2, p)
        b = tuple((c * inv) % p for c in b)
        r = list(a)
        for i in range(len(r) - 1, len(b) - 2, -1):
            c = r[i]
            if c:
                r[i] = 0
                for j in range(len(b) - 1):
                    r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - c * b[j]) % p
        a, b = b, _poly_trim(r)
    return a


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(coeffs, p):
    """Rabin's test for a monic polynomial over GF(p)."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    x = (0, 1)
    # x^(p^k) == x mod f  (compare both sides reduced)
    if _poly_powmod(x, p**k, coeffs, p) != _poly_mulmod((1,), x, coeffs, p):
        return False
    for r in _prime_factors(k):
        h = _poly_powmod(x, p ** (k // r), coeffs, p)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(diff, coeffs, p)) > 1:
            return False
    return True


def canonical_modulus(p, k):
    """Monic irreducible of degree k over GF(p) with the smallest encoding.

    Candidates t^k + c_{k-1} t^{k-1} + ... + c_0 are ordered by the base-p
    integer encoding of (c_0, ..., c_{k-1}); the first irreducible one wins.
    """
    for value in range(p**k):
        digits = []
        v = value
        for _ in range(k):
            digits.append(v % p)
            v //= p
        candidate = tuple(digits) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


class Scalar:
    """An element of GF(p^k): a coefficient tuple over GF(p), low degree first."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"cannot combine Scalar with {type(other).__name__}")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return Scalar(self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return Scalar(self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.field.p
        return Scalar(self.field, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        prod = _poly_mulmod(self.coords, other.coords, f.modulus, f.p)
        return Scalar(f, prod + (0,) * (f.k - len(prod)))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        base = self if e >= 0 else self.inverse()
        f = self.field
        r = _poly_powmod(base.coords, abs(e), f.modulus, f.p)
        return Scalar(f, r + (0,) * (f.k - len(r)))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError(f"inversion of zero in {self.field}")
        # a^(q-2) = a^(-1) in GF(q)
        return self.__pow__(self.field.order - 2)

    def frobenius(self):
        """The field automorphism a -> a^p."""
        return self.__pow__(self.field.p)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def encode(self):
        """Base-p integer encoding sum(c_i * p^i)."""
        v = 0
        for c in reversed(self.coords):
            v = v * self.field.p + c
        return v

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coords))

    def __repr__(self):
        return f"Scalar({self.encode()} in {self.field})"


class Field:
    """GF(p^k) under the canonical modulus.  Build via build_field(p, k)."""

    __slots__ = ("p", "k", "modulus", "order")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k

    def scalar(self, value):
        """A scalar from an integer encoding or a coordinate sequence."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError(f"mixed fields: {value.field} vs {self}")
            return value
        if isinstance(value, int):
            v = value % self.order
            coords = []
            for _ in range(self.k):
                coords.append(v % self.p)
                v //= self.p
            return Scalar(self, tuple(coords))
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(coords)}")
        return Scalar(self, coords)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def elements(self):
        """All q scalars in encoding order."""
        return [self.scalar(v) for v in range(self.order)]

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p and self.k == other.k

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.order})"


@lru_cache(maxsize=None)
def build_field(p, k=1):
    """The field GF(p^k) with its canonical modulus."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}, got {k}")
    return Field(p, k, canonical_modulus(p, k))


class ProjPoint:
    """A point of P^2 over a field, held in normalized coordinates.

    The representative is scaled so its last nonzero coordinate is 1, which
    makes equality and hashing structural.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        if len(coords) != 3:
            raise ValueError("a projective point needs 3 coordinates")
        coords = tuple(field.scalar(c) for c in coords)
        pivot = None
        for c in reversed(coords):
            if not c.is_zero():
                pivot = c
                break
        if pivot is None:
            raise ValueError("(0 : 0 : 0) is not a projective point")
        if pivot.encode() != 1:
            inv = pivot.inverse()
            coords = tuple(c * inv for c in coords)
        self.field = field
        self.coords = coords

    def encode(self):
        """Integer encodings of the normalized coordinates."""
        return tuple(c.encode() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.encode()))

    def __repr__(self):
        x, y, z = self.encode()
        return f"[{x}:{y}:{z}]"


def enumerate_p2(field):
    """All q^2 + q + 1 points of P^2(GF(q)), sorted by encoded coordinates.

    Normalized representatives come in three families: [x:y:1], [x:1:0] and
    [1:0:0]; the full list is sorted lexicographically on the coordinate
    encodings, the order of forward_oracle's result.  The scans read another
    order: [x:y:1] by (x, y), then [x:1:0], then [1:0:0].
    """
    q = field.order
    pts = []
    for x in range(q):
        for y in range(q):
            pts.append((x, y, 1))
        pts.append((x, 1, 0))
    pts.append((1, 0, 0))
    pts.sort()
    out = []
    for t in pts:
        pt = ProjPoint.__new__(ProjPoint)
        pt.field = field
        pt.coords = tuple(field.scalar(v) for v in t)
        out.append(pt)
    return out


def minimal_degree(pt):
    """Smallest d | k with every coordinate of pt fixed by frobenius^d."""
    k = pt.field.k
    for d in range(1, k + 1):
        if k % d:
            continue
        ok = True
        for c in pt.coords:
            f = c
            for _ in range(d):
                f = f.frobenius()
            if f != c:
                ok = False
                break
        if ok:
            return d
    return k


# -- row reduction over GF(p), rows of integer residues --


def _subtract(row, f, tail, c, p):
    """row - f * (pivot row), for a pivot row that is zero left of column c and tail = its entries from c."""
    return row[:c] + [(x - f * y) % p for x, y in zip(row[c:], tail)]


def _forward(p, rows):
    """Forward elimination over GF(p): (rows, pivots) in row echelon form.

    Each pivot is scaled to 1 and only the rows below it are cleared; the
    returned rows are the nonzero ones, one per pivot column.
    """
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
        tail = top[c:]
        for i in range(r + 1, n):
            f = rows[i][c]
            if f:
                rows[i] = _subtract(rows[i], f, tail, c, p)
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivots


def gf_rank(p, rows):
    """Rank over GF(p) of integer rows: the number of pivots forward elimination finds."""
    return len(_forward(p, rows)[1])


def gf_ranks(p, stack):
    """Ranks over GF(p) of a (B, R, C) integer stack: B matrices in one numpy elimination.

    The rows are reduced one at a time, in all B matrices at once.  A row,
    once every row above it has been cleared out of it, is either zero or
    leads at a column no row above it leads at; every row below is scaled
    by that leading entry and the row is subtracted the matching number of
    times, which clears its leading column below it.  That step keeps each
    row space, and the nonzero reduced rows are independent, so they count
    the rank.  Every row operation is taken mod p as it is made, which
    keeps the entries in 0..p-1 and every intermediate within +-(p-1)^2.
    So p must be below 2^31, and the elimination runs in the narrowest
    integer type that holds those values: int16 below p = 2^7, int32
    below 2^15.
    """
    if not 2 <= p < 1 << 31:
        raise ValueError(f"gf_ranks needs a prime p below 2^31, got {p}")
    dtype = np.int16 if p < 1 << 7 else np.int32 if p < 1 << 15 else np.int64
    m = (np.asarray(stack, dtype=np.int64) % p).astype(dtype)
    if m.ndim != 3:
        raise ValueError(f"expected a (B, R, C) stack, got shape {m.shape}")
    ranks = np.zeros(len(m), dtype=np.int64)
    if not m.size:
        return ranks
    at = np.arange(len(m))
    for i in range(m.shape[1]):
        row = m[:, i]
        lead = (row != 0).argmax(axis=1)
        pivot = row[at, lead]
        ranks += pivot != 0
        below = m[:, i + 1:]
        if below.shape[1]:
            # a zero row subtracts nothing, and scaling by 1 leaves the rows below alone
            scale = np.where(pivot != 0, pivot, 1)[:, None, None]
            below[...] = (scale * below - below[at, :, lead][:, :, None] * row[:, None, :]) % p
    return ranks


def gf_rref(p, rows):
    """Reduced row echelon form over GF(p) of integer rows.

    Returns (rows, pivots): the nonzero RREF rows as a tuple of int tuples
    with entries in 0..p-1, and their pivot columns.  The rows are the
    canonical basis of the row space, so they key the spanned subspace, and
    their number is its rank.  Forward elimination is followed by
    back-substitution, which clears the rows above each pivot, last pivot
    first, so every row it subtracts is already reduced.
    """
    rows, pivots = _forward(p, rows)
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        tail = rows[r][c:]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i] = _subtract(rows[i], f, tail, c, p)
    return tuple(map(tuple, rows)), pivots


def gf_left_kernel(p, rows):
    """A basis, in RREF, of the vectors k with sum(k[i] * rows[i]) = 0 over GF(p).

    The left kernel is the null space of the transpose.  One gf_rref of the
    transpose gives a null-space vector per free column j: 1 at j, minus
    column j of the reduced rows at their pivots.  Those vectors span the
    kernel, and a second gf_rref turns them into its canonical basis.
    """
    n = len(rows)
    reduced, pivots = gf_rref(p, zip(*rows))
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        vec = [0] * n
        vec[j] = 1
        for row, c in zip(reduced, pivots):
            vec[c] = -row[j] % p
        basis.append(vec)
    return list(gf_rref(p, basis)[0])
