"""Linear systems of cubics through plane points, planes and base loci.

A point configuration of n points (1 <= n <= 7) in P^2 determines the
linear system of cubic forms vanishing on it over a prime field GF(p): the
kernel of the n x 10 evaluation matrix, kept in reduced row-echelon form
over the frozen monomial order so the basis is canonical.

Two reference configurations are built in.  "five_point" is
[1:0:0], [0:1:0], [0:0:1], [1:1:1], [2:3:1]; "six_point" adds [3:2:1].
For each there is a verbatim reference basis (the fixture, the one the
dataset coordinates refer to) and a set of integer generators.  The
fixture is pinned, not computed: it is not the system of cubics through
the configuration over Z or any GF(p) (x^2*y + y^2*z is 21 at [2:3:1] and,
over GF(2), 1 at [0:1:1]).  The integer generators take values with gcd 7
at the reference points, so mod p they span the vanishing system exactly
when p = 7; mod 2 they span the fixture.

A plane is a 3-dimensional subsystem spanned by three combinations of the
basis whose coefficient vectors have rank 3 and whose forms share no
common factor; a pencil is a 2-dimensional subsystem of a plane, keyed
by the gf_rref rows of its two spanning members.  The planes of a walk
share their pencils, so a walk decides once per pencil of the system, in
one SystemPencils memo, whether it shares a factor, and scans each
member's zero set once per chunk of the scan stream; a witness search
reads the pencil's base points off its two rows' zero sets.  A full walk
(walk_planes) decides every pencil of the system before its first plane,
in stacks of _DECIDE_BLOCK pencils, one numpy elimination each
(SystemPencils.decide, forms.pairs_share_factor), and keys every pencil
of _PLANE_BLOCK planes at a time with one product against the planes'
gf_rref rows, no elimination.  A lone plane keys its p^2+p+1 pencils by
their definition and decides them in one stack.  The memo also admits
a plane: a factor shared by all three forms divides every member of
every pencil, so one rational pencil that shares no factor proves that
the forms share none.  Only when every rational pencil shares a factor
is the common factor decided by common_factor_all.  The base
locus of a set of forms is computed by scanning P^2(GF(p^d)) for
d = 1..scan_bound, one stream, and keeping the common zeros of minimal
degree exactly d.
"""

import itertools
from functools import lru_cache
from operator import mul

import numpy as np

from . import _scan
from .finitefield import ProjPoint, build_field, gf_left_kernel, gf_rank, gf_rref, minimal_degree
from .forms import MONOMIALS, TernaryForm, combine, common_factor_all, pairs_share_factor

FIVE_POINT = "five_point"
SIX_POINT = "six_point"

# the exhaustive bound: Bezout caps the degree of a base point of two coprime cubics at 9
DEFAULT_SCAN_BOUND = _scan.MAX_LEVEL

# pencils per pairs_share_factor call in SystemPencils.decide: a block's stack of
# Sylvester matrices stays near 2 MB, and the 155 and 35 pencils of the GF(2)
# reference systems each fit one block
_DECIDE_BLOCK = 1 << 10

# planes per key product in walk_planes: a block's keys live only while its
# planes are yielded, and the 155 and 15 planes of the GF(2) reference
# walks each fit one block
_PLANE_BLOCK = 1 << 8

_REFERENCE_POINTS = {
    FIVE_POINT: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 1)),
    SIX_POINT: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1)),
}

# coefficient vectors in the frozen monomial order
# [x^3, x^2y, x^2z, xy^2, xyz, xz^2, y^3, y^2z, yz^2, z^3]
_REFERENCE_BASIS = {
    FIVE_POINT: (
        (0, 1, 0, 0, 0, 0, 0, 1, 0, 0),   # x^2*y + y^2*z
        (0, 0, 0, 1, 0, 0, 0, 1, 0, 0),   # x*y^2 + y^2*z
        (0, 0, 1, 0, 0, 0, 0, 1, 0, 0),   # x^2*z + y^2*z
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),   # x*y*z
        (0, 0, 0, 0, 0, 1, 0, 0, 1, 0),   # x*z^2 + y*z^2
    ),
    SIX_POINT: (
        (0, 1, 0, 0, 0, 1, 0, 1, 1, 0),   # x^2*y + y^2*z + x*z^2 + y*z^2
        (0, 0, 0, 1, 0, 0, 0, -1, 0, 0),  # x*y^2 - y^2*z
        (0, 0, 1, 0, 0, 0, 0, 1, 0, 0),   # x^2*z + y^2*z
        (0, 0, 0, 0, 1, 1, 0, 0, 1, 0),   # x*y*z + x*z^2 + y*z^2
    ),
}

# integer generators; the last one, z*(x-y)*(y-x-z), is dropped for six_point
_INTEGER_GENERATORS = (
    (0, 1, 0, 0, 0, -1, 0, 3, -3, 0),   # x^2*y + 3y^2*z - x*z^2 - 3y*z^2
    (0, 0, 0, 1, 0, -2, 0, 3, -2, 0),   # x*y^2 + 3y^2*z - 2x*z^2 - 2y*z^2
    (0, 0, 1, 0, 0, 2, 0, -1, -2, 0),   # x^2*z - y^2*z + 2x*z^2 - 2y*z^2
    (0, 0, 0, 0, 1, 3, 0, 0, 3, 0),     # x*y*z + 3x*z^2 + 3y*z^2
    (0, 0, -1, 0, 2, -1, 0, -1, 1, 0),  # z*(x-y)*(y-x-z)
)


def require_bound(name, bound):
    """Reject an extension-degree bound outside 1..9.

    Below 1 it would scan no level.  Above 9 it would scan levels that hold
    no base point of a pencil of coprime cubics (Bezout), and so no
    witness and no preimage that level 9 lacks.
    """
    if bound < 1:
        raise ValueError(f"{name} must be at least 1, got {bound}")
    if bound > DEFAULT_SCAN_BOUND:
        raise ValueError(f"{name} must be at most {DEFAULT_SCAN_BOUND}, got {bound}: by Bezout's "
                         f"bound two coprime cubics meet only in points of degree at most 9")


def iter_vectors(p, length):
    """All coefficient vectors in (GF(p))^length, lexicographic, leftmost major."""
    return itertools.product(range(p), repeat=length)


class PointConfig:
    """1..7 pairwise distinct plane points with integer coordinates."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(tuple(int(c) for c in pt) for pt in points)
        if not 1 <= len(pts) <= 7:
            raise ValueError(f"a configuration needs 1..7 points, got {len(pts)}")
        for pt in pts:
            if len(pt) != 3 or all(c == 0 for c in pt):
                raise ValueError(f"bad projective point {pt}")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.points = pts

    @property
    def delta(self):
        return 9 - len(self.points)

    def __repr__(self):
        return f"PointConfig({list(self.points)})"


def reference_points(case):
    """The built-in point configuration for a reference case."""
    if case not in _REFERENCE_POINTS:
        raise ValueError(f"unknown case {case!r}; expected {FIVE_POINT!r} or {SIX_POINT!r}")
    return PointConfig(_REFERENCE_POINTS[case])


class CubicSystem:
    """A linear system of cubics: an ordered basis of forms over one prime field."""

    __slots__ = ("field", "basis", "provenance")

    def __init__(self, field, basis, provenance):
        basis = tuple(basis)
        if not basis:
            raise ValueError("a cubic system needs at least one basis form")
        for f in basis:
            if f.field != field:
                raise ValueError("basis forms must live over the system field")
        self.field = field
        self.basis = basis
        self.provenance = provenance

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"CubicSystem(dim={self.dim}, field={self.field}, {self.provenance})"


def iter_subspaces(p, n, k):
    """Every k-dimensional subspace of GF(p)^n, as its gf_rref rows.

    Pivot columns run over the k-subsets of range(n) in lexicographic
    order; for each, the free entries (right of a row's pivot, outside the
    pivot columns) run lexicographically over GF(p).
    """
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n) if j not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in pivots]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), x in zip(free, values):
                rows[i][j] = x
            yield tuple(tuple(row) for row in rows)


def vanishing_cubics(cfg, field):
    """The system of cubics vanishing on a configuration, canonical basis.

    field is a prime field GF(p); points are reduced mod p, and the
    reductions must stay pairwise distinct.  The basis is the RREF of the
    kernel of the evaluation matrix: the left kernel of its transpose, the
    10 monomial columns, by gf_left_kernel.
    """
    if field.k != 1:
        raise ValueError(f"cubic forms live over prime fields, not {field}")
    pts = [ProjPoint(field, pt) for pt in cfg.points]
    if len(set(pts)) != len(pts):
        raise ValueError(f"points collide after reduction into {field}")
    p = field.p
    pts = [pt.encode() for pt in pts]
    columns = [[x**i * y**j * z**k % p for x, y, z in pts] for (i, j, k) in MONOMIALS]
    kernel = gf_left_kernel(p, columns)
    if not kernel:
        raise ValueError("no cubics vanish on the configuration")
    basis = [TernaryForm(field, row) for row in kernel]
    return CubicSystem(field, basis, "computed-from-points")


def reference_system(case, field):
    """The verbatim reference basis (the fixture) for a case, reduced into GF(p).

    The dataset's coefficient vectors refer to this basis over GF(2).  Its
    forms do not vanish on reference_points(case): over GF(p) it is not
    vanishing_cubics(reference_points(case), field).
    """
    if case not in _REFERENCE_BASIS:
        raise ValueError(f"unknown case {case!r}; expected {FIVE_POINT!r} or {SIX_POINT!r}")
    rows = _REFERENCE_BASIS[case]
    basis = [TernaryForm(field, row) for row in rows]
    return CubicSystem(field, basis, "fixture")


def reduced_generator_system(case, p):
    """Integer generators reduced mod p, RREF-canonicalized row space.

    Their values at the reference points have gcd 7, so this is the system
    of cubics through the reduced points only at p = 7; at p = 2 it spans
    the fixture.
    """
    if case not in _REFERENCE_BASIS:
        raise ValueError(f"unknown case {case!r}; expected {FIVE_POINT!r} or {SIX_POINT!r}")
    field = build_field(p)
    gens = _INTEGER_GENERATORS if case == FIVE_POINT else _INTEGER_GENERATORS[:-1]
    rref, _ = gf_rref(p, gens)
    if not rref:
        raise ValueError(f"integer generators vanish identically mod {p}")
    basis = [TernaryForm(field, row) for row in rref]
    return CubicSystem(field, basis, "reduced-generators")


def same_span(sys1, sys2):
    """Whether two systems over the same field span the same space of cubics."""
    if sys1.field != sys2.field:
        return False

    def rref_of(sys):
        return gf_rref(sys.field.p, [f.coeffs for f in sys.basis])[0]

    return rref_of(sys1) == rref_of(sys2)


@lru_cache(maxsize=None)
def pencil_subspaces(p):
    """Each 2-subspace of GF(p)^3 as its first spanning pair (a, b), sorted once per p.

    For gf_rref rows (r0, r1) the pair (r1, r0) is the first one a
    lexicographic walk over pairs (a, b) meets, so sorting the pairs is
    that walk's order: it reaches unruly pencils sooner.
    """
    return tuple(sorted((r1, r0) for r0, r1 in iter_subspaces(p, 3, 2)))


def combination(coeffs, vectors, p):
    """Coordinates over GF(p) of sum(coeffs[i] * vectors[i]), each vector given by its coordinates."""
    return tuple(sum(map(mul, coeffs, column)) % p for column in zip(*vectors))


def pencil_normal(a, b):
    """The normal a x b of the pencil spanned by a and b: the target whose annihilator it is."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _monomial_coords(pt):
    """Coordinate tuples over GF(p) of the 10 cubic monomials at a point, in MONOMIALS order.

    Each monomial is the product of its coordinates' nonzero powers only.
    """
    powers = []
    for v in pt.coords:
        square = v * v
        powers.append((None, v, square, square * v))
    coords = []
    for exponents in MONOMIALS:
        value = None
        for power, e in zip(powers, exponents):
            if e:
                value = power[e] if value is None else value * power[e]
        coords.append(value.coords)
    return coords


class SystemPencils:
    """A walk's memo of the pencils of one cubic system, each decided once.

    The pencil of a plane with coefficient vectors V spanned by a.F and b.F
    is the subspace of the system spanned by the members a.V and b.V, so
    its key, the gf_rref rows of those two members, is the same for every
    plane and every spanning pair that holds it; the plane holds its keys
    (Plane.keys).  Per key the memo decides
    once whether the pencil shares a factor: decide takes many keys and
    decides them in stacks (forms.pairs_share_factor).  A full walk
    hands it every pencil of the system, the rows of
    iter_subspaces(p, dim, 2), before its first plane, and a lone plane
    all p^2+p+1 of its keys at once (make_plane); shares_factor only
    reads a decided key.  The scan reads levels
    1..bound as one stream of chunks (_scan.iter_chunks): over GF(2)
    levels 1-9 are a single chunk, and over GF(3) levels 1-5 one and
    level 6 another.  A member's zero set
    (_scan.zero_set) is taken once per chunk with the member scaled to a
    leading 1; the pencil's base points are the points of the first row's
    zero set that lie in the second's, in level-then-scan order.  A
    witness search reads them in one pass over the stream and takes the
    third member's zero set at the first of them.  A witness point is
    decoded, and its cubic monomials evaluated exactly, once per level and
    encoding.

    Build one per walk, never per system: every walk pays for its own
    decisions, and the memo lives as long as the planes that share it.
    pencil_tests counts the pencils test_pencil decides through it,
    key_lookups the keys read to admit or to test a plane (the
    shares_factor calls), and scanned_points the points that the member
    zero-set scans evaluated.
    """

    __slots__ = ("system", "_basis", "_forms", "_shares", "_zeros", "_points",
                 "pencil_tests", "key_lookups", "scanned_points")

    def __init__(self, system):
        self.system = system
        self._basis = np.array([f.coeffs for f in system.basis], dtype=np.int64)
        self._forms = {}
        self._shares = {}
        self._zeros = {}
        self._points = {}
        self.pencil_tests = 0
        self.key_lookups = 0
        self.scanned_points = 0

    def form(self, member):
        """The cubic form of a member, a coefficient vector over the system basis."""
        form = self._forms.get(member)
        if form is None:
            form = self._forms[member] = combine(member, self.system.basis)
        return form

    def decide(self, keys):
        """Decide for each undecided key whether the pencil's two spanning forms share a factor.

        The keys' forms are stacked, _DECIDE_BLOCK pencils at a time, and
        each block is decided by one pairs_share_factor call; a zero form
        counts as a shared factor.  Keys already decided are skipped.  A
        walk hands it every pencil of the system, and make_plane a lone
        plane's p^2+p+1 keys, so shares_factor never decides.
        """
        p = self.system.field.p
        todo = [key for key in keys if key not in self._shares]
        for start in range(0, len(todo), _DECIDE_BLOCK):
            block = todo[start:start + _DECIDE_BLOCK]
            pairs = np.array(block, dtype=np.int64) @ self._basis % p
            self._shares.update(zip(block, pairs_share_factor(p, pairs).tolist()))

    def shares_factor(self, key):
        """Whether the pencil's two spanning forms share a factor, read off a decided key."""
        self.key_lookups += 1
        return self._shares[key]

    def zero_set(self, member, chunk):
        """_scan.zero_set of a member, scaled to a leading 1, on a _scan.Chunk."""
        zeros = self._zeros.get((member, chunk.key))
        if zeros is None:
            p = self.system.field.p
            inv = pow(next(c for c in member if c), p - 2, p)
            monic = tuple(c * inv % p for c in member)
            if monic != member:
                return self.zero_set(monic, chunk)
            zeros = self._zeros[member, chunk.key] = _scan.zero_set(self.form(member).coeffs, chunk)
            self.scanned_points += len(chunk)
        return zeros

    def witness_encoding(self, key, third, bound):
        """The first base point of the pencil in levels 1..bound where the member third is nonzero.

        The point is first in level-then-scan order, and is returned as
        (level, encoded (x, y, z)), or None if there is none.
        """
        for chunk in _scan.iter_chunks(self.system.field.p, bound):
            first, second = (self.zero_set(row, chunk) for row in key)
            zeros = None
            for i in first:
                if i in second:
                    if zeros is None:
                        zeros = self.zero_set(third, chunk)
                    if i not in zeros:
                        return chunk.point(i)
        return None

    def witness_point(self, ext, enc):
        """The point with encoding enc at level ext, and its exact _monomial_coords."""
        point = self._points.get((ext.k, enc))
        if point is None:
            pt = _scan.decode_point(ext, enc)
            point = self._points[ext.k, enc] = (pt, _monomial_coords(pt))
        return point

    def counters(self):
        """Shared-factor decisions, zero-set scans and their points, pencil tests, key lookups and witness points."""
        return {"system_pencils": len(self._shares), "member_zero_sets": len(self._zeros),
                "scanned_points": self.scanned_points, "pencil_tests": self.pencil_tests,
                "key_lookups": self.key_lookups, "witness_points": len(self._points)}


def _key_block(p, pair_rows, rows):
    """The pencil keys of a block of planes: per plane, {(a, b): key} in pencil_subspaces order.

    rows is the (B, 3, dim) stack of the planes' gf_rref rows R, and
    pair_rows the (P, 2, 3) gf_rref rows M of the planes' pencil_subspaces
    pairs, in R's coordinates.  M.R is then the key: it spans the pencil,
    and it is in RREF, because R is the identity at its pivot columns, so
    M.R reads M there and is zero left of each row's pivot.  One product
    and one tolist key the block; no elimination is needed.
    """
    pairs = pencil_subspaces(p)
    members = pair_rows @ rows[:, None] % p
    members = map(tuple, members.reshape(-1, members.shape[-1]).tolist())
    # consecutive members pair up into keys, and len(pairs) consecutive keys make a plane's
    keys = list(zip(members, members))
    return [dict(zip(pairs, keys[i:i + len(pairs)])) for i in range(0, len(keys), len(pairs))]


def _plane_keys(p, vectors):
    """The pencil keys of a lone plane with coefficient vectors V, in pencil_subspaces order.

    Each pair (a, b) is keyed by its definition, the gf_rref rows of the
    members a.V and b.V.
    """
    return {(a, b): gf_rref(p, (combination(a, vectors, p), combination(b, vectors, p)))[0]
            for a, b in pencil_subspaces(p)}


class Plane:
    """A rank-3 subsystem of a cubic system with coprime spanning forms.

    pencils is the walk's SystemPencils, which decides the plane's pencils,
    and keys maps each pencil_subspaces pair (a, b) to its pencil's key, the
    gf_rref rows of the members a.V and b.V.
    """

    __slots__ = ("system", "vectors", "forms", "pencils", "keys")

    def __init__(self, system, vectors, forms, pencils, keys):
        self.system = system
        self.vectors = vectors
        self.forms = forms
        self.pencils = pencils
        self.keys = keys

    @property
    def field(self):
        return self.system.field

    def key(self, a, b):
        """The key of the pencil spanned by independent a, b with entries in 0..p-1.

        Any other pair spanning the pencil reads the key of its first
        spanning pair, the one pencil_subspaces lists.
        """
        key = self.keys.get((a, b))
        if key is None:
            r0, r1 = gf_rref(self.field.p, (a, b))[0]
            key = self.keys[r1, r0]
        return key

    def __repr__(self):
        return f"Plane{self.vectors}"


def make_plane(system, v, u, t, pencils=None, keys=None):
    """Build a plane from three coefficient vectors, or None if rejected.

    Rejection reasons: the stacked vectors have rank < 3 over the system
    field, or the three combined forms share a nonconstant factor.  pencils
    is the walk's SystemPencils, and keys the plane's pencil keys from its
    walk's block (walk_planes), decided before the walk's first plane; a
    lone plane gets a memo of its own unless one is given, keys each of
    its p^2+p+1 pencils by its definition (_plane_keys), and hands all of
    them to pencils.decide in one call.  A pencil that shares no factor
    proves the forms share none; the rational pencils are tried in walk
    order (pencil_subspaces), and only when all of them share a factor
    does common_factor_all decide.
    """
    if pencils is None:
        pencils = SystemPencils(system)
    elif pencils.system is not system:
        raise ValueError("the pencil memo belongs to another cubic system")
    field = system.field
    vecs = []
    for w in (v, u, t):
        w = tuple(int(c) % field.p for c in w)
        if len(w) != system.dim:
            raise ValueError(f"coefficient vector length {len(w)} != system dim {system.dim}")
        vecs.append(w)
    if gf_rank(field.p, vecs) < 3:
        return None
    forms = [pencils.form(w) for w in vecs]
    if any(f.is_zero() for f in forms):
        return None
    vecs = tuple(vecs)
    if keys is None:
        keys = _plane_keys(field.p, vecs)
        pencils.decide(keys.values())
    if all(map(pencils.shares_factor, keys.values())) and common_factor_all(forms):
        return None
    return Plane(system, vecs, tuple(forms), pencils, keys)


def walk_planes(system, subspaces, pencils):
    """make_plane of each subspace, given by its gf_rref rows, in order: a Plane or None.

    The walk's memo pencils first decides every pencil of the system.  The
    subspaces are then keyed _PLANE_BLOCK at a time: their rows are their
    own gf_rref rows, so every pencil_subspaces pair (a, b) of every plane
    in the block is keyed by one product with the pairs' rows (b, a).
    """
    p = system.field.p
    pencils.decide(iter_subspaces(p, system.dim, 2))
    pair_rows = np.array([(b, a) for a, b in pencil_subspaces(p)], dtype=np.int64)
    subspaces = iter(subspaces)
    while block := list(itertools.islice(subspaces, _PLANE_BLOCK)):
        keys = _key_block(p, pair_rows, np.array(block, dtype=np.int64))
        for rows, plane_keys in zip(block, keys):
            yield make_plane(system, *rows, pencils=pencils, keys=plane_keys)


class BaseLocus:
    """Base locus of a set of forms: positive-dimensional flag or points by degree."""

    __slots__ = ("positive_dimensional", "points_by_degree", "scan_bound")

    def __init__(self, positive_dimensional, points_by_degree, scan_bound):
        self.positive_dimensional = positive_dimensional
        self.points_by_degree = points_by_degree
        self.scan_bound = scan_bound

    def total_points(self):
        return sum(len(v) for v in self.points_by_degree.values())

    def __repr__(self):
        if self.positive_dimensional:
            return "BaseLocus(positive-dimensional)"
        counts = {d: len(v) for d, v in self.points_by_degree.items() if v}
        return f"BaseLocus({counts})"


def base_locus(forms, scan_bound=DEFAULT_SCAN_BOUND):
    """Common zeros of 1..3 nonzero forms over GF(p^d), d = 1..scan_bound.

    Positive-dimensionality (a shared factor, or a single form) is detected
    exactly first; in that case the point scan is skipped.  Otherwise
    points_by_degree[d] lists the common zeros of minimal degree exactly d,
    sorted by coordinate encoding.
    """
    forms = list(forms)
    if not 1 <= len(forms) <= 3:
        raise ValueError("base_locus expects 1..3 forms")
    require_bound("scan_bound", scan_bound)
    # refuses zero forms and mixed fields before any scan
    positive = common_factor_all(forms)
    points = {}
    if not positive:
        for d, encodings in _scan.common_zero_encodings(forms, scan_bound).items():
            ext = build_field(forms[0].field.p, d)
            points[d] = [pt for pt in (_scan.decode_point(ext, enc) for enc in sorted(encodings))
                         if minimal_degree(pt) == d]
    return BaseLocus(positive, points, scan_bound)
