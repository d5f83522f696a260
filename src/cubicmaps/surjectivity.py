"""Unruly-pencil surjectivity criterion and an independent forward oracle.

A plane of cubics defines the rational map f = [f0:f1:f2].  A pencil
inside the plane is *unruly* when its base locus is 0-dimensional and
adds no geometric point to the base locus of the plane: scanning levels
GF(q^d) for d = 1..scan_bound finds no common zero of the pencil at which
some plane form is nonzero.  The plane's label is 0 exactly when some
rational pencil is unruly, and 1 otherwise.

The forward oracle checks the same property from the image side: a target
point of P^2(GF(q)) is covered iff its annihilator pencil (combinations
c0*f0 + c1*f1 + c2*f2 with c orthogonal to the target) is
positive-dimensional, or some source point over GF(q^d), d <= source_bound,
outside the plane's base locus maps onto it.  For coprime cubics the
geometric base points of a pencil have degree at most 9 (Bezout), so
scan_bound = 9 is exhaustive and label 1 must coincide with an empty
uncovered set.

Only pencils rational over the base field are scanned, so label 1
certifies surjectivity onto GF(q)-rational targets.
"""

from . import _scan
from .finitefield import build_field, enumerate_p2
from .forms import MONOMIALS, pencil_shares_factor
from .linsys import (
    DEFAULT_SCAN_BOUND,
    gf_rref,
    iter_subspaces,
    iter_vectors,
    make_plane,
    pencil,
    require_bound,
    vanishing_cubics,
)

UNRULY = "unruly"
NOT_UNRULY = "not_unruly"
POSITIVE_DIMENSIONAL = "positive_dimensional"


class UnrulyVerdict:
    """Outcome of testing one pencil; witness present iff status is not_unruly."""

    __slots__ = ("status", "witness")

    def __init__(self, status, witness=None):
        self.status = status
        self.witness = witness

    def __repr__(self):
        if self.witness is not None:
            return f"UnrulyVerdict({self.status}, witness={self.witness})"
        return f"UnrulyVerdict({self.status})"


class SurjectivityLabel:
    """Label of a plane: 0 iff unruly_pencils is nonempty.

    verdicts holds ((a, b), UnrulyVerdict) for every pencil tested, in walk order.
    """

    __slots__ = ("value", "unruly_pencils", "verdicts")

    def __init__(self, value, unruly_pencils, verdicts):
        self.value = value
        self.unruly_pencils = tuple(unruly_pencils)
        self.verdicts = tuple(verdicts)

    def __repr__(self):
        return f"SurjectivityLabel({self.value}, unruly={list(self.unruly_pencils)})"


def _pencil_subspaces(p):
    """The 2-subspaces of GF(p)^3 as gf_rref rows (r0, r1); (r1, r0) is each one's first spanning pair."""
    # the order a lexicographic walk over pairs meets them in: it reaches unruly pencils sooner
    return sorted(iter_subspaces(p, 3, 2), key=lambda r: (r[1], r[0]))


def _spanning_pairs(p, r0, r1):
    """Every ordered pair of independent vectors of the span of r0 and r1."""
    xs = list(iter_vectors(p, 2))
    vec = {(x, y): tuple((x * a + y * b) % p for a, b in zip(r0, r1)) for x, y in xs}
    return [(vec[c], vec[d]) for c in xs for d in xs if (c[0] * d[1] - c[1] * d[0]) % p]


def _monomial_coords(pt):
    """Coordinate tuples over GF(p) of the 10 cubic monomials at a point, in MONOMIALS order."""
    one = pt.field.one()
    powers = []
    for v in pt.coords:
        square = v * v
        powers.append((one, v, square, square * v))
    xs, ys, zs = powers
    return [(xs[i] * ys[j] * zs[k]).coords for i, j, k in MONOMIALS]


def _vanishes_at(form, monomials):
    """Whether a cubic over GF(p) vanishes where its monomials have the given coordinates."""
    p = form.field.p
    return not any(
        sum(c * v for c, v in zip(form.coeffs, column)) % p for column in zip(*monomials)
    )


def test_pencil(plane, a, b, scan_bound=DEFAULT_SCAN_BOUND):
    """Verdict for the pencil of a plane spanned by coefficient vectors a, b.

    Dependent vectors or a shared factor of the two combined forms give
    positive_dimensional; the factor is decided from the plane's quadric
    syzygies, before the pencil's forms are built.  Otherwise GF(q^d) is
    scanned for d ascending; the first common zero of the pencil at which
    some plane form is nonzero is returned as a not_unruly witness, and
    exhausting all levels gives unruly.
    """
    field = plane.field
    p = field.p
    if len(a) != 3 or len(b) != 3:
        raise ValueError("pencil coefficient vectors have length 3")
    require_bound("scan_bound", scan_bound)
    if len(gf_rref(p, (a, b))[0]) < 2:
        return UnrulyVerdict(POSITIVE_DIMENSIONAL)
    normal = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    if pencil_shares_factor(p, plane.syzygies, normal):
        return UnrulyVerdict(POSITIVE_DIMENSIONAL)
    spec = pencil(plane, a, b)
    for d in range(1, scan_bound + 1):
        ext = build_field(p, d)
        enc = _scan.find_witness_encoding(spec.forms, plane.forms, ext)
        if enc is not None:
            pt = _scan.decode_point(ext, enc)
            monomials = _monomial_coords(pt)
            if not all(_vanishes_at(h, monomials) for h in spec.forms):
                raise AssertionError("witness fails pencil-vanishing recheck")
            if all(_vanishes_at(h, monomials) for h in plane.forms):
                raise AssertionError("witness fails plane-nonvanishing recheck")
            return UnrulyVerdict(NOT_UNRULY, pt)
    return UnrulyVerdict(UNRULY)


def label_plane(plane, scan_bound=DEFAULT_SCAN_BOUND, find_all=False):
    """Label a plane by testing each rational pencil once, in deterministic order.

    The pencils are the 2-subspaces of GF(p)^3, each tested on its first
    spanning pair (a, b) in lexicographic order; the first unruly one is
    reported as that pair.  With find_all the walk continues past the first
    unruly pencil and reports every ordered spanning pair of every unruly
    pencil, sorted.  The label keeps the verdict of every pencil it tests,
    in walk order; without find_all they end at the first unruly pencil.
    """
    require_bound("scan_bound", scan_bound)
    p = plane.field.p
    unruly = []
    verdicts = []
    for r0, r1 in _pencil_subspaces(p):
        verdict = test_pencil(plane, r1, r0, scan_bound)
        verdicts.append(((r1, r0), verdict))
        if verdict.status == UNRULY:
            if not find_all:
                return SurjectivityLabel(0, [(r1, r0)], verdicts)
            unruly.extend(_spanning_pairs(p, r0, r1))
    return SurjectivityLabel(0 if unruly else 1, sorted(unruly), verdicts)


def forward_oracle(plane, source_bound=DEFAULT_SCAN_BOUND):
    """Targets of P^2(GF(q)) not reached by the map, as a sorted list.

    A target is covered when its annihilator pencil, whose normal is the
    target, is positive-dimensional, or when a source point over GF(q^d)
    for some d <= source_bound, outside the plane's base locus, maps onto
    it.
    A plane labeled 1 must give an empty list at source_bound 9.
    """
    field = plane.field
    require_bound("source_bound", source_bound)
    p = field.p
    remaining = {t.encode(): t for t in enumerate_p2(field)}
    ext = build_field(p, 1)
    for enc in _scan.covered_target_encodings(plane.forms, ext):
        remaining.pop(enc, None)
    for enc in list(remaining):
        if pencil_shares_factor(p, plane.syzygies, enc):
            del remaining[enc]
    for d in range(2, source_bound + 1):
        if not remaining:
            break
        ext = build_field(p, d)
        for enc in _scan.covered_target_encodings(plane.forms, ext):
            remaining.pop(enc, None)
    return [remaining[enc] for enc in sorted(remaining)]


def find_unruly_seven_points(cfg, field, scan_bound=2):
    """First unruly pencil of the net of cubics through 7 points, or None.

    The system of cubics vanishing on the configuration must be
    3-dimensional (general position); it is then itself treated as the
    plane and all rational pencils are scanned.  scan_bound = 2 is
    exhaustive here: a 0-dimensional pencil of cubics has at most 9
    geometric base points, at least 7 of which are the rational
    configuration points, so any witness lies in an orbit of size at most
    2 and hence over GF(q^2).
    """
    if len(cfg.points) != 7:
        raise ValueError("the search needs exactly 7 points")
    system = vanishing_cubics(cfg, field)
    if system.dim != 3:
        raise ValueError(
            f"configuration is too special: expected a 3-dimensional system, got {system.dim}"
        )
    plane = make_plane(system, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    if plane is None:
        raise ValueError("configuration is too special: the system has a fixed component")
    label = label_plane(plane, scan_bound)
    if label.value == 0:
        return pencil(plane, *label.unruly_pencils[0])
    return None
