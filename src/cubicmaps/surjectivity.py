"""Unruly-pencil surjectivity criterion and an independent forward oracle.

A plane of cubics defines the rational map f = [f0:f1:f2].  A pencil
inside the plane is *unruly* when its base locus is 0-dimensional and
adds no geometric point to the base locus of the plane: scanning levels
GF(q^d) for d = 1..scan_bound finds no common zero of the pencil at which
some plane form is nonzero.  The plane's label is 1 when no rational
pencil is unruly, and 0 when some is at the exhaustive scan_bound 9;
below it such a label is inconclusive.

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
    iter_subspaces,
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
    """A plane's label, read off the verdicts of the pencils its walk tested.

    verdicts holds ((a, b), UnrulyVerdict) for every pencil tested, in walk
    order, each pencil by the pair it was tested on.  value is 1 when no
    verdict is unruly; otherwise it is 0 when scan_bound is exhaustive and
    None (inconclusive) below it, where a pencil without a witness up to the
    bound may have one above it.
    """

    __slots__ = ("verdicts", "scan_bound")

    def __init__(self, verdicts, scan_bound):
        self.verdicts = tuple(verdicts)
        self.scan_bound = scan_bound

    @property
    def unruly_pencils(self):
        """The tested pairs without a witness up to scan_bound, in walk order."""
        return tuple(pair for pair, verdict in self.verdicts if verdict.status == UNRULY)

    @property
    def value(self):
        if not self.unruly_pencils:
            return 1
        return 0 if self.scan_bound >= DEFAULT_SCAN_BOUND else None

    def __repr__(self):
        return f"SurjectivityLabel({self.value}, unruly={list(self.unruly_pencils)})"


def _pencil_subspaces(p):
    """The 2-subspaces of GF(p)^3 as gf_rref rows (r0, r1); (r1, r0) is each one's first spanning pair."""
    # the order a lexicographic walk over pairs meets them in: it reaches unruly pencils sooner
    return sorted(iter_subspaces(p, 3, 2), key=lambda r: (r[1], r[0]))


def pencil_normal(a, b):
    """The normal a x b of the pencil spanned by a and b: the target whose annihilator it is."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


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
    # over GF(p), a x b is zero exactly when a and b are dependent
    normal = tuple(c % p for c in pencil_normal(a, b))
    if not any(normal) or pencil_shares_factor(p, plane.syzygies, normal):
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
    spanning pair (a, b) in lexicographic order.  The walk stops at the
    first unruly pencil unless find_all, which tests every pencil.
    """
    require_bound("scan_bound", scan_bound)
    verdicts = []
    for r0, r1 in _pencil_subspaces(plane.field.p):
        verdict = test_pencil(plane, r1, r0, scan_bound)
        verdicts.append(((r1, r0), verdict))
        if verdict.status == UNRULY and not find_all:
            break
    return SurjectivityLabel(verdicts, scan_bound)


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


def find_unruly_seven_points(cfg, field):
    """First unruly pencil of the net of cubics through 7 points, or None.

    The system of cubics vanishing on the configuration must be
    3-dimensional (general position); it is then itself treated as the
    plane and all rational pencils are scanned up to GF(q^2), which is
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
    # the label's value is inconclusive below bound 9, but bound 2 is exhaustive here
    unruly = label_plane(plane, scan_bound=2).unruly_pencils
    return pencil(plane, *unruly[0]) if unruly else None
