"""Unruly-pencil surjectivity criterion and an independent forward oracle.

A plane of cubics defines the rational map f = [f0:f1:f2].  A pencil
inside the plane is *unruly* when its base locus is 0-dimensional and
adds no geometric point to the base locus of the plane: scanning levels
GF(q^d) for d = 1..scan_bound finds no common zero of the pencil at which
some plane form is nonzero.  The plane's label is 1 when no rational
pencil is unruly, and 0 when some is at the exhaustive scan_bound 9;
below it such a label is inconclusive.

The planes of one walk share their pencils, so a pencil's shared factor
is decided, and each member's zero set scanned per chunk of the scan
stream, once per walk by the SystemPencils memo the planes hold (linsys),
under the pencil's key, which each plane holds for every rational pencil
(Plane.keys).  The shared factors are decided in stacks before a pencil
is tested: a walk's for every pencil of the system, a lone plane's for
its p^2+p+1 pencils when make_plane builds it.
The stream reads levels 1..scan_bound in level-then-scan order, and packs
the small levels into one chunk: over GF(2) levels 1-9 are a single
chunk.  A pencil's base points are the common zeros of its two spanning
members.  The witness test, the first of them that lies off the plane's
base locus, is made per plane, in one pass over the first member's zero
sets.

The forward oracle checks the same property from the image side: a target
point of P^2(GF(q)) is covered iff some source point over GF(q^d),
d <= source_bound, outside the plane's base locus maps onto it.  It finds
those points by its own covering scan, which evaluates the plane's three
forms once per chunk of the same stream, and shares nothing with the
pencil verdicts: neither their shared-factor decisions nor their zero
sets.  So it cross-checks them independently.  For coprime cubics the
geometric base points of a pencil have degree at most 9 (Bezout), so
scan_bound = 9 is exhaustive and label 1 must coincide with an empty
uncovered set.

Only pencils rational over the base field are scanned, so label 1
certifies surjectivity onto GF(q)-rational targets.
"""

from functools import lru_cache

from . import _scan
from .finitefield import build_field, enumerate_p2
from .linsys import (
    DEFAULT_SCAN_BOUND,
    combination,
    make_plane,
    pencil_normal,
    pencil_subspaces,
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


def test_pencil(plane, a, b, scan_bound=DEFAULT_SCAN_BOUND):
    """Verdict for the pencil of a plane spanned by coefficient vectors a, b.

    Dependent vectors or a shared factor of the two combined forms give
    positive_dimensional; the factor was decided, with the plane's other
    pencils, in one of its SystemPencils' stacks, and is read under the
    key the plane holds for the pencil (Plane.key).  Otherwise the
    pencil's base points are read in one pass over the scan stream of
    levels 1..scan_bound, in level-then-scan order, off the memo's member
    zero sets, and the first one where plane form i is nonzero is
    returned as a not_unruly witness, for any i with (a x b)_i != 0: then
    a, b and e_i span GF(p)^3, so f_i is nonzero exactly off the plane's
    base locus among the pencil's base points.  So the witness lies at the lowest level that has one.
    Exhausting the stream gives unruly.
    The witness is rechecked exactly: the plane forms' values V there, in
    Scalar arithmetic, must have a.V = b.V = 0 and V nonzero; the point's
    monomial values are computed once per walk, by the memo, and the check
    is made per pencil.
    """
    field = plane.field
    p = field.p
    if len(a) != 3 or len(b) != 3:
        raise ValueError("pencil coefficient vectors have length 3")
    require_bound("scan_bound", scan_bound)
    a = tuple(c % p for c in a)
    b = tuple(c % p for c in b)
    # over GF(p), a x b is zero exactly when a and b are dependent
    normal = tuple(c % p for c in pencil_normal(a, b))
    if not any(normal):
        return UnrulyVerdict(POSITIVE_DIMENSIONAL)
    pencils = plane.pencils
    pencils.pencil_tests += 1
    key = plane.key(a, b)
    if pencils.shares_factor(key):
        return UnrulyVerdict(POSITIVE_DIMENSIONAL)
    third = plane.vectors[next(i for i, c in enumerate(normal) if c)]
    found = pencils.witness_encoding(key, third, scan_bound)
    if found is None:
        return UnrulyVerdict(UNRULY)
    d, enc = found
    pt, monomials = pencils.witness_point(build_field(p, d), enc)
    values = [combination(h.coeffs, monomials, p) for h in plane.forms]
    if any(combination(a, values, p)) or any(combination(b, values, p)):
        raise AssertionError("witness fails pencil-vanishing recheck")
    if not any(map(any, values)):
        raise AssertionError("witness fails plane-nonvanishing recheck")
    return UnrulyVerdict(NOT_UNRULY, pt)


def label_plane(plane, scan_bound=DEFAULT_SCAN_BOUND, find_all=False):
    """Label a plane by testing each rational pencil once, in deterministic order.

    The pencils are the 2-subspaces of GF(p)^3, each tested on its first
    spanning pair (a, b) in lexicographic order.  The walk stops at the
    first unruly pencil unless find_all, which tests every pencil.
    """
    require_bound("scan_bound", scan_bound)
    verdicts = []
    for a, b in pencil_subspaces(plane.field.p):
        verdict = test_pencil(plane, a, b, scan_bound)
        verdicts.append(((a, b), verdict))
        if verdict.status == UNRULY and not find_all:
            break
    return SurjectivityLabel(verdicts, scan_bound)


@lru_cache(maxsize=None)
def _targets(field):
    """The points of P^2(field) keyed by their encodings, in enumerate_p2's order; read only."""
    return {t.encode(): t for t in enumerate_p2(field)}


def forward_oracle(plane, source_bound=DEFAULT_SCAN_BOUND):
    """Targets of P^2(GF(q)) not reached by the map, as a sorted list.

    A target is covered when a source point over GF(q^d) for some
    d <= source_bound, outside the plane's base locus, maps onto it.  The
    covering scan reads levels 1..source_bound as one stream of chunks
    (_scan.iter_chunks), evaluates the plane's forms once per chunk, and
    stops once every target is covered.  Over GF(2) the stream at bound 9
    is one chunk, so that is one evaluation per form; over GF(3) levels
    1-5 are one chunk, level 6 another, and each larger level is
    streamed.  A plane labeled 1 must give an empty list at source_bound 9.

    A target t whose annihilator pencil (c.F with c orthogonal to t) shares
    a factor h needs no algebraic shortcut.  Every point of V(h) off the
    base locus maps onto t, and three cubics with no common factor meet in
    at most 9 geometric points.  h is defined over GF(p) of degree 1-3, and
    V(h) has more than 9 points over GF(p^d) for some d <= 5: lines, conics
    and conjugate line pairs by d = 4, conjugate line triples at d = 3, and
    absolutely irreducible cubics by Hasse-Weil at d = 5 for p = 2 and at
    d = 3 for p >= 3.  So from source_bound 5 on such a target is never
    listed; below it the list may hold a target that a higher level covers.
    """
    require_bound("source_bound", source_bound)
    p = plane.field.p
    targets = _targets(plane.field)
    remaining = set(targets)
    for chunk in _scan.iter_chunks(p, source_bound):
        remaining.difference_update(_scan.covered_encodings(plane.forms, chunk))
        if not remaining:
            break
    return [targets[enc] for enc in sorted(remaining)]


def find_unruly_seven_points(cfg, field):
    """First unruly pencil of the net of cubics through 7 points, as (plane, a, b), or None.

    The system of cubics vanishing on the configuration must be
    3-dimensional (general position); it is then itself treated as the
    plane, whose p^2+p+1 shared factors make_plane decides in one stack,
    and all rational pencils are scanned up to GF(q^2), which is
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
    return (plane, *unruly[0]) if unruly else None
