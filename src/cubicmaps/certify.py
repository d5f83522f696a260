"""Exact certification of two explicit cubic maps and numeric preimages.

Two integer-coefficient maps of the projective plane are certified
surjective over the complex numbers:

    five_point: [x^2*y + y^2*z : x*y*z : x^2*y + x*y^2 + 2*y^2*z + x*z^2 + y*z^2]
    six_point:  [x^2*y + y^2*z + x*z^2 + y*z^2 : x*y^2 - y^2*z : x*y*z + x*z^2 + y*z^2]

Each certificate verifies, with exact rational arithmetic: explicit
preimages of the two coordinate points on the line y = 0, a parametric
family covering the rest of that line, the reduction of the generic
preimage problem for a target [a:1:b] to one quartic equation in one
variable, and the case analysis showing the quartic always has an
admissible root.  The arithmetic is RationalPoly's: a coefficient is a
Python int when it is integral and a Fraction only when it is not, and
point checks evaluate the maps at int coordinates, so the mostly integral
derivations run on ints.  The maps' component terms are built once, and
every certificate re-derives its quartics, substitutions and gcds from
copies of them.  Floating point enters only in numeric_preimage, which
constructs a preimage of an arbitrary complex target from the quartic's
roots and verifies it projectively to a tolerance.  It evaluates the
certified preimage quartic and map from complex terms compiled from them
once per process, in RationalPoly.evaluate's order, so its results are
those of evaluating the exact polynomials.  The roots are the eigenvalues
of the companion matrix np.roots would build, so they are np.roots' bits.

For the six_point case two clearings of the second target condition are
tracked.  The component relation g2 = b*g1 yields the quartic whose roots
reconstruct genuine preimages (used by numeric_preimage); the reference
relation, whose second member carries an extra +z term, reproduces the
reference quartic verbatim.  The two differ by N*D/x = x^2 - (2a+1)x +
a(a+1), which the certificate records; both agree at the special value
x = 1 + a, so the case analysis is common to them.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np

from .linsys import FIVE_POINT, SIX_POINT
from .ratpoly import RationalPoly, exact, univariate_gcd

_X = RationalPoly.var("x")
_Y = RationalPoly.var("y")
_Z = RationalPoly.var("z")
_A = RationalPoly.var("a")
_B = RationalPoly.var("b")

_CASES = (FIVE_POINT, SIX_POINT)


class ExplicitMap:
    """One of the two certified maps, with exact polynomial components."""

    __slots__ = ("case", "components")

    def __init__(self, case, components):
        self.case = case
        self.components = tuple(components)

    def __repr__(self):
        return f"ExplicitMap({self.case})"


# the component terms of both maps, built once; explicit_map hands out copies
_COMPONENTS = {
    FIVE_POINT: (
        _X**2 * _Y + _Y**2 * _Z,
        _X * _Y * _Z,
        _X**2 * _Y + _X * _Y**2 + 2 * _Y**2 * _Z + _X * _Z**2 + _Y * _Z**2,
    ),
    SIX_POINT: (
        _X**2 * _Y + _Y**2 * _Z + _X * _Z**2 + _Y * _Z**2,
        _X * _Y**2 - _Y**2 * _Z,
        _X * _Y * _Z + _X * _Z**2 + _Y * _Z**2,
    ),
}


def explicit_map(case):
    if case not in _COMPONENTS:
        raise ValueError(f"unknown case {case!r}; expected {FIVE_POINT!r} or {SIX_POINT!r}")
    return ExplicitMap(case, (c.copy() for c in _COMPONENTS[case]))


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def __repr__(self):
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


class Certificate:
    """A named bundle of checks; passes iff every check passes."""

    __slots__ = ("title", "checks")

    def __init__(self, title):
        self.title = title
        self.checks = []

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, passed, detail))

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def report(self):
        lines = [f"certificate {self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            lines.append(f"  {c!r}")
        return "\n".join(lines)

    def __repr__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"Certificate({self.title}, {state}, {len(self.checks)} checks)"


# -- exact evaluation helpers --


def evaluate_map(emap, triple):
    """Component values at a coordinate triple (exact or complex)."""
    x, y, z = triple
    values = {"x": x, "y": y, "z": z}
    return tuple(c.evaluate(values) for c in emap.components)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _exact_coords(coords):
    """Coordinates as exact numbers: ints where integral, Fractions elsewhere."""
    return [c if type(c) is int else exact(Fraction(c)) for c in coords]


def check_point_image(emap, source, target):
    """Exact projective equality f(source) = target; source must be outside I_f."""
    img = evaluate_map(emap, _exact_coords(source))
    if all(v == 0 for v in img):
        raise ValueError(f"source {tuple(source)} lies in the indeterminacy locus")
    tgt = _exact_coords(target)
    if all(v == 0 for v in tgt):
        raise ValueError("(0:0:0) is not a projective point")
    return all(v == 0 for v in _cross(img, tgt))


def find_rational_preimage(emap, target, height_bound=3):
    """First integer source triple (by height, then lex) mapping onto target."""
    tgt = _exact_coords(target)
    for height in range(1, height_bound + 1):
        span = range(-height, height + 1)
        for triple in itertools.product(span, repeat=3):
            if max(abs(c) for c in triple) != height:
                continue
            img = evaluate_map(emap, triple)
            if all(v == 0 for v in img):
                continue
            if all(v == 0 for v in _cross(img, tgt)):
                return triple
    return None


# -- quartic derivations --

_REFERENCE_QUARTIC = {
    FIVE_POINT: (
        _X**4
        + (1 - 2 * _A) * _X**3
        + (_A**2 - 3 * _A + _B) * _X**2
        + (2 * _A**2 - _A * _B - 1) * _X
        + (_A + 1)
    ),
    SIX_POINT: (
        _X**4
        + (2 - 2 * _A) * _X**3
        + (_A**2 - 4 * _A) * _X**2
        + (2 * _A**2 - _A + _B - 1) * _X
        + (_A**2 + _A * (1 - _B) - _B)
    ),
}


def reference_quartic(case):
    """The pinned expanded quartic for a case, in x over coefficients a, b."""
    if case not in _REFERENCE_QUARTIC:
        raise ValueError(f"unknown case {case!r}")
    return _REFERENCE_QUARTIC[case]


def _clear_z(poly, numer, denom):
    """Substitute z := numer/denom and clear denominators (z-degree many)."""
    coeffs = poly.univariate_coeffs("z")
    top = max(coeffs) if coeffs else 0
    out = RationalPoly.zero()
    for d in range(top + 1):
        part = coeffs.get(d)
        if part is not None:
            out = out + part * numer**d * denom ** (top - d)
    return out


def _six_numer_denom():
    n = _A * _X - _X**2
    d = 1 + _A - _X
    return n, d


def preimage_quartic(case):
    """The quartic whose roots reconstruct preimages of [a:1:b].

    five_point: on the chart z = 1 the first component relation forces
    y = a*x - x^2, and substituting into the second relation and dividing
    by x leaves this quartic (it equals the reference quartic).

    six_point: on the chart y = 1 the transformed first relation forces
    z = (a*x - x^2)/(1 + a - x) with a the difference of the two target
    coordinates; clearing the component relation g2 = b*g1 and dividing
    by x leaves this quartic.  It differs from the reference quartic by
    x^2 - (2a+1)x + a(a+1).
    """
    emap = explicit_map(case)
    if case == FIVE_POINT:
        f1 = emap.components[1].substitute("z", 1)
        f2 = emap.components[2].substitute("z", 1)
        relation = (f2 - _B * f1).substitute("y", _A * _X - _X**2)
        return relation.divide_exact(_X)
    n, d = _six_numer_denom()
    g1 = emap.components[1].substitute("y", 1)
    g2 = emap.components[2].substitute("y", 1)
    cleared = _clear_z(g2 - _B * g1, n, d)
    return cleared.divide_exact(_X)


def derive_quartic(case):
    """Certificate that the reference quartic follows from the map.

    Returns (certificate, reference quartic).  Checks: the first-component
    relation vanishes identically under the coordinate substitution; the
    cleared second relation is divisible by x; the quotient equals the
    pinned reference quartic; and (six_point) the component relation's
    quartic is recorded together with its difference from the reference.
    """
    cert = Certificate(f"{case} quartic derivation")
    emap = explicit_map(case)
    pinned = reference_quartic(case)
    if case == FIVE_POINT:
        f0 = emap.components[0].substitute("z", 1)
        f1 = emap.components[1].substitute("z", 1)
        f2 = emap.components[2].substitute("z", 1)
        ysub = _A * _X - _X**2
        first = (f0 - _A * f1).substitute("y", ysub)
        cert.add("first-relation-vanishes", first.is_zero(), f"residue {first!r}")
        relation = (f2 - _B * f1).substitute("y", ysub)
        try:
            quartic = relation.divide_exact(_X)
            cert.add("second-relation-divisible-by-x", True, f"quotient {quartic!r}")
        except ValueError:
            cert.add("second-relation-divisible-by-x", False, f"remainder in {relation!r}")
            return cert, pinned
        reduced = (
            _X**2 * (_A - _X)
            + _X**2 * (_A - _X) ** 2
            + 2 * _X * (_A - _X) ** 2
            + 1
            + _A
            - _X
            - _B * _X * (_A - _X)
        )
        cert.add("matches-reduced-form", quartic == reduced, f"{reduced!r}")
        cert.add("matches-reference", quartic == pinned, f"{pinned!r}")
        return cert, pinned
    n, d = _six_numer_denom()
    g0 = emap.components[0].substitute("y", 1)
    g1 = emap.components[1].substitute("y", 1)
    g2 = emap.components[2].substitute("y", 1)
    first = _clear_z((g0 - g2) - _A * g1, n, d)
    cert.add("first-relation-vanishes", first.is_zero(), f"residue {first!r}")
    component = _clear_z(g2 - _B * g1, n, d)
    try:
        comp_quartic = component.divide_exact(_X)
        cert.add("component-relation-divisible-by-x", True, f"quotient {comp_quartic!r}")
    except ValueError:
        cert.add("component-relation-divisible-by-x", False, f"remainder in {component!r}")
        return cert, pinned
    # the reference relation carries one extra +z, clearing to an extra n*d
    reference_rel = component + n * d
    try:
        ref_quartic = reference_rel.divide_exact(_X)
        cert.add("reference-relation-divisible-by-x", True, f"quotient {ref_quartic!r}")
    except ValueError:
        cert.add("reference-relation-divisible-by-x", False, f"remainder in {reference_rel!r}")
        return cert, pinned
    cert.add("matches-reference", ref_quartic == pinned, f"{pinned!r}")
    diff = ref_quartic - comp_quartic
    expected_diff = _X**2 - (2 * _A + 1) * _X + _A * (_A + 1)
    cert.add(
        "relation-difference-is-nd-over-x",
        diff == expected_diff,
        f"difference {diff!r}",
    )
    cert.add(
        "preimage-quartic-recorded",
        comp_quartic == preimage_quartic(case),
        f"{comp_quartic!r}",
    )
    return cert, pinned


def check_line_family(case):
    """Certificate for the parametric preimages of targets on the line y = 0."""
    cert = Certificate(f"{case} line family")
    emap = explicit_map(case)
    if case == FIVE_POINT:
        img = tuple(
            c.substitute("x", 0).substitute("y", 1).substitute("z", _A) for c in emap.components
        )
        want = (_A, RationalPoly.zero(), _A**2 + 2 * _A)
        cert.add("family-image", img == want, f"f(0,1,a) = {list(img)!r}")
        cross = _cross(img, (RationalPoly.const(1), RationalPoly.zero(), _A + 2))
        cert.add(
            "family-covers-line",
            all(c.is_zero() for c in cross),
            "f(0,1,a) is projectively [1:0:a+2] for a != 0",
        )
        cert.add(
            "family-instance",
            check_point_image(emap, (0, 1, 1), (1, 0, 3)),
            "f(0,1,1) = [1:0:3]",
        )
        found = find_rational_preimage(emap, (1, 0, 2))
        good = found is not None and check_point_image(emap, found, (1, 0, 2))
        cert.add(
            "family-gap-target",
            good,
            f"the family misses [1:0:2]; bounded search found source {found}",
        )
        return cert
    img = tuple(
        c.substitute("x", 1).substitute("y", _A).substitute("z", 1) for c in emap.components
    )
    want = ((_A + 1) ** 2, RationalPoly.zero(), 2 * _A + 1)
    cert.add("family-image", img == want, f"f(1,a,1) = {list(img)!r}")
    quad = _Y**2 + (2 - 2 * _A) * _Y + (1 - _A)
    built = (_Y + 1) ** 2 - _A * (2 * _Y + 1)
    cert.add("family-quadratic", built == quad, f"{quad!r}")
    residue = quad.substitute("y", Fraction(-1, 2))
    cert.add(
        "family-denominator-root-excluded",
        residue == RationalPoly.const(Fraction(1, 4)),
        f"value at y = -1/2 is {residue!r}",
    )
    cert.add(
        "family-instance",
        check_point_image(emap, (1, 0, 1), (1, 0, 1)),
        "f(1,0,1) = [1:0:1] (the a = 1 member, root y = 0)",
    )
    return cert


def check_special_cases(case):
    """Certificate for the root-exclusion case analysis of the quartic."""
    cert = Certificate(f"{case} special cases")
    quartic = preimage_quartic(case)
    if case == FIVE_POINT:
        const = quartic.substitute("x", 0)
        cert.add("zero-root-needs-a-neg1", const == _A + 1, f"constant term {const!r}")
        at_a = quartic.substitute("x", _A)
        cert.add("root-x-eq-a-excluded", at_a == RationalPoly.const(1),
                 f"value at x = a is {at_a!r} (so y = a*x - x^2 never vanishes at a root)")
        spec = quartic.substitute("a", -1)
        cubic = _X**3 + 3 * _X**2 + (_B + 4) * _X + (_B + 1)
        cert.add("a-neg1-reduction", spec == cubic * _X, f"cubic factor {cubic!r}")
        spec2 = cubic.substitute("b", -1)
        quad = _X**2 + 3 * _X + 3
        cert.add("a-neg1-b-neg1-reduction", spec2 == quad * _X, f"quadratic factor {quad!r}")
        cert.add(
            "final-quadratic-roots-nonzero",
            quad.substitute("x", 0) == RationalPoly.const(3),
            "constant term 3 != 0",
        )
        return cert
    reference = reference_quartic(case)
    ref_coeffs = reference.univariate_coeffs("x")
    c3, c2 = ref_coeffs[3], ref_coeffs[2]
    g = univariate_gcd(c3, c2, "a")
    cert.add(
        "pure-x4-impossible",
        g.total_degree() == 0 and not g.is_zero(),
        f"coefficients {c3!r} and {c2!r} share no root (gcd {g!r})",
    )
    pre_coeffs = quartic.univariate_coeffs("x")
    gp = univariate_gcd(pre_coeffs[3], pre_coeffs[2], "a")
    cert.add(
        "pure-x4-impossible-component-form",
        gp.total_degree() == 0 and not gp.is_zero(),
        f"gcd {gp!r}",
    )
    at_denom_ref = reference.substitute("x", 1 + _A)
    at_denom_pre = quartic.substitute("x", 1 + _A)
    want = _A**2 + 3 * _A + 2
    cert.add("denominator-root-value", at_denom_ref == want, f"value {at_denom_ref!r}")
    cert.add("denominator-root-value-component-form", at_denom_pre == want, f"value {at_denom_pre!r}")
    side = _X**2 + _Z - _X * _Z - _A * (_X - _Z)
    side_at = side.substitute("x", 1 + _A)
    cert.add(
        "denominator-root-side-relation",
        side_at == _A + 1,
        f"first relation at x = 1+a reduces to {side_at!r}, forcing a = -1 and hence x = 0, excluded",
    )
    n, d = _six_numer_denom()
    cert.add(
        "z-equals-x-forces-x-zero",
        _X * d - n == _X,
        "x*(1+a-x) - (a*x-x^2) = x, so z = x only at x = 0",
    )
    return cert


# -- numeric root finding and preimages --


class RootSolveError(RuntimeError):
    """Raised when a computed root or every candidate preimage fails its residual bound."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _poly_val(coeffs_desc, z):
    acc = 0j
    for c in coeffs_desc:
        acc = acc * z + c
    return acc


def solve_roots(coeffs):
    """All complex roots of sum(coeffs[i] * x^i), as companion-matrix eigenvalues.

    Zero top-degree coefficients are dropped first.  The roots are those
    np.roots returns, built the same way: each zero low-order coefficient
    is a root 0, listed last, and the rest are the eigenvalues of the
    companion matrix of the remaining coefficients.  Every root must
    satisfy |p(root)| <= 1e-8 * (1 + sum|coeffs|); otherwise
    RootSolveError carries all of them.
    """
    c = [complex(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise ValueError("the polynomial must have degree at least 1")
    desc = c[::-1]
    zeros = next(i for i, v in enumerate(c) if v)
    roots = []
    if zeros < len(c) - 1:
        p = np.array(desc[:len(c) - zeros])
        companion = np.eye(len(p) - 1, k=-1, dtype=p.dtype)
        companion[0] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion).tolist()
    roots += [0j] * zeros
    bound = 1e-8 * (1.0 + sum(abs(v) for v in c))
    bad = [z for z in roots if abs(_poly_val(desc, z)) > bound]
    if bad:
        raise RootSolveError(f"{len(bad)} roots failed the residual bound {bound:g}", roots)
    return roots


def projective_residual(u, v):
    """Sine of the angle between two complex coordinate triples."""
    nu = sum(abs(c) ** 2 for c in u) ** 0.5
    nv = sum(abs(c) ** 2 for c in v) ** 0.5
    if nu == 0.0 or nv == 0.0:
        return 1.0
    cr = _cross(u, v)
    return sum(abs(c) ** 2 for c in cr) ** 0.5 / (nu * nv)


@functools.lru_cache(maxsize=None)
def _numeric_form(case):
    """The preimage quartic and the map of a case as complex terms, built once.

    Returns (quartic, components): quartic[d] holds the (c, a-exponent,
    b-exponent) terms of the coefficient of x^d, and each component the
    (c, x-, y-, z-exponent) terms of one map component, both in the term
    order of the exact polynomials.
    """
    coeffs = preimage_quartic(case).univariate_coeffs("x")
    quartic = tuple(
        tuple((complex(c), e[3], e[4]) for e, c in coeffs[d].terms.items()) if d in coeffs else ()
        for d in range(5)
    )
    components = tuple(
        tuple((complex(c), e[0], e[1], e[2]) for e, c in comp.terms.items())
        for comp in explicit_map(case).components
    )
    return quartic, components


def _evaluate_terms(terms, point):
    """Sum of c * v**e over the terms, in RationalPoly.evaluate's term and factor order."""
    acc = None
    for term in terms:
        value = term[0]
        for v, e in zip(point, term[1:]):
            if e:
                value = value * v**e
        acc = value if acc is None else acc + value
    return 0j if acc is None else acc


def _quartic_coeffs_at(case, a, b):
    """Ascending complex coefficients of the preimage quartic at (a, b)."""
    point = (complex(a), complex(b))
    return [_evaluate_terms(terms, point) for terms in _numeric_form(case)[0]]


def _ordered_roots(coeffs):
    """Roots ordered by derivative magnitude, best-conditioned first."""
    roots = solve_roots(coeffs)
    deriv_desc = [i * coeffs[i] for i in range(len(coeffs) - 1, 0, -1)]
    return sorted(roots, key=lambda z: -abs(_poly_val(deriv_desc, z)))


def _numeric_image(case, triple):
    point = tuple(complex(c) for c in triple)
    return tuple(_evaluate_terms(terms, point) for terms in _numeric_form(case)[1])


def numeric_preimage(case, target, tol=1e-9):
    """A complex source triple mapping onto the target, with its residual.

    The target is any complex coordinate triple.  Targets with a nonzero
    middle coordinate go through the preimage quartic; targets on the
    line y = 0 use the certified parametric family.  Candidate sources
    are verified by projective residual and the first one below tol is
    returned; exhausting all candidates raises RootSolveError.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    t0, t1, t2 = (complex(c) for c in target)
    scale = max(abs(t0), abs(t1), abs(t2))
    if scale == 0.0:
        raise ValueError("(0:0:0) is not a projective point")
    candidates = []
    if abs(t1) > 1e-12 * scale:
        if case == FIVE_POINT:
            a, b = t0 / t1, t2 / t1
            for x in _ordered_roots(_quartic_coeffs_at(case, a, b)):
                if abs(x) < 1e-10 * (1.0 + abs(a)):
                    continue
                y = a * x - x * x
                candidates.append((x, y, 1.0 + 0j))
        else:
            big_a, big_b = t0 / t1, t2 / t1
            a, b = big_a - big_b, big_b
            for x in _ordered_roots(_quartic_coeffs_at(case, a, b)):
                denom = 1.0 + a - x
                if abs(x) < 1e-10 * (1.0 + abs(a)) or abs(denom) < 1e-10 * (1.0 + abs(a)):
                    continue
                z = (a * x - x * x) / denom
                candidates.append((x, 1.0 + 0j, z))
    elif case == FIVE_POINT:
        if abs(t0) <= 1e-12 * scale:
            candidates.append((1.0 + 0j, 0j, 1.0 + 0j))
        else:
            c = t2 / t0
            if abs(c - 2.0) < 1e-12:
                candidates.append((1.0 + 0j, 1.0 + 0j, 0j))
            else:
                candidates.append((0j, 1.0 + 0j, c - 2.0))
    else:
        if abs(t0) <= 1e-12 * scale:
            candidates.append((-1.0 + 0j, 1.0 + 0j, -1.0 + 0j))
        elif abs(t2) <= 1e-12 * scale:
            candidates.append((-2.0 + 0j, 1.0 + 0j, -2.0 + 0j))
        else:
            a = t0 / t2
            quad = [1.0 - a, 2.0 * (1.0 - a), 1.0 + 0j]
            roots = sorted(solve_roots(quad), key=lambda y: -abs(2.0 * y + 1.0))
            for y in roots:
                candidates.append((1.0 + 0j, y, 1.0 + 0j))
    tried = []
    for source in candidates:
        img = _numeric_image(case, source)
        if max(abs(v) for v in img) == 0.0:
            continue
        residual = projective_residual(img, (t0, t1, t2))
        if residual < tol:
            return source, residual
        tried.append(residual)
    raise RootSolveError(
        f"no candidate preimage of {target} reached residual {tol:g} (best {min(tried, default=1.0):g})",
        tried,
    )


def verify_case(case):
    """The full exact certificate for one map."""
    cert = Certificate(case)
    emap = explicit_map(case)
    if case == FIVE_POINT:
        points = (((0, 1, -2), (1, 0, 0)), ((1, 0, 1), (0, 0, 1)))
    else:
        points = (((-2, 1, -2), (1, 0, 0)), ((-1, 1, -1), (0, 0, 1)))
    for source, target in points:
        ok = check_point_image(emap, source, target)
        cert.add(
            f"point-preimage-{''.join(str(c) for c in target)}",
            ok,
            f"f({list(source)}) = [{':'.join(str(c) for c in target)}]",
        )
    cert.extend(check_line_family(case))
    quartic_cert, _ = derive_quartic(case)
    cert.extend(quartic_cert)
    cert.extend(check_special_cases(case))
    return cert
