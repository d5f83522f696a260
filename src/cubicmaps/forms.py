"""Ternary cubic forms and common-factor detection.

A cubic form in x, y, z is a vector of 10 coefficients over a fixed
monomial order (graded-lex with x > y > z):

    x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3

That order is frozen: every coefficient vector in the package, every
rendered form and every dataset coordinate refers to it.  Forms live only
over a prime field GF(p), with int residues 0..p-1 as coefficients.
Extension fields GF(p^k), k > 1, carry points and scans, never forms.

Common factors are decided exactly over prime fields by linear algebra on
integer residues.  Two cubics f, g share a nonconstant factor iff the 12
Sylvester rows mu*f and mu*g, mu over the 6 quadric monomials, written over
the 21 quintic monomials, have rank below 12; forward elimination alone
finds that rank (gf_rank).  For three forms the gcd of
the first two is needed only when they share a factor; it is read off a
one-dimensional kernel of the same kind of matrix and tested against the
third form with the same rank criterion.

The pencils of a cubic system are decided with the same criterion, many
at once: pairs_share_factor scatters the Sylvester rows of a stack of
pairs and takes all their ranks in one numpy elimination (gf_ranks).
linsys.SystemPencils keys a pencil by the RREF of its two spanning
members and decides its keys in such stacks.  has_common_factor stays
the single-pair test, and the reference the stacked verdicts are tested
against.
"""

from functools import lru_cache

import numpy as np

from .finitefield import ProjPoint, Scalar, gf_left_kernel, gf_rank, gf_ranks

MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

MONOMIAL_NAMES = (
    "x^3", "x^2*y", "x^2*z", "x*y^2", "x*y*z",
    "x*z^2", "y^3", "y^2*z", "y*z^2", "z^3",
)


def _coerce_coeff(field, c):
    if isinstance(c, int):
        return c % field.p
    if isinstance(c, Scalar):
        return field.scalar(c).coords[0]
    raise TypeError(f"coefficients over {field} must be int or Scalar, got {type(c).__name__}")


class TernaryForm:
    """A homogeneous cubic in x, y, z: 10 coefficients in the frozen order."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 10:
            raise ValueError(f"a cubic form needs 10 coefficients, got {len(coeffs)}")
        if field.k != 1:
            raise ValueError(f"cubic forms live over prime fields, not {field}")
        self.field = field
        self.coeffs = tuple(_coerce_coeff(field, c) for c in coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TernaryForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, TernaryForm) or other.field != self.field:
            raise ValueError("can only add forms over the same coefficient field")
        return TernaryForm(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, c):
        c = _coerce_coeff(self.field, c)
        return TernaryForm(self.field, tuple(c * a for a in self.coeffs))

    def __repr__(self):
        return f"TernaryForm({render_form(self)!r})"


def combine(coeffs, basis):
    """The linear combination sum(coeffs[i] * basis[i]) of cubic forms.

    Coefficients are ints, or Scalars of the basis field.
    """
    if not basis:
        raise ValueError("empty basis")
    if len(coeffs) != len(basis):
        raise ValueError(f"coefficient vector length {len(coeffs)} != basis size {len(basis)}")
    field = basis[0].field
    if any(form.field != field for form in basis):
        raise ValueError("can only add forms over the same coefficient field")
    cs = [_coerce_coeff(field, c) for c in coeffs]
    terms = [(c, form.coeffs) for c, form in zip(cs, basis) if c]
    return TernaryForm(field, [sum(c * a[i] for c, a in terms) for i in range(10)])


def evaluate(form, point):
    """The value of a cubic form at a point.

    The point may be a ProjPoint or a triple of Scalars (or integer
    encodings); at points over an extension GF(p^k) the residue
    coefficients embed as constants.
    """
    if isinstance(point, ProjPoint):
        coords = point.coords
    else:
        coords = tuple(point)
        if not all(isinstance(c, Scalar) for c in coords):
            coords = tuple(form.field.scalar(c) for c in coords)
    if len(coords) != 3:
        raise ValueError("a point of P^2 needs 3 coordinates")
    target = coords[0].field
    if target.p != form.field.p:
        raise ValueError(f"cannot evaluate a form over {form.field} at a point over {target}")
    x, y, z = coords
    total = target.zero()
    for c, (i, j, k) in zip(form.coeffs, MONOMIALS):
        if c:
            total = total + target.scalar(c) * x**i * y**j * z**k
    return total


# -- rendering and parsing --


def render_form(form):
    """Plain-text rendering "c*x^3 + c*x^2*y + ..." of the nonzero terms."""
    parts = [f"{c}*{name}" for c, name in zip(form.coeffs, MONOMIAL_NAMES) if c]
    return " + ".join(parts) if parts else "0"


def parse_form(text, field):
    """Parse the render_form grammar back into a TernaryForm."""
    text = text.strip()
    if text == "0":
        return TernaryForm(field, [0] * 10)
    index = {name: i for i, name in enumerate(MONOMIAL_NAMES)}
    parsed = {}
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in form text {text!r}")
        if "*" in term:
            head, _, tail = term.partition("*")
            if head.lstrip("-").isdigit():
                coeff_text, mono = head, tail
            else:
                coeff_text, mono = "1", term
        else:
            coeff_text, mono = "1", term
        mono = mono.strip()
        if mono not in index:
            raise ValueError(f"unknown monomial {mono!r} in form text")
        if index[mono] in parsed:
            raise ValueError(f"monomial {mono!r} appears twice in form text")
        parsed[index[mono]] = int(coeff_text)
    return TernaryForm(field, [parsed.get(i, 0) for i in range(10)])


# -- common factors over a prime field: Sylvester rank tests --
#
# Forms of degree d are coefficient lists over the degree-d monomials in
# the graded-lex order of MONOMIALS.  Nonzero f of degree m and g of degree
# n share a nonconstant factor iff A*f = B*g for some A of degree n - 1 and
# B of degree m - 1, not both zero (Cox-Little-O'Shea, ch. 3): a shared h
# gives A = (g/h)*mu, B = (f/h)*mu for a monomial mu of degree deg h - 1,
# and for coprime f, g the form f divides B, so deg B < m forces B = 0.
# So the rows mu*f (mu of degree n - 1) and mu*g (mu of degree m - 1) are
# dependent iff the forms share a factor.


@lru_cache(maxsize=None)
def _monomials(d):
    """Exponent triples of degree d, graded-lex with x > y > z."""
    return tuple((i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1))


@lru_cache(maxsize=None)
def _shift_table(m, d):
    """For each monomial mu of degree d, the index of mu*nu in degree m + d for each nu of degree m."""
    index = {e: i for i, e in enumerate(_monomials(m + d))}
    return tuple(
        tuple(index[(a + u, b + v, c + w)] for a, b, c in _monomials(m))
        for u, v, w in _monomials(d)
    )


def _multiples(f, m, d):
    """The rows mu*f, mu over the monomials of degree d, for f of degree m."""
    width = len(_monomials(m + d))
    terms = [(i, c) for i, c in enumerate(f) if c]
    rows = []
    for targets in _shift_table(m, d):
        row = [0] * width
        for i, c in terms:
            row[targets[i]] = c
        rows.append(row)
    return rows


def _shares_factor(p, f, m, g, n):
    """Whether nonzero f (degree m) and g (degree n) share a nonconstant factor."""
    rows = _multiples(f, m, n - 1) + _multiples(g, n, m - 1)
    return gf_rank(p, rows) < len(rows)


def _common_factor(p, f, m, g, n):
    """(h, e): a gcd h of degree e >= 1 of f (degree m) and g (degree n), which share a factor.

    With h = gcd(f, g), the pairs (A, B) of degrees (n - e, m - e) with
    A*f + B*g = 0 are zero for e > deg h and, at e = deg h, the multiples
    of (g/h, -f/h).  So the largest e with a nonzero kernel is deg h, its B
    spans f/h, and h is the quotient that solves h*(f/h) = f.
    """
    for e in range(min(m, n), 0, -1):
        kernel = gf_left_kernel(p, _multiples(f, m, n - e) + _multiples(g, n, m - e))
        if kernel:
            break
    cofactor = kernel[0][len(_monomials(n - e)):]
    # the one dependency h_nu*(nu*cofactor) + c*f = 0 has c != 0
    quotient = gf_left_kernel(p, _multiples(cofactor, m - e, e) + [f])[0]
    return quotient[:-1], e


def _prime_coeffs(forms):
    """Coefficient residues of nonzero forms over one prime field, and that p."""
    field = forms[0].field
    for form in forms:
        if form.field != field:
            raise ValueError(f"mixed fields: {field} vs {form.field}")
        if form.is_zero():
            raise ValueError("common-factor detection needs nonzero forms")
    return field.p, [form.coeffs for form in forms]


def has_common_factor(f, g):
    """True iff two nonzero cubics over a prime field share a nonconstant factor."""
    p, (f, g) = _prime_coeffs([f, g])
    return _shares_factor(p, f, 3, g, 3)


@lru_cache(maxsize=None)
def _sylvester_columns():
    """The quintic column of each coefficient in the 12 Sylvester rows: mu*f for the 6 quadrics mu, then mu*g."""
    return np.array(_shift_table(3, 2) * 2)


def pairs_share_factor(p, pairs):
    """Which of B cubic pairs over GF(p) share a nonconstant factor: a length-B bool array.

    pairs is a (B, 2, 10) integer array of coefficient vectors.  Each pair's
    12 Sylvester rows mu*f and mu*g, mu over the quadric monomials, are
    scattered through _shift_table into one (B, 12, 21) stack, and gf_ranks
    decides every pair in one elimination: the pair shares a factor iff its
    rank is below 12, as for has_common_factor.  A zero form gives zero
    rows, so a pair that holds one counts as sharing a factor.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.shape[1:] != (2, 10):
        raise ValueError(f"expected a (B, 2, 10) array of cubic pairs, got shape {pairs.shape}")
    rows = np.arange(12)[:, None]
    stack = np.zeros((len(pairs), 12, 21), dtype=np.int64)
    stack[:, rows, _sylvester_columns()] = pairs[:, rows // 6, np.arange(10)]
    return gf_ranks(p, stack) < 12


def common_factor_all(forms):
    """True iff all the cubics, over one prime field, share one nonconstant factor.

    The running gcd is computed only while the forms so far share a
    factor; the last form needs just the rank test against it.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("common_factor_all needs at least one form")
    p, coeffs = _prime_coeffs(forms)
    h, e = coeffs[0], 3
    for g in coeffs[1:-1]:
        if not _shares_factor(p, h, e, g, 3):
            return False
        h, e = _common_factor(p, h, e, g, 3)
    return len(coeffs) == 1 or _shares_factor(p, h, e, coeffs[-1], 3)
