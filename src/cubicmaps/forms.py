"""Ternary cubic forms and common-factor detection.

A cubic form in x, y, z is a vector of 10 coefficients over a fixed
monomial order (graded-lex with x > y > z):

    x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3

That order is frozen: every coefficient vector in the package, every
rendered form and every dataset coordinate refers to it.  Forms live either
over a finite field (coefficients are Scalars) or over the rationals
(coefficients are Fractions, tag RATIONALS).

Common factors are found exactly: forms are treated as polynomials in one
variable over the polynomial ring in the remaining two, and a fraction-free
(pseudo-division) Euclidean sequence with content recursion computes the
gcd.  Degenerate inputs that do not involve the chosen main variable are
handled by recursing on a variable the two forms share; no common variable
means no common factor.
"""

from fractions import Fraction

from .finitefield import Field, ProjPoint, Scalar, embed_scalar

MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

MONOMIAL_NAMES = (
    "x^3", "x^2*y", "x^2*z", "x*y^2", "x*y*z",
    "x*z^2", "y^3", "y^2*z", "y*z^2", "z^3",
)


class _Rationals:
    """Tag for forms with exact rational coefficients."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "QQ"


RATIONALS = _Rationals()


def _coerce_coeff(field, c):
    if field is RATIONALS:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"rational coefficients must be int or Fraction, got {type(c).__name__}")
    return field.scalar(c)


class TernaryForm:
    """A homogeneous cubic in x, y, z: 10 coefficients in the frozen order."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 10:
            raise ValueError(f"a cubic form needs 10 coefficients, got {len(coeffs)}")
        self.field = field
        self.coeffs = tuple(_coerce_coeff(field, c) for c in coeffs)

    def is_zero(self):
        if self.field is RATIONALS:
            return all(c == 0 for c in self.coeffs)
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TernaryForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self.field is RATIONALS:
            return hash(("QQ", self.coeffs))
        return hash((self.field.p, self.field.k, tuple(c.encode() for c in self.coeffs)))

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

    Coefficients are ints or Scalars of the basis field.
    """
    if not basis:
        raise ValueError("empty basis")
    if len(coeffs) != len(basis):
        raise ValueError(f"coefficient vector length {len(coeffs)} != basis size {len(basis)}")
    field = basis[0].field
    if any(form.field != field for form in basis):
        raise ValueError("can only add forms over the same coefficient field")
    if field is not RATIONALS and field.k == 1:
        # prime field: encodings are residues, so sum them as ints mod p
        p = field.p
        cs = [c % p if type(c) is int else field.scalar(c).coords[0] for c in coeffs]
        terms = [(c, form.coeffs) for c, form in zip(cs, basis) if c]
        return TernaryForm(
            field, [sum(c * a[i].coords[0] for c, a in terms) % p for i in range(10)]
        )
    out = None
    for c, form in zip(coeffs, basis):
        term = form.scaled(c)
        out = term if out is None else out + term
    return out


def evaluate(form, point):
    """The value of a cubic form at a point.

    Over a finite field the point may be a ProjPoint or a triple of Scalars
    (or integer encodings); a form over GF(p) is evaluated at extension
    points by embedding its coefficients.  Over the rationals the point is a
    triple of ints or Fractions.
    """
    if form.field is RATIONALS:
        x, y, z = (Fraction(c) if isinstance(c, int) else c for c in point)
        total = Fraction(0)
        for c, (i, j, k) in zip(form.coeffs, MONOMIALS):
            if c:
                total += c * x**i * y**j * z**k
        return total

    if isinstance(point, ProjPoint):
        coords = point.coords
    else:
        coords = tuple(point)
        if not all(isinstance(c, Scalar) for c in coords):
            coords = tuple(form.field.scalar(c) for c in coords)
    if len(coords) != 3:
        raise ValueError("a point of P^2 needs 3 coordinates")
    target = coords[0].field
    x, y, z = coords
    total = target.zero()
    for c, (i, j, k) in zip(form.coeffs, MONOMIALS):
        if not c.is_zero():
            total = total + embed_scalar(c, target) * x**i * y**j * z**k
    return total


def reduce_mod(form, field):
    """Reduce a rational form into a finite field (denominators must be units)."""
    if form.field is not RATIONALS:
        raise ValueError("reduce_mod expects a form over the rationals")
    if not isinstance(field, Field):
        raise ValueError("reduce_mod expects a finite target field")
    coeffs = []
    for c in form.coeffs:
        if c.denominator % field.p == 0:
            raise ValueError(f"denominator of {c} is divisible by p={field.p}")
        num = field.scalar(c.numerator % field.p)
        den = field.scalar(c.denominator % field.p)
        coeffs.append(num * den.inverse())
    return TernaryForm(field, coeffs)


# -- rendering and parsing --


def render_form(form):
    """Plain-text rendering "c*x^3 + c*x^2*y + ..." of the nonzero terms."""
    parts = []
    for c, name in zip(form.coeffs, MONOMIAL_NAMES):
        if form.field is RATIONALS:
            if c == 0:
                continue
            parts.append(f"{c}*{name}")
        else:
            if c.is_zero():
                continue
            parts.append(f"{c.encode()}*{name}")
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
            if head.lstrip("-").replace("/", "").isdigit():
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
        if field is RATIONALS:
            parsed[index[mono]] = Fraction(coeff_text)
        else:
            parsed[index[mono]] = field.scalar(int(coeff_text))
    return TernaryForm(field, [parsed.get(i, 0) for i in range(10)])


# -- exact multivariate gcd over a finite field --
#
# Sparse representation: dict mapping exponent triples to nonzero integer
# encodings of field elements, with arithmetic supplied by _Ops so the
# prime-field case stays plain modular integers.


class _Ops:
    """Field arithmetic on integer encodings."""

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.prime = field.k == 1

    def add(self, a, b):
        if self.prime:
            return (a + b) % self.p
        return (self.field.scalar(a) + self.field.scalar(b)).encode()

    def sub(self, a, b):
        if self.prime:
            return (a - b) % self.p
        return (self.field.scalar(a) - self.field.scalar(b)).encode()

    def mul(self, a, b):
        if self.prime:
            return (a * b) % self.p
        return (self.field.scalar(a) * self.field.scalar(b)).encode()

    def inv(self, a):
        if self.prime:
            return pow(a, self.p - 2, self.p)
        return self.field.scalar(a).inverse().encode()


def _dict_of(form):
    out = {}
    for c, exp in zip(form.coeffs, MONOMIALS):
        if not c.is_zero():
            out[exp] = c.encode()
    return out


def _vars_of(f):
    seen = set()
    for exp in f:
        for i, e in enumerate(exp):
            if e:
                seen.add(i)
    return seen


def _is_const(f):
    return all(all(e == 0 for e in exp) for exp in f)


def _deg(f, v):
    return max((exp[v] for exp in f), default=0)


def _add(f, g, ops):
    out = dict(f)
    for exp, c in g.items():
        s = ops.add(out.get(exp, 0), c)
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def _mul(f, g, ops):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = ops.add(out.get(exp, 0), ops.mul(c1, c2))
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def _scale(f, c, ops):
    return {exp: ops.mul(v, c) for exp, v in f.items()}


def _neg(f, ops):
    return {exp: ops.sub(0, v) for exp, v in f.items()}


def _lead_exp(f):
    return max(f, key=lambda e: (sum(e), e))


def _monic(f, ops):
    if not f:
        return f
    inv = ops.inv(f[_lead_exp(f)])
    return _scale(f, inv, ops)


def _coeff_slices(f, v):
    """Split by the degree in variable v: dict degree -> poly with v removed."""
    out = {}
    for exp, c in f.items():
        d = exp[v]
        rest = list(exp)
        rest[v] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return out


def _lead_vcoeff(f, v):
    d = _deg(f, v)
    return _coeff_slices(f, v)[d], d


def _shift(f, v, d):
    out = {}
    for exp, c in f.items():
        e = list(exp)
        e[v] += d
        out[tuple(e)] = c
    return out


def _exact_div(f, d, ops):
    """Exact sparse division; internal, only called on true divisors."""
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    lead = _lead_exp(d)
    lead_inv = ops.inv(d[lead])
    rem = dict(f)
    quo = {}
    while rem:
        e = _lead_exp(rem)
        diff = (e[0] - lead[0], e[1] - lead[1], e[2] - lead[2])
        if any(x < 0 for x in diff):
            raise ArithmeticError("inexact division in gcd computation")
        c = ops.mul(rem[e], lead_inv)
        quo[diff] = c
        rem = _add(rem, _neg(_mul({diff: c}, d, ops), ops), ops)
    return quo


def _prem(a, b, v, ops):
    """Fraction-free pseudo-remainder of a by b in the variable v."""
    lb, db = _lead_vcoeff(b, v)
    r = dict(a)
    while r and _deg(r, v) >= db:
        lr, dr = _lead_vcoeff(r, v)
        # r <- lb*r - lr * v^(dr-db) * b
        r = _add(_mul(lb, r, ops), _neg(_mul(_shift(lr, v, dr - db), b, ops), ops), ops)
    return r


def _content(f, v, ops):
    """Gcd of the coefficients of f viewed as a polynomial in v."""
    g = {}
    for part in _coeff_slices(f, v).values():
        g = _gcd(g, part, ops)
        if _is_const(g) and g:
            break
    return g


def _gcd(f, g, ops):
    """Monic gcd of sparse polynomials over a finite field."""
    if not f:
        return _monic(g, ops)
    if not g:
        return _monic(f, ops)
    if _is_const(f) or _is_const(g):
        return {(0, 0, 0): 1}
    shared = _vars_of(f) & _vars_of(g)
    if not shared:
        return {(0, 0, 0): 1}
    v = min(shared)
    fc = _content(f, v, ops)
    gc = _content(g, v, ops)
    a = _exact_div(f, fc, ops)
    b = _exact_div(g, gc, ops)
    if _deg(a, v) < _deg(b, v):
        a, b = b, a
    # primitive pseudo-remainder sequence in v
    while b:
        r = _prem(a, b, v, ops)
        if r:
            r = _exact_div(r, _content(r, v, ops), ops)
        a, b = b, r
    part = {(0, 0, 0): 1} if _deg(a, v) == 0 else _exact_div(a, _content(a, v, ops), ops)
    return _monic(_mul(part, _gcd(fc, gc, ops), ops), ops)


def _check_gcd_input(f, g):
    for form in (f, g):
        if form.field is RATIONALS:
            raise ValueError("common-factor detection is defined over finite fields")
        if form.is_zero():
            raise ValueError("common-factor detection needs nonzero forms")
    if f.field != g.field:
        raise ValueError(f"mixed fields: {f.field} vs {g.field}")


def has_common_factor(f, g):
    """True iff two nonzero cubics over a finite field share a nonconstant factor."""
    _check_gcd_input(f, g)
    ops = _Ops(f.field)
    g_ = _gcd(_dict_of(f), _dict_of(g), ops)
    return not _is_const(g_)


def common_factor_all(forms):
    """True iff all the forms share one nonconstant factor (iterated gcd)."""
    forms = list(forms)
    if not forms:
        raise ValueError("common_factor_all needs at least one form")
    for form in forms:
        if form.field is RATIONALS:
            raise ValueError("common-factor detection is defined over finite fields")
        if form.is_zero():
            raise ValueError("common-factor detection needs nonzero forms")
        if form.field != forms[0].field:
            raise ValueError("mixed fields in common_factor_all")
    ops = _Ops(forms[0].field)
    g = _dict_of(forms[0])
    for form in forms[1:]:
        g = _gcd(g, _dict_of(form), ops)
        if _is_const(g):
            return False
    return not _is_const(g)
