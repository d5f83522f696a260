"""Exact multivariate polynomials over the rationals.

The variable universe is fixed to (x, y, z, a, b): x, y, z are the plane
coordinates and a, b parametrize target points in the symbolic derivations.
A polynomial is a dict mapping exponent 5-tuples to nonzero exact
coefficients, so equality is structural and every operation is exact.  A
coefficient is stored as an int whenever it is integral and as a Fraction
only when it is not; every operation that stores one keeps this, so the
mostly integral certificate derivations run on int arithmetic.  Internal
operations build their results through _poly, which takes terms as they
are; only the public constructor checks exponents and coefficients.
Division helpers only perform exact divisions and raise otherwise; callers
clear denominators themselves before substituting (substitution never
introduces fractions).
"""

from fractions import Fraction

VARS = ("x", "y", "z", "a", "b")
_INDEX = {v: i for i, v in enumerate(VARS)}
_ZERO_EXP = (0, 0, 0, 0, 0)


def exact(c):
    """An int or Fraction in its stored form: an int when it is integral."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficients must be exact (int or Fraction), got {type(c).__name__}")


def _settle(terms):
    """Store every integral Fraction among the coefficients as its int, in place and in order."""
    for exp, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[exp] = c.numerator
    return terms


def _term_rank(exp):
    return (sum(exp), exp)


class RationalPoly:
    """A polynomial in x, y, z, a, b with int or Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                if not (type(exp) is tuple and len(exp) == 5
                        and all(type(e) is int and e >= 0 for e in exp)):
                    raise ValueError(f"exponent {exp!r} is not five nonnegative ints")
                c = exact(c)
                if c:
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return _poly({})

    @classmethod
    def const(cls, c):
        c = exact(c)
        return _poly({_ZERO_EXP: c} if c else {})

    @classmethod
    def var(cls, name):
        if name not in _INDEX:
            raise ValueError(f"unknown variable {name!r}, expected one of {VARS}")
        exp = [0] * 5
        exp[_INDEX[name]] = 1
        return _poly({tuple(exp): 1})

    def copy(self):
        return _poly(dict(self.terms))

    # -- ring operations --

    def _coerce(self, other):
        if isinstance(other, RationalPoly):
            return other
        return RationalPoly.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        get = terms.get
        for exp, c in other.terms.items():
            s = get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                del terms[exp]
        return _poly(_settle(terms))

    __radd__ = __add__

    def __neg__(self):
        return _poly({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        get = terms.get
        right = other.terms.items()
        for (a0, a1, a2, a3, a4), c1 in self.terms.items():
            for (b0, b1, b2, b3, b4), c2 in right:
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
                s = get(exp, 0) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
        return _poly(_settle(terms))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = RationalPoly.const(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(other)
        return isinstance(other, RationalPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def variables(self):
        """Names of the variables that actually occur."""
        seen = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    seen.add(VARS[i])
        return seen

    def degree(self, name):
        i = _INDEX[name]
        return max((exp[i] for exp in self.terms), default=0)

    def total_degree(self):
        return max((sum(exp) for exp in self.terms), default=0)

    # -- substitution and evaluation --

    def substitute(self, name, poly):
        """Replace a variable by a polynomial and expand.  Exact.

        Term by term, in order, the term with the variable removed times
        poly**e (built once per e as 1 * poly * ... * poly) is added into
        one dict, so the terms come in the order summing those products gives.
        """
        i = _INDEX[name]
        poly = self._coerce(poly)
        powers = [RationalPoly.const(1)]
        terms = {}
        get = terms.get
        for exp, c in self.terms.items():
            e = exp[i]
            while len(powers) <= e:
                powers.append(powers[-1] * poly)
            r0, r1, r2, r3, r4 = exp[:i] + (0,) + exp[i + 1:]
            for (b0, b1, b2, b3, b4), c2 in powers[e].terms.items():
                key = (r0 + b0, r1 + b1, r2 + b2, r3 + b3, r4 + b4)
                s = get(key, 0) + c * c2
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        return _poly(_settle(terms))

    def evaluate(self, values):
        """Evaluate at a dict name -> value (int/Fraction exact, complex/float numeric)."""
        for name in self.variables():
            if name not in values:
                raise ValueError(f"no value supplied for variable {name!r}")
        acc = None
        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e:
                    term = term * values[VARS[i]] ** e
            acc = term if acc is None else acc + term
        return 0 if acc is None else acc

    # -- division helpers --

    def divide_exact(self, divisor):
        """Exact polynomial division; raises ValueError on a nonzero remainder."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        right = divisor.terms.items()
        lead = max(divisor.terms, key=_term_rank)
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        get = rem.get
        quo = {}
        while rem:
            e = max(rem, key=_term_rank)
            d0, d1, d2, d3, d4 = diff = tuple(a - b for a, b in zip(e, lead))
            if min(diff) < 0:
                raise ValueError("division is not exact")
            q = quo[diff] = exact(Fraction(rem[e], lead_c))
            for (b0, b1, b2, b3, b4), c2 in right:
                key = (d0 + b0, d1 + b1, d2 + b2, d3 + b3, d4 + b4)
                s = get(key, 0) - q * c2
                if s:
                    rem[key] = s
                else:
                    del rem[key]
        return _poly(quo)

    def univariate_coeffs(self, name):
        """Coefficients of powers of one variable, as a dict degree -> RationalPoly."""
        i = _INDEX[name]
        out = {}
        for exp, c in self.terms.items():
            out.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = c
        return {d: _poly(terms) for d, terms in out.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
            c = self.terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(VARS[i])
                elif e > 1:
                    factors.append(f"{VARS[i]}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _poly(terms):
    """A polynomial holding terms as they are: nonzero coefficients, each in stored form."""
    out = RationalPoly.__new__(RationalPoly)
    out.terms = terms
    return out


def univariate_gcd(f, g, name):
    """Monic gcd of two polynomials univariate in one variable over Q."""
    for p in (f, g):
        extra = p.variables() - {name}
        if extra:
            raise ValueError(f"polynomial is not univariate in {name!r}: has {sorted(extra)}")

    def coeff_list(p):
        cs = p.univariate_coeffs(name)
        deg = max(cs, default=0)
        return [cs[d].terms[_ZERO_EXP] if d in cs else 0 for d in range(deg + 1)]

    a, b = coeff_list(f), coeff_list(g)

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = Fraction(1, b[-1])
        b = [c * inv for c in b]
        while len(a) >= len(b):
            if a[-1]:
                f_ = a[-1]
                for i in range(len(b)):
                    a[len(a) - len(b) + i] -= f_ * b[i]
            a.pop()
        a, b = b, trim(a)
    if not a:
        return RationalPoly.zero()
    inv = Fraction(1, a[-1])
    i = _INDEX[name]
    return _poly({_ZERO_EXP[:i] + (d,) + _ZERO_EXP[i + 1:]: exact(c * inv)
                             for d, c in enumerate(a) if c})
