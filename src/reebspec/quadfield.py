"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

Elements are stored as p + q*sqrt(d) with p, q rational (always in lowest
terms, positive denominator) and d a fixed non-square integer >= 2.  Because
sqrt(d) is irrational, two elements are equal iff their (p, q) pairs are,
and the sign of p + q*sqrt(d) is decidable by comparing p^2 against q^2*d
when p and q differ in sign.  That exact sign test is the substrate for
certified comparisons and certified floors.

Every floor of n*x comes from one of two integer-only routes, and no float
takes part in either.  _floor_exact is the scalar route: an isqrt seed
settled by exact sign tests, for one n at a time (floor_product,
TamuraFamily.element).  _slope_blocks is the block route for n = 1, 2, ...
upward: a rational slope divides exactly, n*p // c (_floor_scaled), and an
irrational slope x reads its floors off the characteristic Sturmian word of
{x}, built from the continued fraction of x with isqrt alone, at every n.
Its blocks are int64 while the int64 guard _int64_bound holds and object
arrays of Python ints from the first block outside it on.  Floats appear
only at the numeric boundary, in __float__.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import ExprSyntaxError, RadicandError

__all__ = [
    "FieldContext",
    "QuadIrrational",
    "floor_product",
    "pairwise_rational_ratio",
    "parse_expr",
    "render",
]


def _check_radicand(d):
    if not isinstance(d, int) or d < 2:
        raise RadicandError(f"radicand must be an integer >= 2, got {d!r}")
    r = isqrt(d)
    if r * r == d:
        raise RadicandError(f"radicand {d} is a perfect square")


def _sign_int(a, b, d):
    """Exact sign of a + b*sqrt(d) for integers a, b and non-square d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Mixed signs: |a| vs |b|*sqrt(d); equality impossible since d non-square.
    lhs = a * a
    rhs = b * b * d
    if a > 0:  # b < 0
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _floor_exact(P, Q, C, d):
    """floor((P + Q*sqrt(d)) / C) for integers P, Q, C > 0, d non-square.

    Seed candidate from isqrt bounds on Q*sqrt(d) (exact to within 1), then
    certify f <= value < f+1 by exact sign tests, stepping if needed.
    """
    if Q == 0:
        return P // C
    r = isqrt(Q * Q * d)
    # Q*Q*d is never a perfect square for Q != 0, so floor(Q*sqrt(d)) is:
    fs = r if Q > 0 else -r - 1
    f = (P + fs) // C
    # value - f has the sign of (P - f*C) + Q*sqrt(d) since C > 0
    while _sign_int(P - f * C, Q, d) < 0:
        f -= 1
    while _sign_int(P - (f + 1) * C, Q, d) >= 0:
        f += 1
    return f


_INT64_LIMIT = 1 << 63


def _int64_bound(p, q, c, d, n_lo, n_hi):
    """F with |floor(n*x)| <= F for x = (p + q*sqrt(d))/c and n in
    [n_lo, n_hi), when (n*p - f*c)**2 and (n*q)**2 * d stay below 2**63
    for every such n and every f in [-F, F]; None otherwise.  Python ints
    only.  A block of _slope_blocks is int64 exactly where this guard holds,
    and an object array of Python ints where it fails.  The guard bounds
    |n*p - f*c| by a_max >= (F + 1)*c > F, so inside it every floor is
    below 2**31.5 in magnitude: ellipsoid._orbit_chunks relies on that to
    compute cz in int64.  The tests' int64 certificate of f <= n*x < f+1
    checks exactly these products."""
    big_n = max(abs(n_lo), abs(n_hi - 1), 1)
    bound = big_n * (abs(p) + abs(q) * (isqrt(d) + 1)) // c + 2
    a_max = big_n * abs(p) + (bound + 1) * c    # |n*p - f*c|, |n*p - (f+1)*c|
    b_max = max(big_n * abs(q), 1)              # |n*q|, and d itself
    if a_max * a_max < _INT64_LIMIT and b_max * b_max * d < _INT64_LIMIT:
        return bound
    return None


def _floor_scaled(p, c, d, n_lo, n_hi):
    """floor(n * p / c) for each n in [n_lo, n_hi), as an array: the block
    of a rational slope p/c, c > 0, by exact division, in int64 where the
    int64 guard of (p + 0*sqrt(d))/c holds and in Python ints where not."""
    inside = _int64_bound(p, 0, c, d, n_lo, n_hi) is not None
    return np.arange(n_lo, n_hi, dtype=np.int64 if inside else object) * p // c


def _continued_fraction(p, q, c, d):
    """Yield the partial quotients a_0, a_1, ... of the irrational
    x = (p + q*sqrt(d))/c, q != 0, c > 0.

    The complete quotients are (P + sqrt(D))/Q with Q dividing D - P^2,
    which the first one satisfies after scaling by |c| (and a sign flip
    when q < 0); each floor is (P + isqrt(D)) // Q, one more in the
    numerator when Q < 0, since sqrt(D) is never an integer.
    """
    if q < 0:
        p, q, c = -p, -q, -c
    P, Q, D = p * abs(c), c * abs(c), q * q * d * c * c
    r = isqrt(D)
    while True:
        a = (P + r + (Q < 0)) // Q
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q


# The longest standard word held as an array, in one-byte letters, and the
# letters of the first words s_{-1} = 1 and s_0 = 0.
_WORD_MAX = 2048
_ONE = np.ones(1, np.int8)
_ZERO = np.zeros(1, np.int8)


def _sturmian_letters(quotients):
    """Yield int8 arrays whose concatenation is 0, c_1, c_2, ..., where
    c_n = floor((n+1)*alpha) - floor(n*alpha) and alpha = [0; a_1, a_2, ...]
    takes its partial quotients from the iterator `quotients`.  The running
    sum of the letters is floor(n*alpha) at n = 1, 2, ....

    c_1 c_2 ... is the limit of the standard words s_{-1} = 1, s_0 = 0,
    s_1 = s_0^(a_1 - 1) s_{-1} and s_k = s_{k-1}^(a_k) s_{k-2}, each a prefix
    of the next from s_1 on (Lothaire, Algebraic Combinatorics on Words,
    ch. 2).  The words come out as they are built, s_1 and then what each
    longer word adds, up to the last s_m with |s_m| <= _WORD_MAX, so a short
    read builds only short words, and only a read past s_m tiles a run of it.
    Only s_m and s_{m-1} are held; every longer word is a product of those
    two, which a descent through the recursion emits without building it.
    A run s_m^(a) comes out one tiled array per _WORD_MAX letters whatever a
    is, so the work per letter does not grow with the partial quotients.
    """
    yield _ZERO             # floor(1*alpha) - floor(0*alpha)
    prev, word, out = _ONE, _ZERO, 0     # out: the letters of word already out
    count = next(quotients) - 1
    while len(word) * count + len(prev) <= _WORD_MAX:
        prev, word = word, np.concatenate([word] * count + [prev])
        yield word[out:]    # s_1 whole, then s_k without its prefix s_{k-1}
        out = len(word)
        count = next(quotients)
    if not out:
        yield word          # s_0, a prefix of every s_k when s_1 is not held
    run = np.tile(word, _WORD_MAX // len(word))
    per = len(run) // len(word)
    counts = [count]        # counts[i]: copies of s_{m+i} in s_{m+i+1}

    def copies(i, r):       # s_{m+i}^r
        if i:
            for _ in range(r):
                yield from standard(i)
            return
        full, part = divmod(r, per)
        while full:         # itertools.repeat takes no count past int64
            yield run
            full -= 1
        if part:
            yield run[:part * len(word)]

    def standard(i):        # s_{m+i}, i >= -1
        if i < 1:
            yield word if i == 0 else prev
            return
        yield from copies(i - 1, counts[i - 1])
        yield from standard(i - 2)

    i = 1
    while True:
        # s_{m+i} without its first s_{m+i-1}, which is already out
        yield from copies(i - 1, counts[i - 1] - 1)
        yield from standard(i - 2)
        counts.append(next(quotients))
        i += 1


def _slope_blocks(p, q, c, d, bounds):
    """Yield the arrays floor(n * (p + q*sqrt(d)) / c), n in [n_lo, n_hi),
    for the consecutive ranges (n_lo, n_hi) of `bounds`, which start at
    n = 1; a block is int64 where the int64 guard _int64_bound holds and
    an object array of Python ints where it fails.

    A rational slope takes every block from _floor_scaled, which divides
    exactly.  An irrational slope x is n*floor(x) plus the running sum of
    the Sturmian letters of {x} (_sturmian_letters), at every n.
    """
    if not q:
        for n_lo, n_hi in bounds:
            yield _floor_scaled(p, c, d, n_lo, n_hi)
        return
    quotients = _continued_fraction(p, q, c, d)
    whole = next(quotients)
    letters = _sturmian_letters(quotients)
    rest = np.empty(0, np.int8)     # letters drawn past the last block
    last = 0                        # floor((n_lo - 1) * x)
    for n_lo, n_hi in bounds:
        size = n_hi - n_lo
        parts = [rest]
        have = len(rest)
        while have < size:
            parts.append(next(letters))
            have += len(parts[-1])
        drawn = np.concatenate(parts)
        rest = drawn[size:]
        inside = _int64_bound(p, q, c, d, n_lo, n_hi) is not None
        floors = np.add(drawn[:size], whole, dtype=np.int64 if inside else object)
        floors[0] += last
        floors.cumsum(out=floors)
        last = int(floors[-1])
        yield floors


def _near_fraction(x):
    """A Fraction within relative 2**-100 of x = (P + Q*sqrt(d))/C.  isqrt
    gives Q*sqrt(d)*2**k to within 1, and the field norm bounds |x*C| below
    by 1/(|P| + |Q|*sqrt(d)), so 2**k above 2**100 times that sum will do."""
    P, Q, C = x.scaled_triple()
    k = 100 + (abs(P) + abs(Q) * (isqrt(x.d) + 1)).bit_length()
    r = isqrt(Q * Q * x.d << 2 * k)
    return Fraction((P << k) + (r if Q > 0 else -r), C << k)


@dataclass(frozen=True)
class QuadIrrational:
    """Exact element p + q*sqrt(d) of Q(sqrt(d))."""

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self):
        _check_radicand(self.d)
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadIrrational):
            if other.d != self.d:
                raise RadicandError(
                    f"mismatched radicand: sqrt({self.d}) vs sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadIrrational(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadIrrational(self.p + other.p, self.q + other.q, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadIrrational(-self.p, -self.q, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadIrrational(self.p - other.p, self.q - other.q, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadIrrational(
            self.p * other.p + self.q * other.q * self.d,
            self.p * other.q + self.q * other.p,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return QuadIrrational(self.p, -self.q, self.d)

    def norm(self):
        """Field norm N(x) = p^2 - q^2*d, a rational."""
        return self.p * self.p - self.q * self.q * self.d

    def __truediv__(self, other):
        """self * conj(other) / N(other) in integers: (P1 + Q1*sqrt(d))/C1 over (P2 +
        Q2*sqrt(d))/C2 is C2*(P1*P2 - d*Q1*Q2 + (Q1*P2 - P1*Q2)*sqrt(d)) / (C1*N)."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        P1, Q1, C1 = self.scaled_triple()
        P2, Q2, C2 = other.scaled_triple()
        n = C1 * (P2 * P2 - self.d * Q2 * Q2)
        if n == 0:
            # norm zero forces p = q = 0 since d is non-square
            raise ZeroDivisionError("division by zero field element")
        return QuadIrrational(Fraction(C2 * (P1 * P2 - self.d * Q1 * Q2), n),
                              Fraction(C2 * (Q1 * P2 - P1 * Q2), n), self.d)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    # -- exact order --------------------------------------------------------

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        P, Q, _ = self.scaled_triple()
        return _sign_int(P, Q, self.d)

    def _cmp(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        if isinstance(other, QuadIrrational):
            return (self.p, self.q, self.d) == (other.p, other.q, other.d)
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    # -- floors and conversions ---------------------------------------------

    def scaled_triple(self):
        """Integers (P, Q, C) with C > 0 and self == (P + Q*sqrt(d)) / C."""
        c = self.p.denominator * self.q.denominator // math.gcd(
            self.p.denominator, self.q.denominator
        )
        return (
            self.p.numerator * (c // self.p.denominator),
            self.q.numerator * (c // self.q.denominator),
            c,
        )

    def is_rational(self):
        """True iff there is no sqrt(d) component (decidable: d is non-square)."""
        return self.q == 0

    def __float__(self):
        return float(_near_fraction(self))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"QuadIrrational({render(self)!r}, d={self.d})"


def floor_product(n, x):
    """The unique integer f with f <= n*x < f+1, certified by exact comparison.

    n must be a positive integer (a numpy one is read as a Python int; a
    float or Fraction raises TypeError) and x > 0.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if x.sign() <= 0:
        raise ValueError(f"x must be positive, got {x}")
    p, q, c = x.scaled_triple()
    return _floor_exact(n * p, n * q, c, x.d)


def pairwise_rational_ratio(weights):
    """First (j, k, ratio) with a_j/a_k rational and j != k, or None.

    Indices are 1-based to match orbit-family and partition-set labels.
    """
    for j in range(len(weights)):
        for k in range(j + 1, len(weights)):
            ratio = weights[j] / weights[k]
            if ratio.is_rational():
                return (j + 1, k + 1, ratio)
    return None


# -- parsing and rendering ----------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|(sqrt)|([+\-*/()])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            tokens.append(("sqrt", "sqrt", pos))
        else:
            tokens.append((m.group(3), m.group(3), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for EXPR := TERM (('+'|'-') TERM)* with
    TERM := RAT | RAT '*' 'sqrt(' INT ')' | 'sqrt(' INT ')' and
    RAT := INT | INT '/' INT.  A leading '-' on the first term is accepted."""

    def __init__(self, text, d):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.d = d

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1
        p, q = self.term()
        p, q = sign * p, sign * q
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            tp, tq = self.term()
            if op == "-":
                tp, tq = -tp, -tq
            p, q = p + tp, q + tq
        self.take("end")
        return QuadIrrational(p, q, self.d)

    def term(self):
        if self.peek()[0] == "sqrt":
            return Fraction(0), self.radical(Fraction(1))
        coeff = self.rational()
        if self.peek()[0] == "*":
            self.take("*")
            return Fraction(0), self.radical(coeff)
        return coeff, Fraction(0)

    def rational(self):
        num = self.take("int")[1]
        if self.peek()[0] == "/":
            self.take("/")
            den_tok = self.take("int")
            if den_tok[1] == 0:
                raise ExprSyntaxError("zero denominator", den_tok[2])
            return Fraction(num, den_tok[1])
        return Fraction(num)

    def radical(self, coeff):
        self.take("sqrt")
        self.take("(")
        rad_tok = self.take("int")
        self.take(")")
        _check_radicand(rad_tok[1])
        if rad_tok[1] != self.d:
            raise RadicandError(
                f"radicand {rad_tok[1]} does not match context sqrt({self.d})"
            )
        return coeff


def parse_expr(text, context):
    """Parse an expression like "3/2 - 1/2*sqrt(5)" into a QuadIrrational.

    `context` is a FieldContext (or a bare radicand); every sqrt radicand in
    the text must equal the context's d.
    """
    d = context.d if isinstance(context, FieldContext) else int(context)
    return _Parser(text, d).parse()


def _render_rat(r):
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def render(x):
    """Canonical form "p/q + r/s*sqrt(d)" with zero terms suppressed."""
    p, q = x.p, x.q
    if q == 0:
        return _render_rat(p)
    aq = abs(q)
    root = f"sqrt({x.d})" if aq == 1 else f"{_render_rat(aq)}*sqrt({x.d})"
    if p == 0:
        return root if q > 0 else f"-{root}"
    op = "+" if q > 0 else "-"
    return f"{_render_rat(p)}{op}{root}"


class FieldContext:
    """A fixed non-square radicand d; all elements built here share it."""

    def __init__(self, d):
        _check_radicand(d)
        self.d = d

    def element(self, p, q=0):
        return QuadIrrational(Fraction(p), Fraction(q), self.d)

    def sqrt_d(self):
        return self.element(0, 1)

    def parse(self, text):
        return parse_expr(text, self)

    def __repr__(self):
        return f"FieldContext(d={self.d})"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.d == self.d

    def __hash__(self):
        return hash(("FieldContext", self.d))
