"""Independent interval-arithmetic oracle for exact-field claims.

Evaluates p + q*sqrt(d) with mpmath's outward-rounded interval arithmetic
at 256-bit precision (escalating if an answer straddles a boundary) and
derives signs and floors from interval endpoints.  Deliberately shares no
code with the library's integer-sqrt sign and floor algorithms.
"""

import mpmath


def _interval(x, prec):
    iv = mpmath.iv
    old = iv.prec
    iv.prec = prec
    try:
        val = (iv.mpf(x.p.numerator) / iv.mpf(x.p.denominator)
               + (iv.mpf(x.q.numerator) / iv.mpf(x.q.denominator))
               * iv.sqrt(iv.mpf(x.d)))
    finally:
        iv.prec = old
    return val


def interval_sign(x, prec=256):
    """Sign of x certified by interval endpoints; 0 only for exact zero."""
    if x.p == 0 and x.q == 0:
        return 0
    while prec <= 4096:
        val = _interval(x, prec)
        if val.a > 0:
            return 1
        if val.b < 0:
            return -1
        prec *= 2
    raise AssertionError(f"interval sign of {x} undecided at 4096 bits")


def interval_compare(x, y, prec=256):
    """-1, 0, or 1 as x <, ==, > y (exact equality checked structurally)."""
    if (x.p, x.q) == (y.p, y.q) and x.d == y.d:
        return 0
    return interval_sign(x - y, prec)


def interval_floor_product(n, x, prec=256):
    """floor(n * x) certified by matching endpoint floors."""
    while prec <= 4096:
        iv = mpmath.iv
        old = iv.prec
        iv.prec = prec
        try:
            val = _interval(x, prec) * n
            # floor the endpoints at the working precision: at mpmath's
            # default 53 bits they would round first above 2**53
            with mpmath.workprec(prec):
                lo = int(mpmath.floor(val.a))
                hi = int(mpmath.floor(val.b))
        finally:
            iv.prec = old
        if lo == hi:
            return lo
        prec *= 2
    raise AssertionError(f"interval floor of {n} * {x} undecided at 4096 bits")
