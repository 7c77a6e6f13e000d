"""Reeb orbit spectra of irrational ellipsoids.

The boundary of E(a_1, ..., a_m) with pairwise-irrational weight ratios
carries exactly m simple closed Reeb orbits gamma_j, one per coordinate
axis, with period pi*a_j.  The n-th iterate of gamma_j has Conley-Zehnder
index

    m - 1 + 2 * sum_k floor(n * a_j / a_k) = m - 1 + 2 * A_j(n),

where A_j(n) is the n-th element of the j-th Tamura set of the weights.  So
an Ellipsoid is a view of the TamuraFamily of its weights: orbit indices
are its certified elements and the spectrum is its merged streams mapped
to degrees.  The linearized return map is a
direct sum of rotations with frequencies 2/a_l, so the same index is also
reachable through the numeric crossing-form engine; cross_check_index runs
both routes and records agreement.  Exact weights are converted to doubles
only at that numeric boundary.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .czindex import RotationPath, cz_index
from .errors import CrossingError, HypothesisViolation
from .partitions import TamuraFamily
from .quadfield import QuadIrrational

__all__ = [
    "Ellipsoid",
    "ReebOrbit",
    "orbit_index",
    "spectrum",
    "check_goodness_and_lacunarity",
    "cross_check_index",
    "GoodnessReport",
    "CrossCheck",
]

_MP_DPS = 30


def _as_mpf(x):
    """30-digit evaluation of a QuadIrrational (used only at the numeric
    boundary; exact data never passes through here)."""
    with mpmath.workdps(_MP_DPS):
        return (mpmath.mpf(x.p.numerator) / x.p.denominator
                + mpmath.mpf(x.q.numerator) / x.q.denominator
                * mpmath.sqrt(x.d))


class Ellipsoid:
    """E(a_1, ..., a_m) with exact positive weights in one Q(sqrt(d)).

    The weights are checked by TamuraFamily.  A rational weight ratio is
    not an error at construction: the ellipsoid keeps the violation and
    raises it from require_hypothesis(), when the index formula is used.
    """

    def __init__(self, weights):
        self.weights = tuple(weights)
        self.family = None
        self._violation = None
        try:
            self.family = TamuraFamily(self.weights)
        except HypothesisViolation as err:
            self._violation = err

    @property
    def m(self):
        return len(self.weights)

    @property
    def hypothesis_ok(self):
        """True iff every ratio a_j/a_k (j != k) is irrational."""
        return self._violation is None

    def require_hypothesis(self):
        if self._violation is not None:
            raise self._violation.with_traceback(None)

    def __repr__(self):
        inner = ", ".join(str(w) for w in self.weights)
        return f"Ellipsoid({inner})"


@dataclass(frozen=True)
class ReebOrbit:
    """The n-th iterate of the j-th simple orbit.

    The period is n*pi*a_j; pi stays symbolic, so the period is stored as
    the iterate count together with the exact weight.
    """

    j: int
    n: int
    weight: QuadIrrational
    cz: int

    def period_coefficient(self):
        """The exact coefficient n*a_j of pi in the period."""
        return self.n * self.weight


def orbit_index(e, j, n):
    """Conley-Zehnder index of gamma_j^n: m - 1 + 2*A_j(n).

    Refuses (rather than guessing) when the irrationality hypothesis fails,
    since the formula is not valid there.
    """
    e.require_hypothesis()
    return e.m - 1 + 2 * e.family.element(j, n)


def spectrum(e, max_degree):
    """All orbits (j, n) with cz <= max_degree, sorted by (cz, j, n).

    cz = m - 1 + 2a rises with the Tamura element a, so the k-way merge of
    the Tamura streams up to a = (max_degree - m + 1) // 2, ordered by
    (a, j, n), is already in (cz, j, n) order and complete.
    """
    e.require_hypothesis()
    m = e.m
    limit = (max_degree - m + 1) // 2
    streams = [e.family.generator(j, limit) for j in range(1, m + 1)]
    return [ReebOrbit(j=j, n=n, weight=e.weights[j - 1], cz=m - 1 + 2 * a)
            for a, j, n in heapq.merge(*streams)]


@dataclass
class GoodnessReport:
    """Regression guard over an index window: both facts are theorems here."""

    max_degree: int
    all_good: bool
    lacunary: bool
    orbit_count: int
    indices: list
    bad_orbits: list
    consecutive_pair: tuple | None

    @property
    def passed(self):
        return self.all_good and self.lacunary


def check_goodness_and_lacunarity(e, max_degree):
    """Check every enumerated iterate is good and the index set is lacunary.

    Good means cz(gamma_j^n) == cz(gamma_j) mod 2; lacunary means no two
    consecutive integers occur among the indices up to max_degree.
    """
    orbits = spectrum(e, max_degree)
    simple_parity = {}
    bad = []
    for o in orbits:
        if o.n == 1:
            simple_parity[o.j] = o.cz % 2
    for j in range(1, e.m + 1):
        if j not in simple_parity:
            simple_parity[j] = orbit_index(e, j, 1) % 2
    for o in orbits:
        if o.cz % 2 != simple_parity[o.j]:
            bad.append((o.j, o.n))
    indices = sorted({o.cz for o in orbits})
    pair = None
    for x, y in zip(indices, indices[1:]):
        if y == x + 1:
            pair = (x, y)
            break
    return GoodnessReport(
        max_degree=max_degree,
        all_good=not bad,
        lacunary=pair is None,
        orbit_count=len(orbits),
        indices=indices,
        bad_orbits=bad,
        consecutive_pair=pair,
    )


@dataclass
class CrossCheck:
    """Outcome of checking the index formula against the numeric engine."""

    j: int
    n: int
    formula: int
    numeric: Fraction | None
    agree: bool | None
    inconclusive: bool
    note: str = ""


def cross_check_index(e, j, n, sample_count=None):
    """Recompute cz(gamma_j^n) from the linearized Reeb flow numerically.

    Builds the rotation path with frequencies 2/a_l over [0, n*pi*a_j]
    (weights rounded to double from a 30-digit evaluation) and runs the
    crossing-form engine.  The j-th block turns exactly n times and
    contributes 2n; the others contribute 1 + 2*floor(n*a_j/a_l).  Engine
    failures (e.g. an ambiguous near-crossing) are reported as inconclusive,
    not as disagreement.
    """
    formula = orbit_index(e, j, n)
    with mpmath.workdps(_MP_DPS):
        a_vals = [_as_mpf(w) for w in e.weights]
        freqs = [float(2 / av) for av in a_vals]
        duration = float(n * mpmath.pi * a_vals[j - 1])
    if sample_count is None:
        turns = sum(duration * f / (2.0 * math.pi) for f in freqs)
        sample_count = max(4096, int(128 * turns) + 16)
    path = RotationPath(freqs, duration, sample_count=sample_count)
    try:
        numeric = cz_index(path)
    except CrossingError as err:
        return CrossCheck(j=j, n=n, formula=formula, numeric=None,
                          agree=None, inconclusive=True, note=str(err))
    return CrossCheck(j=j, n=n, formula=formula, numeric=numeric,
                      agree=(numeric == formula), inconclusive=False)
