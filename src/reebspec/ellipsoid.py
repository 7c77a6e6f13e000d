"""Reeb orbit spectra of irrational ellipsoids.

The boundary of E(a_1, ..., a_m) with pairwise-irrational weight ratios
carries exactly m simple closed Reeb orbits gamma_j, one per coordinate
axis, with period pi*a_j.  The n-th iterate of gamma_j has Conley-Zehnder
index

    m - 1 + 2 * sum_k floor(n * a_j / a_k) = m - 1 + 2 * A_j(n),

where A_j(n) is the n-th element of the j-th Tamura set of the weights.  So
an Ellipsoid is a view of the TamuraFamily of its weights: orbit indices
are its certified elements, and the spectrum is the m element arrays
concatenated in j order, sorted stably by element and mapped to degrees.

The linearized Reeb flow is Psi_t = (+)_l R(2t/a_l), a direct sum of
rotations, so the same index is also reachable through the numeric
crossing-form engine.  Psi_t depends neither on the duration nor on j: the
path of gamma_j^n is the prefix [0, n*pi*a_j] of one path for every j and n.
cross_check_family therefore searches the crossings of that path once and
reads every iterate's index from that one crossing list by the catenation
axiom of the Maslov index (Robbin-Salamon, Topology 32, 1993).
cross_check_index runs one orbit on its own path; it is the independent
oracle of the family route and its fallback.  Exact weights are converted to
doubles only at that numeric boundary.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .czindex import ISOLATION_FACTOR, RotationPath, cz_index, find_crossings
from .errors import CrossingError, HypothesisViolation
from .partitions import TamuraFamily
from .quadfield import QuadIrrational, _near_fraction

__all__ = [
    "Ellipsoid",
    "ReebOrbit",
    "orbit_index",
    "spectrum",
    "check_goodness_and_lacunarity",
    "cross_check_index",
    "cross_check_family",
    "family_samples",
    "iterate_counts",
    "GoodnessReport",
    "CrossCheck",
]

# pi to 50 decimals, truncated: relative error below 10**-50
_PI = Fraction("3.14159265358979323846264338327950288419716939937510")


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


class ReebOrbit(NamedTuple):
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


def _spectrum_sets(e, max_degree):
    """The Tamura elements a of every set, in j order, whose orbits have
    cz = m - 1 + 2a <= max_degree: a <= (max_degree - m + 1) // 2."""
    e.require_hypothesis()
    limit = (max_degree - e.m + 1) // 2
    return [e.family.elements(j, limit) for j in range(1, e.m + 1)]


def iterate_counts(e, max_degree):
    """{j: N_j} for every simple orbit j with iterates in spectrum(e,
    max_degree), which holds gamma_j^1, ..., gamma_j^N_j; no orbit is built."""
    return {j: len(s) for j, s in enumerate(_spectrum_sets(e, max_degree), start=1) if len(s)}


def spectrum(e, max_degree):
    """All orbits (j, n) with cz <= max_degree, sorted by (cz, j, n).

    cz = m - 1 + 2a rises with the Tamura element a, so the elements up to
    a = (max_degree - m + 1) // 2 of every set, concatenated in j order
    (n ascending within each set) and sorted stably by a, are already in
    (cz, j, n) order and complete.

    The list is built with the cyclic garbage collector paused, and the
    collector is left enabled or disabled as it was found.  A ReebOrbit
    holds three ints and one of the caller's weights, so it cannot be part
    of a cycle, and refcounting frees it.  With the collector running, one
    new tracked tuple per orbit sets off full collections that find nothing
    (2 per `sh` on W3 to degree 200,002, which builds 10**5 orbits twice).
    """
    m = e.m
    sets = _spectrum_sets(e, max_degree)
    a = np.concatenate(sets)
    order = np.argsort(a, kind="stable")
    label = np.repeat(np.arange(m), [len(s) for s in sets])[order]   # j - 1
    j = (label + 1).tolist()
    n = np.concatenate([np.arange(1, len(s) + 1) for s in sets])[order].tolist()
    # an int64 element is a sum of m floors, each below 2**32 in magnitude
    # by the kernel's guard, so its degree cannot overflow; object arrays
    # compute in Python ints
    cz = (m - 1 + 2 * a[order]).tolist()
    weights = map(e.weights.__getitem__, label.tolist())
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(tuple.__new__, repeat(ReebOrbit), zip(j, n, weights, cz)))
    finally:
        if enabled:
            gc.enable()


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


def _orbit_columns(orbits):
    """The j, n and cz columns of orbits as int64 arrays, read in one pass
    (cz as an object array when one index does not fit int64)."""
    rows = map(attrgetter("j", "n", "cz"), orbits)
    try:
        return np.fromiter(chain.from_iterable(rows), np.int64, 3 * len(orbits)).reshape(-1, 3).T
    except OverflowError:
        j, n, cz = np.array(list(map(attrgetter("j", "n", "cz"), orbits)), dtype=object).T
        return j.astype(np.int64), n.astype(np.int64), cz


def check_goodness_and_lacunarity(e, max_degree):
    """Check every enumerated iterate is good and the index set is lacunary.

    Good means cz(gamma_j^n) == cz(gamma_j) mod 2; lacunary means no two
    consecutive integers occur among the indices up to max_degree.
    """
    orbits = spectrum(e, max_degree)
    j, n, cz = _orbit_columns(orbits)
    parity = np.full(e.m + 1, -1)   # parity[k] = cz(gamma_k) mod 2
    simple = n == 1
    parity[j[simple]] = cz[simple] % 2
    for k in np.flatnonzero(parity[1:] < 0).tolist():  # no simple orbit listed
        parity[k + 1] = orbit_index(e, k + 1, 1) % 2
    is_bad = cz % 2 != parity[j]
    bad = list(zip(j[is_bad].tolist(), n[is_bad].tolist()))
    # spectrum sorts by cz, so the distinct indices are the first of each run
    indices = cz[np.diff(cz, prepend=cz[:1] - 1) != 0]
    followed = indices[:-1][np.diff(indices) == 1].tolist()  # x with x + 1 an index too
    pair = (followed[0], followed[0] + 1) if followed else None
    return GoodnessReport(
        max_degree=max_degree,
        all_good=not bad,
        lacunary=pair is None,
        orbit_count=len(orbits),
        indices=indices.tolist(),
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


def _reeb_freqs(e):
    """Frequencies 2/a_l of the linearized Reeb flow, which do not depend on
    j, each rounded to double from a Fraction near it."""
    return [float(2 / _near_fraction(w)) for w in e.weights]


def _periods(e, j, ns):
    """Periods n*pi*a_j of gamma_j^n, n in ns, rounded as _reeb_freqs rounds."""
    pi_a = _PI * _near_fraction(e.weights[j - 1])
    return [float(n * pi_a) for n in ns]


def _default_samples(freqs, duration):
    """Cross-check grid on [0, duration]: 128 samples per turn summed over
    the blocks, plus 16, and never fewer than 4096: about 16 times the 8
    per turn of the fastest block that min_rotation_samples requires."""
    turns = sum(duration * f / (2.0 * math.pi) for f in freqs)
    return max(4096, int(128 * turns) + 16)


def family_samples(e, n_max):
    """Grid size of cross_check_family(e, n_max)'s one search (0 for an empty
    n_max), computed without building the path."""
    ends = [_periods(e, j, [n])[0] for j, n in n_max.items()]
    return _default_samples(_reeb_freqs(e), max(ends)) if ends else 0


def cross_check_index(e, j, n, sample_count=None):
    """Recompute cz(gamma_j^n) from the linearized Reeb flow numerically.

    Builds the rotation path with frequencies 2/a_l over [0, n*pi*a_j]
    (rounded to double by _reeb_freqs and _periods) and runs the crossing-form
    engine on it alone, with sample_count grid samples on [0, n*pi*a_j]
    (default: _default_samples).  The j-th block turns exactly
    n times and contributes 2n; the others contribute
    1 + 2*floor(n*a_j/a_l).  Engine failures (e.g. an ambiguous
    near-crossing) are reported as inconclusive, not as disagreement.

    This is the independent oracle of cross_check_family and the route it
    falls back to.
    """
    formula = orbit_index(e, j, n)
    freqs, (duration,) = _reeb_freqs(e), _periods(e, j, [n])
    if sample_count is None:
        sample_count = _default_samples(freqs, duration)
    path = RotationPath(freqs, duration, sample_count=sample_count)
    try:
        numeric = cz_index(path)
    except CrossingError as err:
        return CrossCheck(j=j, n=n, formula=formula, numeric=None,
                          agree=None, inconclusive=True, note=str(err))
    return CrossCheck(j=j, n=n, formula=formula, numeric=numeric,
                      agree=(numeric == formula), inconclusive=False)


def _catenated_twice(crossings, ends, gap):
    """Twice the index of each prefix [0, T] of a path, T in ends, read from
    the crossings of the whole path: the signatures in (0, T) count twice,
    those at 0 and at T's crossing once.  None when some T does not have
    exactly one crossing past 0 within gap of it, or when a crossing is
    degenerate.
    """
    if any(c.degenerate for c in crossings):
        return None
    times = [c.t for c in crossings]
    before = [0]  # before[k]: the sum over the crossings before times[k]
    for c in crossings:
        before.append(before[-1] + (1 if c.t == 0.0 else 2) * c.signature)
    out = []
    for t in ends:
        k = bisect_right(times, t - gap)
        if bisect_left(times, t + gap) != k + 1 or times[k] == 0.0:
            return None
        out.append(before[k] + crossings[k].signature)
    return out


def cross_check_family(e, n_max):
    """{j: CrossCheck records of gamma_j^n for n = 1, ..., n_max[j], in order
    of n} for every j in the mapping n_max, from one crossing search.

    The linearized Reeb flow does not depend on j, so every iterate of every
    simple orbit is a prefix of one rotation path.  find_crossings runs once on
    it over [0, T_max], T_max = max_j n_max[j]*pi*a_j, with the family_samples
    grid of that path.  Each T_n = n*pi*a_j, rounded as cross_check_index rounds
    its duration, is matched to the crossing within the isolation gap
    ISOLATION_FACTOR*T_max of it, and cz(gamma_j^n) is the sum of the signatures
    in (0, T_n) plus half those at 0 and at T_n.  An empty n_max runs no search.

    Every family goes through cross_check_index instead, one orbit at a time,
    when the search raises CrossingError, a crossing is degenerate, or a T_n has
    no crossing within the gap or more than one: the list is then wrong near
    T_n, and so is every index read past it.  So an index is never guessed, and
    each inconclusive record names its own orbit's failure.
    """
    for j, n in n_max.items():
        orbit_index(e, j, n)  # checks j, n and the hypothesis before the search
    if not n_max:
        return {}
    ends = {j: _periods(e, j, range(1, n + 1)) for j, n in sorted(n_max.items())}
    t_max = max(t[-1] for t in ends.values())
    path = RotationPath(_reeb_freqs(e), t_max, sample_count=family_samples(e, n_max))
    try:
        crossings = find_crossings(path)
        twice = {j: _catenated_twice(crossings, t, ISOLATION_FACTOR * t_max)
                 for j, t in ends.items()}
    except CrossingError:
        twice = dict.fromkeys(ends)
    if None in twice.values():
        return {j: [cross_check_index(e, j, n) for n in range(1, n_max[j] + 1)]
                for j in ends}
    out = {}
    for j, tw_j in twice.items():
        a = e.family.elements(j, e.family.element(j, n_max[j])).tolist()
        out[j] = []
        for n, (tw, a_n) in enumerate(zip(tw_j, a, strict=True), start=1):
            formula = e.m - 1 + 2 * a_n
            numeric = Fraction(tw, 2)
            out[j].append(CrossCheck(j=j, n=n, formula=formula, numeric=numeric,
                                     agree=(numeric == formula), inconclusive=False))
    return out
