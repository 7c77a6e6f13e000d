"""Reeb orbit spectra of irrational ellipsoids.

The boundary of E(a_1, ..., a_m) with pairwise-irrational weight ratios
carries exactly m simple closed Reeb orbits gamma_j, one per coordinate
axis, with period pi*a_j.  The n-th iterate of gamma_j has Conley-Zehnder
index

    m - 1 + 2 * sum_k floor(n * a_j / a_k) = m - 1 + 2 * A_j(n),

where A_j(n) is the n-th element of the j-th Tamura set of the weights.  So
an Ellipsoid is the TamuraFamily of its weights, and like it refuses a
rational weight ratio at construction: orbit indices are its certified
elements, and the spectrum is the m element arrays of
spectrum_sets concatenated in j order, sorted stably by element and mapped
to degrees.  One spectrum_sets call can serve a whole `spectrum
--cross-check`: its lengths size the family search, its elements are the
family route's formula values, and _orbit_chunks, which spectrum_orbits
also reads, gives the rows' int64 columns a chunk at a time.

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
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .czindex import ISOLATION_FACTOR, RotationPath, cz_index, find_crossings
from .errors import CrossingError
from .partitions import TamuraFamily
from .quadfield import QuadIrrational, _near_fraction

__all__ = [
    "Ellipsoid",
    "ReebOrbit",
    "orbit_index",
    "spectrum",
    "spectrum_sets",
    "spectrum_orbits",
    "check_goodness_and_lacunarity",
    "cross_check_index",
    "cross_check_family",
    "family_samples",
    "GoodnessReport",
    "CrossCheck",
]

# pi to 50 decimals, truncated: relative error below 10**-50
_PI = Fraction("3.14159265358979323846264338327950288419716939937510")
_CHUNK = 4096   # orbits per chunk of _orbit_chunks


class Ellipsoid(TamuraFamily):
    """E(a_1, ..., a_m) with exact positive weights in one Q(sqrt(d)).

    It is the TamuraFamily of its weights: construction raises TypeError,
    ValueError or HypothesisViolation as TamuraFamily's does, so every
    Ellipsoid satisfies the pairwise-irrational hypothesis of the index
    formula.
    """

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
    """Conley-Zehnder index of gamma_j^n: m - 1 + 2*A_j(n)."""
    return e.m - 1 + 2 * e.element(j, n)


def spectrum_sets(e, max_degree):
    """The Tamura elements a of every set, in j order, whose orbits have
    cz = m - 1 + 2a <= max_degree: a <= (max_degree - m + 1) // 2.  The
    array of set j holds A_j(1), ..., A_j(N_j), so N_j is its length, the
    number of iterates of gamma_j in spectrum(e, max_degree).  A max_degree
    that is not an integer raises TypeError."""
    limit = (operator.index(max_degree) - e.m + 1) // 2
    return [e.elements(j, limit) for j in range(1, e.m + 1)]


def spectrum(e, max_degree):
    """All orbits (j, n) with cz <= max_degree, sorted by (cz, j, n): the
    spectrum_orbits of spectrum_sets(e, max_degree)."""
    return spectrum_orbits(e, spectrum_sets(e, max_degree))


def _orbit_chunks(e, sets):
    """The orbits of the element arrays `sets` of spectrum_sets in (cz, j,
    n) order, as (j, n, cz) arrays of at most _CHUNK orbits each.

    cz = m - 1 + 2a rises with the Tamura element a, so the elements of
    every set up to spectrum_sets' bound, concatenated in j order (n
    ascending within each set) and sorted stably by a, are already in
    (cz, j, n) order and complete.  Two full-length arrays are held (the
    elements and their stable sort order), and one chunk of each column.
    """
    sizes = [len(s) for s in sets]
    ends = np.cumsum(sizes)
    a = np.concatenate(sets)
    order = np.argsort(a, kind="stable")
    offset = ends - sizes - 1
    for lo in range(0, len(a), _CHUNK):
        k = order[lo:lo + _CHUNK]
        j = np.searchsorted(ends, k, side="right")   # the label j - 1
        # an int64 element is a sum of m floors below 2**32 by the int64
        # guard, so cz cannot overflow; object arrays compute in Python ints
        yield j + 1, k - offset[j], e.m - 1 + 2 * a[k]


def spectrum_orbits(e, sets):
    """The orbits of the element arrays `sets` of spectrum_sets, sorted by
    (cz, j, n): one ReebOrbit per orbit of _orbit_chunks.

    One list is extended in place, one chunk at a time, with the cyclic
    collector paused, then left as found: a ReebOrbit (three ints and one
    of e.weights' own objects) is in no cycle, and refcounting frees it.
    _spectrum_columns keeps it paused until freed.
    """
    weights = np.fromiter(chain([None], e.weights), object, e.m + 1)  # [j] = a_j
    enabled, orbits = gc.isenabled(), []
    gc.disable()
    try:
        for j, n, cz in _orbit_chunks(e, sets):
            orbits.extend(map(tuple.__new__, repeat(ReebOrbit), zip(
                j.tolist(), n.tolist(), weights.take(j).tolist(), cz.tolist())))
        return orbits
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


def _spectrum_columns(e, max_degree, names):
    """The fields `names` of spectrum(e, max_degree)'s orbits as int64 arrays
    (object arrays past int64).  The cyclic collector stays paused until the
    orbit list is freed, then is left as found: running, it would scan the
    10**5 new tuples of an `sh` to degree 200,002 and find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        orbits, columns = spectrum(e, max_degree), []
        for read in map(attrgetter, names):
            try:
                columns.append(np.fromiter(map(read, orbits), np.int64, len(orbits)))
            except OverflowError:
                columns.append(np.fromiter(map(read, orbits), object, len(orbits)))
        del orbits
        return columns
    finally:
        if enabled:
            gc.enable()


def check_goodness_and_lacunarity(e, max_degree):
    """Check every enumerated iterate is good and the index set is lacunary.

    Good means cz(gamma_j^n) == cz(gamma_j) mod 2; lacunary means no two
    consecutive integers occur among the indices up to max_degree.
    """
    max_degree = operator.index(max_degree)
    j, n, cz = _spectrum_columns(e, max_degree, ("j", "n", "cz"))
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
    return GoodnessReport(max_degree=max_degree, all_good=not bad, lacunary=pair is None,
                          orbit_count=len(j), indices=indices.tolist(), bad_orbits=bad,
                          consecutive_pair=pair)


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


def _doubles(e, l, quantity, values):
    """The list of values(), the quantity of weight a_l as doubles, or
    ValueError naming a_l when one is not a finite positive double."""
    try:
        out = values()
    except OverflowError:
        out = [math.inf]
    if not all(0 < x < math.inf for x in out):
        raise ValueError(f"weight a_{l} = {e.weights[l - 1]} is outside the numeric "
                         f"engine's range: {quantity} is not a finite positive double")
    return out


def _reeb_freqs(e):
    """Frequencies 2/a_l of the linearized Reeb flow, which do not depend on
    j, each rounded to double from a Fraction near it."""
    return [_doubles(e, l, f"2/a_{l}", lambda: [float(2 / _near_fraction(w))])[0]
            for l, w in enumerate(e.weights, start=1)]


def _periods(e, j, ns):
    """Periods n*pi*a_j of gamma_j^n, n in ns, rounded as _reeb_freqs rounds:
    with pi*a_j = num/den from a Fraction near it, n*num/den is a division
    of exact integers, correctly rounded, so it is float(n * (num/den))."""
    pi_a = _PI * _near_fraction(e.weights[j - 1])
    num, den = pi_a.numerator, pi_a.denominator
    return _doubles(e, j, f"n*pi*a_{j}", lambda: [n * num / den for n in ns])


def _default_samples(freqs, duration):
    """Cross-check grid on [0, duration]: 128 samples per turn summed over
    the blocks, plus 16, and never fewer than 4096: about 16 times the 8
    per turn of the fastest block that min_rotation_samples requires."""
    turns = sum(duration * f / (2.0 * math.pi) for f in freqs)
    return max(4096, int(128 * turns) + 16)


def family_samples(e, elements):
    """Grid size of cross_check_family(e, elements)'s one search (0 for an
    empty mapping), computed without building the path."""
    ends = [_periods(e, j, [len(a)])[0] for j, a in elements.items()]
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
    n = operator.index(n)
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


def cross_check_family(e, elements):
    """{j: CrossCheck records of gamma_j^n for n = 1, ..., N_j, in order of n}
    for every j in the mapping `elements`, from one crossing search.

    elements[j] holds the Tamura elements A_j(1), ..., A_j(N_j), as an array
    of spectrum_sets gives them: N_j is its length, and the formula index of
    gamma_j^n is m - 1 + 2*A_j(n), so this route makes no exact call of its
    own.  Raises ValueError, before any search, for a j outside 1..m or an
    empty family.

    The linearized Reeb flow does not depend on j, so every iterate of every
    simple orbit is a prefix of one rotation path.  find_crossings runs once on
    it over [0, T_max], T_max = max_j N_j*pi*a_j, with the family_samples
    grid of that path.  Each T_n = n*pi*a_j, rounded as cross_check_index rounds
    its duration, is matched to the crossing within the isolation gap
    ISOLATION_FACTOR*T_max of it, and cz(gamma_j^n) is the sum of the signatures
    in (0, T_n) plus half those at 0 and at T_n.  An empty mapping runs no
    search.

    Every family goes through cross_check_index instead, one orbit at a time,
    when the search raises CrossingError, a crossing is degenerate, or a T_n has
    no crossing within the gap or more than one: the list is then wrong near
    T_n, and so is every index read past it.  So an index is never guessed, and
    each inconclusive record names its own orbit's failure.

    The records are built from _family_twice(e, elements), which the
    `spectrum` command reads directly.
    """
    out = {}
    for j, twice in _family_twice(e, elements).items():
        out[j] = []
        for n, (t, a_n) in enumerate(zip(twice, elements[j].tolist(), strict=True), start=1):
            formula = e.m - 1 + 2 * a_n
            if isinstance(t, str):
                out[j].append(CrossCheck(j=j, n=n, formula=formula, numeric=None,
                                         agree=None, inconclusive=True, note=t))
            else:
                numeric = Fraction(t, 2)
                out[j].append(CrossCheck(j=j, n=n, formula=formula, numeric=numeric,
                                         agree=(numeric == formula), inconclusive=False))
    return out


def _twice(check):
    """Twice the numeric index of a CrossCheck record, an int, or its note,
    a str, when it is inconclusive."""
    return check.note if check.inconclusive else int(2 * check.numeric)


def _family_twice(e, elements):
    """{j: [t_1, ..., t_N_j]} of cross_check_family(e, elements), from the
    same search or fallback: t_n is _twice of gamma_j^n's record, twice its
    numeric index or the note of an inconclusive check."""
    for j, a in elements.items():
        if not 1 <= j <= e.m:
            raise ValueError(f"set label j must be in 1..{e.m}, got {j}")
        if not len(a):
            raise ValueError(f"family {j} has no iterates")
    if not elements:
        return {}
    ends = {j: _periods(e, j, range(1, len(a) + 1)) for j, a in sorted(elements.items())}
    t_max = max(t[-1] for t in ends.values())
    freqs = _reeb_freqs(e)
    path = RotationPath(freqs, t_max, sample_count=_default_samples(freqs, t_max))
    try:
        crossings = find_crossings(path)
        twice = {j: _catenated_twice(crossings, t, ISOLATION_FACTOR * t_max)
                 for j, t in ends.items()}
    except CrossingError:
        twice = dict.fromkeys(ends)
    if None in twice.values():
        return {j: [_twice(cross_check_index(e, j, n)) for n in range(1, len(elements[j]) + 1)]
                for j in ends}
    return twice
