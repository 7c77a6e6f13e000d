"""Beatty and Tamura partition sequences over Q(sqrt(d)), exactly.

Tamura's composite sets A_j = { sum_k floor(n * a_j / a_k) : n >= 1 } tile
the positive integers whenever the weight ratios are pairwise irrational;
for m = 2 they reduce to the classical Rayleigh pair of Beatty sequences
with 1/alpha + 1/beta = 1.  Tamura sets, Beatty sets and the naive sets
{floor(n * a)} are all one kind of stream: the sum of exact floors of n
times a fixed list of slopes, for n = 1, 2, ..., computed a block of n at
a time by _floor_blocks.  A rational slope divides exactly; an irrational
one reads its floors off the Sturmian word of its fractional part, in int64
while they fit the int64 guard and in Python ints past it.  A single
element (TamuraFamily.element) is a sum of scalar exact floors.  No float
takes part, so a "partition" verdict up to N is a proof, not a
floating-point impression.  Array readers (TamuraFamily.elements, and so
the Reeb spectrum) take the blocks whole.  A stream of (value, j, n)
elements is a chain of one C-level zip per block, so it costs one Python
step per block, not per element.  The partition scanners pull the
streams' values in chunks and count them one window of values at a
time with a bincount, which needs no table sized by the limit and reports
the smallest violating value together with both producing (set, n)
witnesses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import HypothesisViolation
from .quadfield import (
    QuadIrrational,
    _floor_exact,
    _slope_blocks,
)

__all__ = [
    "TamuraFamily",
    "PartitionReport",
    "verify_partition",
    "beatty_set",
    "rayleigh_conjugate",
    "rayleigh_pair",
    "uspensky_scan",
]


# The first block of a stream is small, so short scans stay cheap; later
# blocks double up to the cap, which bounds the memory a stream holds: 64
# n, doubling to 2048.
_BLOCK_FIRST = 64
_BLOCK_MAX = 2048


def _block_bounds():
    """The (n_lo, n_hi) of every block: 64 n, doubling up to 2048."""
    n_lo, size = 1, _BLOCK_FIRST
    while True:
        yield n_lo, n_lo + size
        n_lo += size
        size = min(2 * size, _BLOCK_MAX)


def _floor_blocks(triples, d, limit):
    """Yield (n_lo, values): the floor sums at n = n_lo, n_lo + 1, ... of
    one block, in blocks of 64 n that double up to 2048, stopping after the
    first block whose last value passes limit.

    Each slope's floors come from its own _slope_blocks: exact division for
    a rational slope, and for an irrational one the Sturmian word of its
    fractional part.  The sum never decreases in n, so every block before
    the last lies within the limit.  A block is an int64 array, or an
    object array of Python ints where the int64 guard fails for one of its
    slopes.
    """
    slopes = [_slope_blocks(p, q, c, d, _block_bounds()) for p, q, c in triples]
    for (n_lo, _), floors in zip(_block_bounds(), zip(*slopes)):
        values = sum(floors)
        yield n_lo, values
        if values[-1] > limit:
            return


def _floor_stream(triples, d, label, limit):
    """An iterator of (value, label, n) for value = the floor sum at n, up
    to limit, skipping every value <= the last one it gave.

    The floors come a block at a time from _floor_blocks (Sturmian words
    and exact division), and each block becomes one zip of C iterators, so
    an element costs no Python step.  The sum never decreases in n, so a
    block's in-limit values are a prefix of it, and a value that rises above
    its predecessor rises above every value before it.  For Tamura and
    Beatty sets the sum strictly increases, so the whole prefix rises and
    its n are a range; for slopes below 1 a mask drops the zeros and the
    repeats, since a set contains each value once.
    """
    return chain.from_iterable(_stream_blocks(triples, d, label, limit))


def _stream_blocks(triples, d, label, limit):
    """One zip(values, repeat(label), ns) per block, for _floor_stream."""
    last = 0
    for n_lo, values in _floor_blocks(triples, d, limit):
        values = values[:np.searchsorted(values, limit, side="right")]
        rising = values > np.concatenate(([last], values[:-1]))
        if rising.all():
            ns = range(n_lo, n_lo + len(values))
        else:
            keep = np.flatnonzero(rising)
            values = values[keep]
            ns = (keep + n_lo).tolist()
        if len(values):
            last = values[-1]
            yield zip(values.tolist(), repeat(label), ns)


def _require_quad(w):
    """The check every entry point makes of a weight's type."""
    if not isinstance(w, QuadIrrational):
        raise TypeError(f"weights must be QuadIrrational, got {type(w).__name__}")


def _require_positive(weights):
    for w in weights:
        _require_quad(w)
        if w.sign() <= 0:
            raise ValueError(f"weights must be positive, got {w}")


class TamuraFamily:
    """The m generators n -> sum_k floor(n * a_j / a_k) for fixed weights.

    Each generator is strictly increasing in n because the k = j term alone
    advances by exactly one per step.  Construction divides each ordered
    pair of weights once, a_j/a_k for j != k (the ratio a_j/a_j is the
    triple (1, 0, 1)), and the one table serves both the irrationality
    hypothesis, checked for m >= 2, and the generators' slopes.
    """

    def __init__(self, weights):
        weights = tuple(weights)
        if not weights:
            raise ValueError("need at least one weight")
        _require_positive(weights)
        m = len(weights)
        ratios = [[weights[j] / weights[k] if j != k else None for k in range(m)]
                  for j in range(m)]
        # the first rational a_j/a_k with j < k, as pairwise_rational_ratio finds it
        for j, k in combinations(range(m), 2):
            if ratios[j][k].is_rational():
                raise HypothesisViolation.rational_ratio(j + 1, k + 1, ratios[j][k])
        self.weights = weights
        self._d = weights[0].d
        self._ratio_triples = [[(1, 0, 1) if r is None else r.scaled_triple() for r in row]
                               for row in ratios]

    @property
    def m(self):
        return len(self.weights)

    def _triples(self, j):
        j = operator.index(j)
        if not 1 <= j <= self.m:
            raise ValueError(f"set label j must be in 1..{self.m}, got {j}")
        return self._ratio_triples[j - 1]

    def element(self, j, n):
        """The n-th element of A_j, sum_k floor(n * a_j / a_k), one scalar
        exact floor per k.  n must be an integer (a numpy one is read as
        a Python int) and at least 1."""
        triples = self._triples(j)
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return sum(_floor_exact(n * p, n * q, c, self._d) for p, q, c in triples)

    def generator(self, j, limit):
        """An iterator of (value, j, n) with value ascending, stopping past
        limit.  A label or limit that is not an integer raises TypeError at
        the call."""
        j = operator.index(j)
        return _floor_stream(self._triples(j), self._d, j, operator.index(limit))

    def elements(self, j, limit):
        """Array of A_j(n) <= limit for n = 1, 2, ...; A_j(n) sits at index
        n - 1.  Its dtype is object when a block fell outside the int64
        guard."""
        limit = operator.index(limit)
        blocks = [values for _, values in
                  _floor_blocks(self._triples(j), self._d, limit)]
        values = np.concatenate(blocks)
        return values[:np.searchsorted(values, limit, side="right")]


@dataclass
class PartitionReport:
    """Outcome of scanning a family of integer sets against [1..limit].

    verdict is "partition" when the sets tile [1..limit] exactly (for the
    Uspensky scanner read it as "no witness <= limit"); "collision" and
    "gap" carry the smallest violating value.  For collisions, `first` and
    `second` are the two producing (set label, n) pairs.  `owners` maps each
    covered value to its set label (index 0 unused); it is only built when
    the scan is asked for it (collect_owners=True) and ends in "partition".
    `counts` tallies elements per set over the scanned range.
    """

    limit: int
    verdict: str
    value: int | None = None
    first: tuple | None = None
    second: tuple | None = None
    owners: list | None = field(default=None, repr=False)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.verdict == "partition"

    def members(self, j):
        """Values in [1..limit] owned by set j (needs the owner table)."""
        if self.owners is None:
            raise ValueError("owner table was not materialized for this scan")
        return [v for v in range(1, self.limit + 1) if self.owners[v] == j]


# The cover counts values a window of this width at a time, and a stream
# is pulled in chunks of the same width only while its values lag behind
# the window, so each stream holds at most two chunks.
_WINDOW = 2048


def _scan_cover(open_stream, m, limit, collect_owners):
    """Cover [1..limit] with the streams open_stream(j), j = 1..m, and
    report the smallest value not covered exactly once.

    Values are counted one window [lo, hi] at a time.  Every stream whose
    last pulled value is at most hi is pulled, values only, in chunks of
    the window's width; one bincount of the window's values then finds the
    smallest count other than 1, a collision or a gap.  Values past hi
    wait for the next window.  A witness's (j, n) is read again from its
    stream, since n is not a stream position where slopes below 1 skip.

    The report is the one a k-way merge of the (value, j, n) items gives,
    one item at a time, stopping at the first item that repeats a value or
    passes one by: `first` and `second` in (value, j, n) order, `counts`
    including the item that revealed the violation, and no key for a set
    with no item merged.
    """
    limit = operator.index(limit)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    # every value is at most limit, so int64 holds them below 2**63
    dtype = np.int64 if limit < 2**63 else object
    streams = [open_stream(j) for j in range(1, m + 1)]
    pulled = [np.empty(0, dtype)] * m   # values past the last window
    taken = [0] * m                     # values in finished windows
    done = [False] * m
    owners = np.zeros(limit + 1, np.int64) if collect_owners else None
    lo = 1
    while lo <= limit:
        hi = min(lo + _WINDOW - 1, limit)
        parts = []
        for s, stream in enumerate(streams):
            values = pulled[s]
            while not done[s] and (not len(values) or values[-1] <= hi):
                chunk = np.fromiter(map(itemgetter(0), islice(stream, _WINDOW)), dtype)
                done[s] = len(chunk) < _WINDOW
                values = np.concatenate((values, chunk))
            pulled[s] = values
            parts.append(values[:np.searchsorted(values, hi, side="right")])
        offsets = (np.concatenate(parts) - lo).astype(np.int64, copy=False)
        bad = np.flatnonzero(np.bincount(offsets, minlength=hi - lo + 1) != 1)
        if bad.size:
            return _witness(open_stream, limit, lo + int(bad[0]), pulled, taken)
        for s, part in enumerate(parts):
            if owners is not None:
                owners[part] = s + 1
            taken[s] += len(part)
            pulled[s] = pulled[s][len(part):]
        lo = hi + 1
    return PartitionReport(
        limit=limit, verdict="partition",
        owners=None if owners is None else owners.tolist(),
        counts=_counts(taken))


def _witness(open_stream, limit, value, pulled, taken):
    """The report of the smallest violation, at `value`, from each
    stream's pulled values (every value below `value` among them) and the
    number it gave before them."""
    below = [int(np.searchsorted(values, value)) for values in pulled]
    # each stream's first value >= `value`, in the merge's (value, j) order
    heads = sorted((values[i], s) for s, (values, i) in enumerate(zip(pulled, below))
                   if i < len(values))
    collision = len(heads) > 1 and heads[1][0] == value
    # the merge stops after two items at `value`, or after the first past it
    stop = [s for _, s in heads[:1 + collision]]
    counts = _counts([t + b + (s in stop) for s, (t, b) in enumerate(zip(taken, below))])
    if not collision:
        return PartitionReport(limit=limit, verdict="gap", value=value,
                               counts=counts)
    # (j, n) of the item at that position of a fresh stream
    first, second = (next(islice(open_stream(s + 1), taken[s] + below[s], None))[1:]
                     for s in stop)
    return PartitionReport(limit=limit, verdict="collision", value=value,
                           first=first, second=second, counts=counts)


def _counts(tallies):
    """{j: tally} of the sets j = 1, 2, ... with a nonzero tally."""
    return {j: tally for j, tally in enumerate(tallies, 1) if tally}


def verify_partition(weights, limit, collect_owners=False):
    """Scan the Tamura sets of `weights` against [1..limit].

    Enumeration per set stops at the first element past the limit, which is
    sound because each generator is strictly increasing.  Violations are
    data (a report), not errors; a rational weight ratio raises
    HypothesisViolation before any scanning.
    """
    family = TamuraFamily(weights)
    return _scan_cover(lambda j: family.generator(j, limit), family.m, limit,
                       collect_owners)


def _require_beatty_slope(alpha):
    _require_quad(alpha)
    if alpha.is_rational():
        raise HypothesisViolation(
            f"alpha = {alpha} is rational; a Beatty slope must be irrational")
    if not alpha > 1:
        raise HypothesisViolation(f"alpha = {alpha} is not > 1")


def _beatty_generator(a, label, limit):
    """The set {floor(n*a) : n >= 1} within [1..limit], ascending."""
    return _floor_stream([a.scaled_triple()], a.d, label, operator.index(limit))


def beatty_set(alpha, limit):
    """The Beatty sequence values floor(n*alpha) up to limit, alpha > 1
    irrational."""
    _require_beatty_slope(alpha)
    return [value for value, _, _ in _beatty_generator(alpha, 1, limit)]


def rayleigh_conjugate(alpha):
    """beta = alpha/(alpha - 1), the exact solution of 1/alpha + 1/beta = 1."""
    _require_beatty_slope(alpha)
    return alpha / (alpha - 1)


def rayleigh_pair(alpha, limit, collect_owners=False):
    """Scan the Beatty pair (alpha, alpha/(alpha-1)) against [1..limit]."""
    slopes = (alpha, rayleigh_conjugate(alpha))
    return _scan_cover(lambda j: _beatty_generator(slopes[j - 1], j, limit),
                       2, limit, collect_owners)


def uspensky_scan(weights, limit):
    """Hunt for a witness that the naive sets {floor(n*a_i)} fail to tile.

    For m >= 3 such a witness (a collision or a gap) always exists; the scan
    exhibits the smallest one below the limit.  A "partition" verdict only
    means no witness turned up yet — it never refutes anything.
    """
    weights = tuple(weights)
    if len(weights) < 3:
        raise ValueError(
            f"the naive-family scan needs m >= 3 sets, got {len(weights)}")
    _require_positive(weights)
    return _scan_cover(lambda j: _beatty_generator(weights[j - 1], j, limit),
                       len(weights), limit, collect_owners=False)
