"""Beatty and Tamura partition sequences over Q(sqrt(d)), exactly.

Tamura's composite sets A_j = { sum_k floor(n * a_j / a_k) : n >= 1 } tile
the positive integers whenever the weight ratios are pairwise irrational;
for m = 2 they reduce to the classical Rayleigh pair of Beatty sequences
with 1/alpha + 1/beta = 1.  Every floor here comes from one block kernel,
in which a float may propose a floor but only an exact integer sign test
decides it, so a "partition" verdict up to N is a proof, not a
floating-point impression.  Tamura sets, Beatty sets and the naive sets
{floor(n * a)} are all one kind of stream: the sum of certified floors of
n times a fixed list of slopes, for n = 1, 2, ..., computed a block of n
at a time by _floor_blocks.  Array readers (TamuraFamily.elements, and so
the Reeb spectrum) take the blocks whole.  The partition scanners read them
one element at a time and merge the streams k-way, which needs no table and
reports the smallest violating value together with both producing (set, n)
witnesses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation
from .quadfield import QuadIrrational, _floor_scaled, pairwise_rational_ratio

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
# blocks double up to the cap, which bounds the memory a stream holds.
_BLOCK_FIRST = 64
_BLOCK_MAX = 1024


def _floor_sum(triples, d, n_lo, n_hi):
    """Array of sum_k floor(n * x_k) for n in [n_lo, n_hi), over slopes
    x_k = (p + q*sqrt(d)) / c, each floor certified by the block kernel."""
    return sum(_floor_scaled(p, q, c, d, n_lo, n_hi) for p, q, c in triples)


def _floor_blocks(triples, d, limit):
    """Yield (n_lo, values): the floor sums at n = n_lo, n_lo + 1, ... of
    one block, in blocks of 64 n that double up to 1024, stopping after the
    first block whose last value passes limit.

    The sum never decreases in n, so every block before the last lies
    within the limit.  A block is an int64 array, or an object array of
    Python ints where the kernel's int64 guard fails.
    """
    n_lo = 1
    size = _BLOCK_FIRST
    while True:
        values = _floor_sum(triples, d, n_lo, n_lo + size)
        yield n_lo, values
        if values[-1] > limit:
            return
        n_lo += size
        size = min(2 * size, _BLOCK_MAX)


def _floor_stream(triples, d, label, limit):
    """Yield (value, label, n) for value = the floor sum at n, up to limit,
    skipping every value <= the last one yielded.

    The floors come a block at a time from _floor_blocks and are yielded
    one by one.  For Tamura and Beatty sets the sum strictly increases, so
    the skip is a no-op; for slopes below 1 it drops the zeros and the
    repeats, since a set contains each value once.
    """
    last = 0
    for n_lo, values in _floor_blocks(triples, d, limit):
        for n, value in enumerate(values.tolist(), n_lo):
            if value > limit:
                return
            if value > last:
                yield (value, label, n)
                last = value


class TamuraFamily:
    """The m generators n -> sum_k floor(n * a_j / a_k) for fixed weights.

    Each generator is strictly increasing in n because the k = j term alone
    advances by exactly one per step.  The irrationality hypothesis is
    checked at construction for m >= 2.
    """

    def __init__(self, weights):
        weights = tuple(weights)
        if not weights:
            raise ValueError("need at least one weight")
        for w in weights:
            if not isinstance(w, QuadIrrational):
                raise TypeError(f"weights must be QuadIrrational, got {type(w).__name__}")
            if w.sign() <= 0:
                raise ValueError(f"weights must be positive, got {w}")
        violation = pairwise_rational_ratio(weights)
        if violation is not None:
            raise HypothesisViolation.rational_ratio(*violation)
        self.weights = weights
        self._d = weights[0].d
        self._ratio_triples = [
            [(aj / ak).scaled_triple() for ak in weights] for aj in weights
        ]

    @property
    def m(self):
        return len(self.weights)

    def _triples(self, j):
        if not 1 <= j <= self.m:
            raise ValueError(f"set label j must be in 1..{self.m}, got {j}")
        return self._ratio_triples[j - 1]

    def element(self, j, n):
        """The n-th element of A_j, exactly."""
        triples = self._triples(j)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return int(_floor_sum(triples, self._d, n, n + 1)[0])

    def generator(self, j, limit):
        """Yield (value, j, n) with value ascending, stopping past limit."""
        return _floor_stream(self._triples(j), self._d, j, limit)

    def elements(self, j, limit):
        """Array of A_j(n) <= limit for n = 1, 2, ...; A_j(n) sits at index
        n - 1.  Its dtype is object when a block fell outside the kernel's
        int64 guard."""
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


def _scan_cover(streams, limit, collect_owners):
    owners = [0] * (limit + 1) if collect_owners else None
    counts = {}
    expected = 1
    prev = None
    for item in heapq.merge(*streams):
        value, j, n = item
        counts[j] = counts.get(j, 0) + 1
        if prev is not None and value == prev[0]:
            return PartitionReport(
                limit=limit, verdict="collision", value=value,
                first=(prev[1], prev[2]), second=(j, n), counts=counts)
        if value > expected:
            return PartitionReport(
                limit=limit, verdict="gap", value=expected, counts=counts)
        if owners is not None:
            owners[value] = j
        expected += 1
        prev = item
    if expected <= limit:
        return PartitionReport(
            limit=limit, verdict="gap", value=expected, counts=counts)
    return PartitionReport(
        limit=limit, verdict="partition", owners=owners, counts=counts)


def verify_partition(weights, limit, collect_owners=False):
    """Scan the Tamura sets of `weights` against [1..limit].

    Enumeration per set stops at the first element past the limit, which is
    sound because each generator is strictly increasing.  Violations are
    data (a report), not errors; a rational weight ratio raises
    HypothesisViolation before any scanning.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    family = TamuraFamily(weights)
    streams = [family.generator(j, limit) for j in range(1, family.m + 1)]
    return _scan_cover(streams, limit, collect_owners)


def _require_beatty_slope(alpha):
    if alpha.is_rational():
        raise HypothesisViolation(
            f"alpha = {alpha} is rational; a Beatty slope must be irrational")
    if not alpha > 1:
        raise HypothesisViolation(f"alpha = {alpha} is not > 1")


def _beatty_generator(a, label, limit):
    """The set {floor(n*a) : n >= 1} within [1..limit], ascending."""
    return _floor_stream([a.scaled_triple()], a.d, label, limit)


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
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    beta = rayleigh_conjugate(alpha)
    streams = [_beatty_generator(alpha, 1, limit),
               _beatty_generator(beta, 2, limit)]
    return _scan_cover(streams, limit, collect_owners)


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
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    for w in weights:
        if w.sign() <= 0:
            raise ValueError(f"weights must be positive, got {w}")
    streams = [
        _beatty_generator(a, i + 1, limit)
        for i, a in enumerate(weights)
    ]
    return _scan_cover(streams, limit, collect_owners=False)
